"""Command-line entry points: ``fit``, ``synth``, and ``dict``.

Exit codes: 0 on success, 1 for usage problems, 2 when the data or the
feasibility checks reject the run, 141 when stdout's reader has gone (as a
shell reports a tool that SIGPIPE ended).  Flags may also be given in a flat
``key = value`` config file (``--config``); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .data import load_csv, synth_example1, synth_example2, write_csv
from .dictionary import build_dictionary
from .errors import ParsealError
from .pipeline import REPORT_FILE, TOOL_VERSION, _write_files, run_pipeline, write_json
from .screening import ImportanceRule
from .selection import SelectionConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _read_config(path, keys: dict) -> dict:
    """Flat key/value file mirroring the fit flags; '#' starts a comment.

    ``keys`` maps each key to its fit flag's Action; the values come back by
    the Action's ``dest``, read by its ``type`` (a switch takes true/false).
    """
    values = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            action = keys[key]
            if action.nargs == 0:  # a switch
                lowered = value.lower()
                if lowered in _TRUE_WORDS:
                    values[action.dest] = True
                elif lowered in _FALSE_WORDS:
                    values[action.dest] = False
                else:
                    raise ValueError(f"{path}:{lineno}: {key!r} wants true/false, got {value!r}")
            else:
                try:
                    values[action.dest] = (action.type or str)(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {value!r} for key {key!r}"
                    ) from None
                if action.choices is not None and values[action.dest] not in action.choices:
                    choices = ", ".join(map(repr, action.choices))
                    raise ValueError(f"{path}:{lineno}: {key} must be one of {choices}; got {value!r}")
    return values


@functools.cache  # parsing makes a fresh namespace and leaves the parser as it was
def _build_parser() -> _Parser:
    defaults = SelectionConfig()
    parser = _Parser(prog="parseal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"parseal {TOOL_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Every fit flag but --config is also a config-file key, spelled without
    # its dashes.  A flag that sets an ImportanceRule or SelectionConfig field
    # takes the field's name as its dest, and a metavar named after the flag.
    fit = commands.add_parser("fit", help="run the full selection pipeline on a CSV")
    fit.add_argument("--config", default=None, help="flat key=value file mirroring these flags")
    keys = {}

    def option(flag, **kwargs):
        keys[flag[2:]] = fit.add_argument(flag, default=None, **kwargs)

    option("--input", help="input CSV path")
    option("--response", help="name of the response column")
    option("--alpha", type=int, help=f"largest absolute exponent (default {defaults.alpha})")
    option("--mixture", type=int, dest="mixture_m", metavar="MIXTURE",
           help=f"max distinct variables per term (default {defaults.mixture_m})")
    option("--delta", type=float, dest="value", metavar="DELTA",
           help=f"importance limit (default {defaults.importance.value})")
    option("--delta-mode", dest="mode", choices=["absolute", "relative"],
           help="interpret --delta as-is or relative to the best column "
           f"(default {defaults.importance.mode})")
    option("--varsigma", type=float, help=f"independence limit (default {defaults.varsigma})")
    option("--vif-cap", type=float, help=f"hard VIF cap (default {defaults.vif_cap:g})")
    option("--max-terms", type=int, dest="max_subset_size", metavar="MAX_TERMS",
           help=f"largest subset size (default {defaults.max_subset_size})")
    option("--search", dest="search_mode", choices=["exhaustive", "greedy_forward"],
           help=f"subset search mode (default {defaults.search_mode})")
    option("--baseline", action="store_true", help="also fit the best subset of the raw columns")
    option("--seed", type=int, help="echoed into the report as config.seed; nothing random "
           f"uses it (default {defaults.seed})")
    option("--out-dir", help="directory for report and CSVs (default '.')")
    option("--stable-output", action="store_true",
           help="omit timing so identical runs are byte-identical")
    fit.set_defaults(config_keys=keys)

    synth = commands.add_parser("synth", help="write one of the synthetic example datasets")
    synth.add_argument("--example", type=int, choices=[1, 2], required=True)
    synth.add_argument("--n", type=int, default=1000)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")

    dict_cmd = commands.add_parser("dict", help="emit the term census for a CSV as JSON")
    dict_cmd.add_argument("--input", required=True)
    dict_cmd.add_argument("--response", required=True)
    dict_cmd.add_argument("--alpha", type=int, default=defaults.alpha)
    dict_cmd.add_argument("--mixture", type=int, default=defaults.mixture_m)
    dict_cmd.add_argument("--out", default=None, help="write JSON here instead of stdout")

    return parser


def _fields(cls, values: dict) -> dict:
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def _print_model(title: str, section: dict) -> None:
    print(f"{title}:")
    print(f"  terms: {', '.join(section['terms'])}")
    print(f"  intercept: {section['intercept']:.12g}")
    for label, coef, p in zip(
        section["term_labels"][1:], section["coefficients"][1:], section["p_values_display"][1:]
    ):
        print(f"  {label}: coef {coef:.12g} (p {p})")
    print(f"  adjusted R^2: {section['r_squared_adj']:.12g}")
    print(
        f"  candidates: {section['candidates_evaluated']} evaluated, "
        f"{section['feasible_candidates']} feasible"
    )


def _cmd_fit(args) -> int:
    values = {}
    if args.config is not None:
        try:
            values = _read_config(args.config, args.config_keys)
        except (OSError, ValueError) as err:
            print(f"parseal fit: error: {err}", file=sys.stderr)
            return 1
    for action in args.config_keys.values():  # flags win over the file
        if getattr(args, action.dest) is not None:
            values[action.dest] = getattr(args, action.dest)

    if "input" not in values or "response" not in values:
        print("parseal fit: error: --input and --response are required", file=sys.stderr)
        return 1

    try:
        rule = ImportanceRule(**_fields(ImportanceRule, values))
        cfg = SelectionConfig(importance=rule, **_fields(SelectionConfig, values))
    except ValueError as err:
        print(f"parseal fit: error: {err}", file=sys.stderr)
        return 1

    out_dir = values.get("out_dir", ".")
    dataset = load_csv(values["input"], values["response"])
    report = run_pipeline(
        dataset,
        cfg,
        with_baseline=values.get("baseline", False),
        out_dir=out_dir,
        stable=values.get("stable_output", False),
    )
    _print_model("selected model", report.selected_model)
    if report.baseline_model is not None:
        _print_model("baseline (raw columns)", report.baseline_model)
    print(f"report written to {out_dir}/{REPORT_FILE}")
    return 0


def _cmd_synth(args) -> int:
    problem = None
    if args.n < 3:
        problem = f"--n must be >= 3, got {args.n}"
    elif not 0 <= args.seed < 2**64:
        problem = f"--seed must lie in [0, 2**64), got {args.seed}"
    if problem is not None:
        print(f"parseal synth: error: {problem}", file=sys.stderr)
        return 1
    maker = synth_example1 if args.example == 1 else synth_example2
    dataset = maker(n=args.n, seed=args.seed)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n} rows to {args.out}")
    return 0


def _cmd_dict(args) -> int:
    dataset = load_csv(args.input, args.response)
    try:
        z = build_dictionary(dataset, args.alpha, args.mixture)
    except ValueError as err:
        print(f"parseal dict: error: {err}", file=sys.stderr)
        return 1
    if args.out is None:
        write_json(z.census.to_dict(), sys.stdout)
    else:
        _write_files([(args.out, z.census.to_dict())])
        print(f"census written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": _cmd_fit, "synth": _cmd_synth, "dict": _cmd_dict}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except ParsealError as err:
        stage = f" [{err.stage}]" if err.stage else ""
        print(f"parseal {args.command}: error{stage}: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader has gone: exit quietly, and flush what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as err:
        print(f"parseal {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
