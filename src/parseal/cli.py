"""Command-line entry points: ``fit``, ``synth``, and ``dict``.

Exit codes: 0 on success, 1 for usage problems, 2 when the data or the
feasibility checks reject the run.  Flags may also be given in a flat
``key = value`` config file (``--config``); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .data import load_csv, synth_example1, synth_example2, write_csv
from .dictionary import build_dictionary
from .errors import ParsealError
from .pipeline import REPORT_FILE, TOOL_VERSION, run_pipeline, write_json
from .screening import ImportanceRule
from .selection import SelectionConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_CONFIG_TYPES = {
    "input": str,
    "response": str,
    "alpha": int,
    "mixture": int,
    "delta": float,
    "delta-mode": str,
    "varsigma": float,
    "vif-cap": float,
    "max-terms": int,
    "search": str,
    "baseline": bool,
    "seed": int,
    "out-dir": str,
    "stable-output": bool,
}

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _read_config(path) -> dict:
    """Flat key/value file mirroring the fit flags; '#' starts a comment."""
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
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            caster = _CONFIG_TYPES[key]
            if caster is bool:
                lowered = value.lower()
                if lowered in _TRUE_WORDS:
                    values[key] = True
                elif lowered in _FALSE_WORDS:
                    values[key] = False
                else:
                    raise ValueError(f"{path}:{lineno}: {key!r} wants true/false, got {value!r}")
            else:
                try:
                    values[key] = caster(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {value!r} for key {key!r}"
                    ) from None
    return values


@functools.cache  # parsing makes a fresh namespace and leaves the parser as it was
def _build_parser() -> _Parser:
    defaults = SelectionConfig()
    parser = _Parser(prog="parseal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"parseal {TOOL_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = commands.add_parser("fit", help="run the full selection pipeline on a CSV")
    fit.add_argument("--config", default=None, help="flat key=value file mirroring these flags")
    fit.add_argument("--input", default=None, help="input CSV path")
    fit.add_argument("--response", default=None, help="name of the response column")
    fit.add_argument("--alpha", type=int, default=None,
                     help=f"largest absolute exponent (default {defaults.alpha})")
    fit.add_argument("--mixture", type=int, default=None,
                     help=f"max distinct variables per term (default {defaults.mixture_m})")
    fit.add_argument("--delta", type=float, default=None,
                     help=f"importance limit (default {defaults.importance.value})")
    fit.add_argument(
        "--delta-mode",
        choices=["absolute", "relative"],
        default=None,
        help="interpret --delta as-is or relative to the best column "
        f"(default {defaults.importance.mode})",
    )
    fit.add_argument("--varsigma", type=float, default=None,
                     help=f"independence limit (default {defaults.varsigma})")
    fit.add_argument("--vif-cap", type=float, default=None,
                     help=f"hard VIF cap (default {defaults.vif_cap:g})")
    fit.add_argument("--max-terms", type=int, default=None,
                     help=f"largest subset size (default {defaults.max_subset_size})")
    fit.add_argument(
        "--search",
        choices=["exhaustive", "greedy_forward"],
        default=None,
        help=f"subset search mode (default {defaults.search_mode})",
    )
    fit.add_argument("--baseline", action="store_true", default=None,
                     help="also fit the best subset of the raw columns")
    fit.add_argument("--seed", type=int, default=None,
                     help="echoed into the report as config.seed; nothing random uses it "
                          f"(default {defaults.seed})")
    fit.add_argument("--out-dir", default=None, help="directory for report and CSVs (default '.')")
    fit.add_argument("--stable-output", action="store_true", default=None,
                     help="omit timing so identical runs are byte-identical")

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


def _resolve(args, config: dict, key: str, default=None):
    flag = getattr(args, key.replace("-", "_"))
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


# Fit flags (and config-file keys) by the ImportanceRule and SelectionConfig
# field they set; a field no flag sets keeps its dataclass default.
_RULE_FIELDS = {"delta-mode": "mode", "delta": "value"}
_CONFIG_FIELDS = {
    "alpha": "alpha",
    "mixture": "mixture_m",
    "varsigma": "varsigma",
    "vif-cap": "vif_cap",
    "max-terms": "max_subset_size",
    "search": "search_mode",
    "seed": "seed",
}


def _given(args, config: dict, flags: dict) -> dict:
    values = {name: _resolve(args, config, key) for key, name in flags.items()}
    return {name: value for name, value in values.items() if value is not None}


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
    config = {}
    if args.config is not None:
        try:
            config = _read_config(args.config)
        except (OSError, ValueError) as err:
            print(f"parseal fit: error: {err}", file=sys.stderr)
            return 1

    input_path = _resolve(args, config, "input")
    response = _resolve(args, config, "response")
    if input_path is None or response is None:
        print("parseal fit: error: --input and --response are required", file=sys.stderr)
        return 1

    try:
        rule = ImportanceRule(**_given(args, config, _RULE_FIELDS))
        cfg = SelectionConfig(importance=rule, **_given(args, config, _CONFIG_FIELDS))
    except ValueError as err:
        print(f"parseal fit: error: {err}", file=sys.stderr)
        return 1

    out_dir = _resolve(args, config, "out-dir", ".")
    with_baseline = bool(_resolve(args, config, "baseline", False))
    stable = bool(_resolve(args, config, "stable-output", False))

    dataset = load_csv(input_path, response)
    report = run_pipeline(
        dataset, cfg, with_baseline=with_baseline, out_dir=out_dir, stable=stable
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
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            write_json(z.census.to_dict(), fh)
        print(f"census written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": _cmd_fit, "synth": _cmd_synth, "dict": _cmd_dict}
    try:
        return handlers[args.command](args)
    except ParsealError as err:
        stage = f" [{err.stage}]" if err.stage else ""
        print(f"parseal {args.command}: error{stage}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"parseal {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
