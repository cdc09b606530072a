"""End-to-end pipeline driver and the JSON run report.

All numeric output is serialized through ``repr`` (shortest round-trip form,
at most 17 significant digits), so a report parsed back from disk carries
exactly the values that were computed.  With ``stable=True`` the timing block
is omitted and two runs with the same inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset
from .dictionary import build_dictionary, canonical_key, format_term
from .errors import EmptyMatrix, ParsealError
from .screening import Records, screen
from .selection import (
    SelectedModel,
    SelectionConfig,
    baseline_best_subset,
    best_subset_search,
    greedy_forward_search,
)
from .stats import _as_finite_vector, format_p_value

TOOL_NAME = "parseal"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

REPORT_FILE = "report.json"


@contextmanager
def _stage(name: str, timing: dict):
    """Record the stage's wall time as ``timing[name + "_s"]``; tag escaping
    errors with the stage that raised them."""
    start = time.perf_counter()
    try:
        yield
    except ParsealError as err:
        if err.stage is None:
            err.stage = name
        raise
    timing[f"{name}_s"] = time.perf_counter() - start


def _float_or_none(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _model_section(model: SelectedModel, source_labels, search_mode: str) -> dict:
    fit = model.fit
    return {
        "search_mode": search_mode,
        "approximate": search_mode == "greedy_forward",
        "terms": [format_term(t, source_labels) for t in model.terms],
        "term_keys": [canonical_key(t) for t in model.terms],
        "term_labels": list(fit.term_labels),
        "coefficients": [float(c) for c in fit.coefficients],
        "intercept": float(fit.coefficients[0]),
        "std_errors": [float(s) for s in fit.std_errors],
        "t_stats": [_float_or_none(t) for t in fit.t_stats],
        "p_values": [_float_or_none(p) for p in fit.p_values],
        "p_values_display": [format_p_value(float(p)) for p in fit.p_values],
        "vifs": [float(v) for v in fit.vifs],
        "r_squared": float(fit.r_squared),
        "r_squared_adj": float(fit.r_squared_adj),
        "rmse": float(fit.rmse),
        "objective": float(model.objective),
        "candidates_evaluated": int(model.candidates_evaluated),
        "feasible_candidates": int(model.feasible_candidates),
        "best_by_size": {str(k): float(v) for k, v in sorted(model.best_by_size.items())},
        "n_obs": int(fit.n_obs),
    }


def _screening_section(report, rule) -> dict:
    return {
        "delta_mode": rule.mode,
        "delta_value": float(rule.value),
        "delta_effective": float(report.delta_effective),
        "max_abs_corr": float(report.max_abs_corr),
        "varsigma": float(report.varsigma),
        "kept": [canonical_key(t) for t in report.kept],
        "dropped_unimportant": report.dropped_unimportant,
        "dropped_redundant": report.dropped_redundant,
    }


_encode_str = json.encoder.encode_basestring_ascii
_CHUNK_RECORDS = 2048  # records, or json texts, per write; bounds the writer's memory
_ROW_SCALARS = {str: _encode_str, int: int.__repr__, float: float.__repr__}


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, where a
    ``Records`` is the list of dicts it stands for and a ``RunReport`` its fields."""
    return "".join(_texts(obj))


def write_json(obj, fh) -> None:
    """Write ``json_text(obj)`` and a newline to ``fh``, a chunk at a time."""
    for text in _texts(obj, "\n"):
        fh.write(text)


def _texts(obj, end: str = ""):
    """``json_text(obj) + end`` in chunks, written by ``json``'s encoder but for the
    records of each ``Records`` that ``_rows_text`` passes, which ``_row_chunks`` writes.

    The encoder hands such a ``Records`` to ``default``, which keeps its columns
    and returns None; the encoder's very next text, that None's "null", is
    replaced by the records.  The encoder's texts are joined once per ``_CHUNK_RECORDS``.
    """
    found = []

    def default(o):
        if isinstance(o, RunReport):
            return {f.name: getattr(o, f.name) for f in fields(o)}
        if not isinstance(o, Records):
            return json.JSONEncoder.default(encoder, o)  # raises json's own TypeError
        checked = _rows_text(o)
        if checked is None:
            return list(o)
        found.append(checked)
        return None

    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=default)
    out, nl = [], "\n"
    for text in encoder.iterencode(obj):
        if not found:
            out.append(text)
        if found or len(out) == _CHUNK_RECORDS:
            head = "".join(out)
            _, newline, line = head.rpartition("\n")  # the last line's indent starts a record list
            nl = newline + line[:len(line) - len(line.lstrip(" "))] if newline else nl
            out = []
            yield head
            if found:
                yield from _row_chunks(*found.pop(), nl)
    out.append(end)
    yield "".join(out)


def _rows_text(records: Records):
    """``_row_chunks``' keys, columns and writes for a non-empty ``Records`` whose every
    field holds all strs, all ints, or finite floats and Nones; else None."""
    writes = []
    for column in records.columns:
        kinds = set(map(type, column))
        if kinds <= {float, type(None)} and type(None) in kinds:
            # None, written null, stands for an undefined float such as a
            # non-finite |corr|; filter drops it (and zeros) from the check.
            if not all(map(math.isfinite, filter(None, column))):
                return None
            write = None
        else:
            write = _ROW_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if write is None or (write is float.__repr__ and not all(map(math.isfinite, column))):
                return None
            if write is _encode_str and len(set(column[:64])) <= 16:
                # A column of few distinct strs, such as the reasons, encodes each once.
                write = {v: _encode_str(v) for v in set(column)}.__getitem__
        writes.append(write)
    return [_encode_str(name) + ": " for name in records.names], records.columns, writes


def _row_chunks(keys: list, columns, writes: list, nl: str):
    """A list of records, after a line that ``nl`` starts, in texts of ``_CHUNK_RECORDS``
    records; a ``writes`` entry of None writes a float column's Nones as null."""
    count = len(columns[0])
    width = 2 * len(keys)
    item = nl + "  "
    inner = item + "  "
    for start in range(0, count, _CHUNK_RECORDS):
        size = min(_CHUNK_RECORDS, count - start)
        # Record r's field j is parts[r * width + 2 j + 1], after its key; the
        # first key of each record but the list's first also closes the one before.
        parts = [item + "}," + item + "{" + inner + keys[0]] * (size * width + 1)
        for j, (column, write) in enumerate(zip(columns, writes)):
            vals = column[start:start + size]
            if j:
                parts[2 * j::width] = ["," + inner + keys[j]] * size
            texts = map(write, vals) if write else ["null" if v is None else repr(v) for v in vals]
            parts[2 * j + 1::width] = texts
        parts[0] = parts[0] if start else "[" + item + "{" + inner + keys[0]
        parts[-1] = item + "}" + nl + "]" if start + size == count else ""
        yield "".join(parts)


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced, as plain JSON-ready values."""

    schema_version: int
    tool: str
    version: str
    config: dict
    dictionary: dict
    screening: dict
    selected_model: dict
    baseline_model: dict | None
    timing: dict | None

    def to_dict(self) -> dict:
        """Plain values for ``json.dumps``: each ``Records`` becomes its list of dicts."""
        screening = {k: list(v) if isinstance(v, Records) else v for k, v in self.screening.items()}
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"screening": screening}

    def to_json(self) -> str:
        return "".join(_texts(self, "\n"))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _write_files(files, out_dir="") -> None:
    """Write every (name, content) of ``files`` in ``out_dir`` whole, or leave each as it was.

    A str content is written as it is, and any other by ``write_json``; each
    goes to ``name + ".tmp"`` in turn, and once the last is whole, each is
    moved to its name.  A write that fails removes every ``.tmp``.
    """
    paths = []
    try:
        for name, content in files:
            paths.append(os.path.join(out_dir, name))
            with open(f"{paths[-1]}.tmp", "w", newline="", encoding="ascii") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    write_json(content, fh)
        for path in paths:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in paths:
            with suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")
        raise


def _companion_csvs(tag: str, observed, observed_texts: list, fitted):
    """One model's residual and Bland-Altman CSVs, as (name, text) pairs.

    ``observed_texts`` are ``observed``'s reprs.  The difference
    fitted - observed is the residual observed - fitted negated exactly
    (rounding to nearest is symmetric), so both write the same magnitude
    texts after their own sign bit, which signs zeros as computed.
    """
    _as_finite_vector(fitted, "fitted")  # a NaN or inf fitted value raises NonFinite
    signed = (",", ",-").__getitem__  # a separator, then the sign of the value after it
    residual = observed - fitted
    magnitudes = list(map(float.__repr__, np.abs(residual).tolist()))
    parts = ["", ",", "", "", "", "\n"] * len(magnitudes)
    parts[0::6] = observed_texts
    parts[2::6] = map(float.__repr__, fitted.tolist())
    parts[3::6] = map(signed, np.signbit(residual).tolist())
    parts[4::6] = magnitudes
    yield f"residuals_{tag}.csv", "observed,fitted,residual\n" + "".join(parts)
    parts = ["", "", "", "\n"] * len(magnitudes)
    parts[0::4] = map(float.__repr__, (0.5 * (fitted + observed)).tolist())
    parts[1::4] = map(signed, np.signbit(fitted - observed).tolist())
    parts[2::4] = magnitudes
    yield f"bland_altman_{tag}.csv", "mean,difference\n" + "".join(parts)


def run_pipeline(
    dataset: Dataset,
    cfg: SelectionConfig | None = None,
    with_baseline: bool = False,
    out_dir=None,
    stable: bool = False,
) -> RunReport:
    """Dictionary, screening, subset search, and (optionally) the baseline.

    Parameters
    ----------
    dataset : Dataset
    cfg : SelectionConfig
        Defaults used when omitted.
    with_baseline : bool
        Also run the raw-column best-subset search for comparison.
    out_dir : path-like, optional
        When given, write ``report.json`` plus residual and Bland-Altman
        CSVs for each fitted model into this directory.
    stable : bool
        Omit the timing block so byte-identical runs compare equal.
    """
    if cfg is None:
        cfg = SelectionConfig()
    timing = {}

    start = time.perf_counter()
    with _stage("dictionary", timing):
        z = build_dictionary(dataset, cfg.alpha, cfg.mixture_m)
        if len(z) == 0:
            count = z.census.candidate_terms
            raise EmptyMatrix(f"the dictionary kept no term: all {count} candidates are constant")
    with _stage("screening", timing):
        zr, screening_report = screen(z, dataset.response, cfg.importance, cfg.varsigma)
    with _stage("selection", timing):
        if cfg.search_mode == "greedy_forward":
            model = greedy_forward_search(zr, dataset.response, cfg)
        else:
            model = best_subset_search(zr, dataset.response, cfg)
    baseline = None
    if with_baseline:
        with _stage("baseline", timing):
            baseline = baseline_best_subset(z, dataset.response, cfg)
    timing["total_s"] = time.perf_counter() - start

    report = RunReport(
        schema_version=SCHEMA_VERSION,
        tool=TOOL_NAME,
        version=TOOL_VERSION,
        config=asdict(cfg) | {
            "with_baseline": bool(with_baseline),
            "n": dataset.n,
            "variable_names": list(dataset.variable_names),
            "response_name": dataset.response_name,
        },
        dictionary=z.census.to_dict(),
        screening=_screening_section(screening_report, cfg.importance),
        selected_model=_model_section(model, dataset.variable_names, cfg.search_mode),
        baseline_model=(
            _model_section(baseline, dataset.variable_names, "exhaustive") if baseline else None
        ),
        timing=None if stable else {k: float(v) for k, v in timing.items()},
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        y = dataset.response
        texts = list(map(float.__repr__, y.tolist()))
        models = (("parseal", model), ("baseline", baseline))
        csvs = [_companion_csvs(tag, y, texts, y - m.fit.residuals) for tag, m in models if m]
        _write_files(itertools.chain([(REPORT_FILE, report)], *csvs), out_dir)

    return report
