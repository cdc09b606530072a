"""End-to-end pipeline driver and the JSON run report.

All numeric output is serialized through ``repr`` (shortest round-trip form,
at most 17 significant digits), so a report parsed back from disk carries
exactly the values that were computed.  With ``stable=True`` the timing block
is omitted and two runs with the same inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset
from .dictionary import build_dictionary, canonical_key, format_term
from .errors import ParsealError
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
def _stage(name: str):
    """Tag escaping errors with the pipeline stage that raised them."""
    try:
        yield
    except ParsealError as err:
        if err.stage is None:
            err.stage = name
        raise


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
_ROW_SCALARS = {str: _encode_str, int: int.__repr__, float: float.__repr__}


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte.

    It makes the calls that ``json``'s pure-Python encoder makes for each
    value, which an indent forces ``json.dumps`` to use, but writes a list of
    flat records -- a ``Records``, or dicts with the same str keys, such as
    the drop records -- a column at a time: each field's texts, encoded once
    per distinct value in a column of few distinct strs, are put between
    the field literals and joined once.  A ``Records`` is written as the
    list of dicts it stands for.
    """
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    """Append ``obj``'s JSON text to ``out``; ``nl`` is the newline and indent of its own line."""
    inner = nl + "  "
    if isinstance(obj, (list, tuple, Records)) and obj:
        body = _rows_text(obj, inner)
        if body is not None:
            out += "[" + inner, body
        else:
            for k, item in enumerate(obj):
                out.append(("," if k else "[") + inner)
                _write(item, inner, out)
        out.append(nl + "]")
    elif isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            out.append(("," if k else "{") + inner + _encode_str(_key(key)) + ": ")
            _write(value, inner, out)
        out.append(nl + "}")
    else:
        out.append(_text(obj))


def _text(obj) -> str:
    """The JSON text of a scalar, or of an empty list or dict."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple, Records, dict)):
        return "{}" if isinstance(obj, dict) else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as ``json`` coerces it to str."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _rows_text(items, nl: str) -> str | None:
    """The items of a list of flat records, a ``Records`` or dicts with the
    same str keys in the same order, when each field's values are all strs,
    all ints, or finite floats and Nones; else None."""
    if isinstance(items, Records):
        names, columns = items.names, items.columns
    else:
        first = items[0]
        if set(map(type, items)) != {dict} or not first or set(map(type, first)) != {str}:
            return None
        if set(map(tuple, items)) != {tuple(first)}:
            return None
        names = tuple(first)
        columns = [[row[key] for row in items] for key in first]
    count = len(columns[0])
    width = 2 * len(names)
    inner = nl + "  "
    keys = [_encode_str(name) + ": " for name in names]
    # Record r's field j is parts[r * width + 2 j + 1], after its key; the
    # first key of each record but the first also closes the one before.
    parts = [nl + "}," + nl + "{" + inner + keys[0]] * (count * width + 1)
    for j, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds <= {float, type(None)} and type(None) in kinds:
            # None, written null, stands for an undefined float such as a
            # non-finite |corr|; filter drops it (and zeros) from the check.
            if not all(map(math.isfinite, filter(None, column))):
                return None
            texts = ["null" if v is None else float.__repr__(v) for v in column]
        else:
            write = _ROW_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if write is None or (write is float.__repr__ and not all(map(math.isfinite, column))):
                return None
            if write is _encode_str and len(set(column[:64])) <= 16:
                # A column of few distinct strs, such as the reasons, encodes each once.
                write = {v: _encode_str(v) for v in set(column)}.__getitem__
            texts = map(write, column)
        if j:
            parts[2 * j::width] = ["," + inner + keys[j]] * count
        parts[2 * j + 1::width] = texts
    parts[0] = "{" + inner + keys[0]
    parts[-1] = nl + "}"
    return "".join(parts)


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
        return json_text({f.name: getattr(self, f.name) for f in fields(self)}) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(text)


def _write_companion_csvs(out_dir, tag: str, observed, observed_texts: list, fitted) -> None:
    """Write one model's residual and Bland-Altman CSVs.

    ``observed_texts`` are ``observed``'s reprs.  The difference
    fitted - observed is the residual observed - fitted negated exactly
    (rounding to nearest is symmetric), so both write the same magnitude
    texts after their own sign bit, which signs zeros as computed.
    """
    _as_finite_vector(fitted, "fitted")  # raises NonFinite, as bland_altman does
    signed = (",", ",-").__getitem__  # a separator, then the sign of the value after it
    residual = observed - fitted
    magnitudes = list(map(float.__repr__, np.abs(residual).tolist()))
    parts = ["", ",", "", "", "", "\n"] * len(magnitudes)
    parts[0::6] = observed_texts
    parts[2::6] = map(float.__repr__, fitted.tolist())
    parts[3::6] = map(signed, np.signbit(residual).tolist())
    parts[4::6] = magnitudes
    text = "observed,fitted,residual\n" + "".join(parts)
    _write_text(os.path.join(out_dir, f"residuals_{tag}.csv"), text)
    parts = ["", "", "", "\n"] * len(magnitudes)
    parts[0::4] = map(float.__repr__, (0.5 * (fitted + observed)).tolist())
    parts[1::4] = map(signed, np.signbit(fitted - observed).tolist())
    parts[2::4] = magnitudes
    text = "mean,difference\n" + "".join(parts)
    _write_text(os.path.join(out_dir, f"bland_altman_{tag}.csv"), text)


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
    with _stage("dictionary"):
        z = build_dictionary(dataset, cfg.alpha, cfg.mixture_m)
    timing["dictionary_s"] = time.perf_counter() - start

    step = time.perf_counter()
    with _stage("screening"):
        zr, screening_report = screen(z, dataset.response, cfg.importance, cfg.varsigma)
    timing["screening_s"] = time.perf_counter() - step

    step = time.perf_counter()
    with _stage("selection"):
        if cfg.search_mode == "greedy_forward":
            model = greedy_forward_search(zr, dataset.response, cfg)
        else:
            model = best_subset_search(zr, dataset.response, cfg)
    timing["selection_s"] = time.perf_counter() - step

    baseline = None
    if with_baseline:
        step = time.perf_counter()
        with _stage("baseline"):
            baseline = baseline_best_subset(dataset, dataset.response, cfg)
        timing["baseline_s"] = time.perf_counter() - step
    timing["total_s"] = time.perf_counter() - start

    config_echo = {
        "alpha": cfg.alpha,
        "mixture_m": cfg.mixture_m,
        "importance": {"mode": cfg.importance.mode, "value": float(cfg.importance.value)},
        "varsigma": float(cfg.varsigma),
        "vif_cap": float(cfg.vif_cap),
        "max_subset_size": cfg.max_subset_size,
        "search_budget": cfg.search_budget,
        "search_mode": cfg.search_mode,
        "seed": cfg.seed,
        "with_baseline": bool(with_baseline),
        "n": dataset.n,
        "variable_names": list(dataset.variable_names),
        "response_name": dataset.response_name,
    }

    report = RunReport(
        schema_version=SCHEMA_VERSION,
        tool=TOOL_NAME,
        version=TOOL_VERSION,
        config=config_echo,
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
        _write_text(os.path.join(out_dir, REPORT_FILE), report.to_json())
        observed = dataset.response
        texts = list(map(float.__repr__, observed.tolist()))
        for tag, fitted_model in (("parseal", model), ("baseline", baseline)):
            if fitted_model is not None:
                fitted = observed - fitted_model.fit.residuals
                _write_companion_csvs(out_dir, tag, observed, texts, fitted)

    return report
