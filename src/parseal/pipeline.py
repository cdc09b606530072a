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
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dictionary import build_dictionary, canonical_key, format_term
from .errors import ParsealError
from .screening import screen
from .selection import (
    SelectedModel,
    SelectionConfig,
    baseline_best_subset,
    best_subset_search,
    greedy_forward_search,
)
from .stats import bland_altman, format_p_value

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
        "t_stats": [float(t) for t in fit.t_stats],
        "p_values": [float(p) for p in fit.p_values],
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
    key = canonical_key
    return {
        "delta_mode": rule.mode,
        "delta_value": float(rule.value),
        "delta_effective": float(report.delta_effective),
        "max_abs_corr": float(report.max_abs_corr),
        "varsigma": float(report.varsigma),
        "kept": [key(t) for t in report.kept],
        "dropped_unimportant": [
            {"term": key(d.term), "abs_corr": _float_or_none(d.abs_corr), "reason": d.reason}
            for d in report.dropped_unimportant
        ],
        "dropped_redundant": [
            {"term": key(d.term), "winner": key(d.winner), "abs_corr": float(d.abs_corr)}
            for d in report.dropped_redundant
        ],
    }


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
        return {
            "schema_version": self.schema_version,
            "tool": self.tool,
            "version": self.version,
            "config": self.config,
            "dictionary": self.dictionary,
            "screening": self.screening,
            "selected_model": self.selected_model,
            "baseline_model": self.baseline_model,
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            schema_version=data["schema_version"],
            tool=data["tool"],
            version=data["version"],
            config=data["config"],
            dictionary=data["dictionary"],
            screening=data["screening"],
            selected_model=data["selected_model"],
            baseline_model=data["baseline_model"],
            timing=data["timing"],
        )


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _residuals_rows(observed: np.ndarray, residuals: np.ndarray):
    # Emit fitted once, then re-derive the residual from the emitted value so
    # observed - fitted == residual holds exactly in the file.
    fitted = observed - residuals
    rows = ["observed,fitted,residual"]
    for o, f in zip(observed, fitted):
        o = float(o)
        f = float(f)
        rows.append(f"{o!r},{f!r},{(o - f)!r}")
    return "\n".join(rows) + "\n"


def _bland_altman_rows(observed: np.ndarray, residuals: np.ndarray):
    fitted = observed - residuals
    rows = ["mean,difference"]
    for mean, diff in bland_altman(observed, fitted).pairs:
        rows.append(f"{float(mean)!r},{float(diff)!r}")
    return "\n".join(rows) + "\n"


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
        for tag, fitted_model in (("parseal", model), ("baseline", baseline)):
            if fitted_model is None:
                continue
            residuals = fitted_model.fit.residuals
            _write_text(
                os.path.join(out_dir, f"residuals_{tag}.csv"),
                _residuals_rows(dataset.response, residuals),
            )
            ba_text = _bland_altman_rows(dataset.response, residuals)
            _write_text(os.path.join(out_dir, f"bland_altman_{tag}.csv"), ba_text)

    return report
