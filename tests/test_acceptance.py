"""Acceptance gate: the eight release criteria, one pass/fail line each.

Each test prints ``A<n>: PASS/FAIL`` straight to the terminal (bypassing
pytest's capture) before asserting, so a plain ``pytest tests/test_acceptance.py``
run always shows the per-criterion verdicts.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from parseal import (
    SelectionConfig,
    build_dictionary,
    p_value_two_sided,
    run_pipeline,
    synth_example1,
    synth_example2,
    vif,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}", file=sys.__stdout__, flush=True)


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


@pytest.fixture(scope="session")
def example1_run():
    ds = synth_example1(1000, seed=0)
    start = time.perf_counter()
    report = run_pipeline(ds, SelectionConfig(varsigma=0.5), with_baseline=True)
    elapsed = time.perf_counter() - start
    return ds, report, elapsed


@pytest.fixture(scope="session")
def example2_run():
    ds = synth_example2(1000, seed=0)
    report = run_pipeline(ds, SelectionConfig(), with_baseline=True)
    return ds, report


def test_a1_example1_recovers_the_product_term(example1_run):
    ds, report, elapsed = example1_run
    model = report.selected_model
    terms_ok = model["term_keys"] == ["v0^1/1*v2^1/1"]
    intercept = model["intercept"]
    slope = model["coefficients"][1]
    coef_ok = abs(intercept - 120.0) <= 1e-6 and abs(slope - 80.0) <= 1e-6
    fitted_max_err = abs(model["rmse"])  # residual scale summary
    residual_bound = 1e-7 * float(np.max(np.abs(ds.response)))
    residuals = ds.response - (intercept + slope * ds.columns[:, 0] * ds.columns[:, 2])
    resid_ok = float(np.max(np.abs(residuals))) <= residual_bound
    time_ok = elapsed <= 60.0
    ok = terms_ok and coef_ok and resid_ok and time_ok
    _verdict(
        "A1",
        ok,
        f"terms={model['terms']}, intercept={intercept:.9f}, slope={slope:.9f}, "
        f"max|resid|<= {residual_bound:.3g}: {resid_ok}, {elapsed:.1f}s (rmse {fitted_max_err:.2e})",
    )
    assert terms_ok, model["term_keys"]
    assert coef_ok, (intercept, slope)
    assert resid_ok
    assert time_ok, f"pipeline took {elapsed:.1f}s"


def test_a2_example2_recovers_the_reciprocal_and_collapses_twins(example2_run):
    ds, report = example2_run
    model = report.selected_model
    terms_ok = model["term_keys"] == ["v1^-1/1"] and model["terms"] == ["1/x2"]
    intercept = model["intercept"]
    slope = model["coefficients"][1]
    coef_ok = abs(intercept - 120.0) <= 1e-6 and abs(slope - 1000.0) <= 1e-6
    residuals = ds.response - (intercept + slope / ds.columns[:, 1])
    resid_ok = float(np.max(np.abs(residuals))) <= 1e-7 * float(np.max(np.abs(ds.response)))

    # x1 and x3 are byte-identical, so swapping v0 <-> v2 in a key names the
    # same evaluated column under a different (canonicalized) key.
    import re

    def swap(key: str) -> str:
        parts = []
        for part in key.replace("v0", "#").replace("v2", "v0").replace("#", "v2").split("*"):
            parts.append((int(re.search(r"v(\d+)", part).group(1)), part))
        return "*".join(p for _, p in sorted(parts))

    kept = set(report.screening["kept"])
    drops = {d["term"]: d["winner"] for d in report.screening["dropped_redundant"]}
    universe = kept | set(drops)
    pairs = {
        tuple(sorted((key, swap(key))))
        for key in universe
        if swap(key) != key and swap(key) in universe
    }
    # at most one survivor per twin pair; a dropped twin loses either to its
    # own kept twin or to the same stronger column as its sibling
    collapse_ok = all(not (a in kept and b in kept) for a, b in pairs)
    winners_ok = True
    for a, b in pairs:
        if a in kept:
            winners_ok = winners_ok and drops[b] == a
        elif b in kept:
            winners_ok = winners_ok and drops[a] == b
        else:
            winners_ok = winners_ok and drops[a] == drops[b]
    evidence_ok = len(pairs) > 0 and winners_ok
    ok = terms_ok and coef_ok and resid_ok and collapse_ok and evidence_ok
    _verdict(
        "A2",
        ok,
        f"terms={model['terms']}, intercept={intercept:.9f}, slope={slope:.9f}, "
        f"max|resid| in bound: {resid_ok}, {len(pairs)} twin pairs, "
        f"<=1 survivor each: {collapse_ok}, winners consistent: {winners_ok}",
    )
    assert terms_ok, model["term_keys"]
    assert coef_ok, (intercept, slope)
    assert resid_ok
    assert collapse_ok
    assert evidence_ok


def test_a3_transformed_fit_beats_raw_baselines(example1_run, example2_run):
    _, report1, _ = example1_run
    _, report2 = example2_run
    gaps = []
    ok = True
    for report in (report1, report2):
        selected = report.selected_model["r_squared_adj"]
        baseline = report.baseline_model["r_squared_adj"]
        gaps.append(selected - baseline)
        ok = ok and (selected >= 1.0 - 1e-9) and (baseline < selected)
    _verdict(
        "A3",
        ok,
        f"adjusted-R^2 margins over the raw-column baseline: "
        f"example1 +{gaps[0]:.3g}, example2 +{gaps[1]:.3g}",
    )
    assert ok, gaps


def _brute_best_subset(columns, y, keys, vif_cap, max_size):
    """Independent exhaustive search: SVD ranks, auxiliary-regression VIFs,
    lstsq fits, identical (size, key) enumeration order and strict tie-break."""
    n = columns.shape[0]
    tss = float(((y - y.mean()) ** 2).sum())
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    best_obj = -math.inf
    best_combo = None
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(order, k):
            sub = columns[:, list(combo)]
            design = np.column_stack([np.ones(n), sub])
            if np.linalg.matrix_rank(design) < design.shape[1]:
                continue
            if k > 1:
                vifs = []
                collinear = False
                for j in range(k):
                    others = np.column_stack([np.ones(n), np.delete(sub, j, axis=1)])
                    target = sub[:, j]
                    beta, *_ = np.linalg.lstsq(others, target, rcond=None)
                    resid = target - others @ beta
                    tss_j = float(((target - target.mean()) ** 2).sum())
                    r2_j = 1.0 - float(resid @ resid) / tss_j
                    if r2_j >= 1.0 - 1e-12:
                        collinear = True
                        break
                    vifs.append(1.0 / (1.0 - r2_j))
                if collinear or max(vifs) >= vif_cap:
                    continue
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            rss = float(((y - design @ beta) ** 2).sum())
            r2 = 1.0 - rss / tss
            adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
            if adj > best_obj:
                best_obj = adj
                best_combo = combo
    return best_combo, best_obj


def test_a4_exhaustive_search_agrees_with_independent_brute_force():
    from fractions import Fraction

    from parseal import Dictionary, Factor, TermExpr, best_subset_search
    from parseal.dictionary import IDENTITY

    mismatches = []
    worst_gap = 0.0
    for seed in range(20):
        rng = philox(600, seed)
        base = rng.normal(size=(50, 6))
        columns = base @ (np.eye(6) + 0.3)
        beta = rng.normal(size=6) * (rng.random(6) > 0.4)
        y = columns @ beta + rng.normal(size=50)
        terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(6))
        z = Dictionary(terms=terms, columns=columns, source_labels=tuple("abcdef"))
        cfg = SelectionConfig(max_subset_size=6)
        model = best_subset_search(z, y, cfg)
        combo, obj = _brute_best_subset(columns, y, z.keys(), cfg.vif_cap, 6)
        got = sorted(t.variables[0] for t in model.terms)
        expected = sorted(combo)
        gap = abs(model.objective - obj)
        worst_gap = max(worst_gap, gap)
        if got != expected or gap > 1e-12:
            mismatches.append((seed, got, expected, gap))
    ok = not mismatches
    _verdict(
        "A4",
        ok,
        f"20 seeded searches match an independent brute force "
        f"(worst objective gap {worst_gap:.2e})",
    )
    assert ok, mismatches


def test_a5_vif_oracle_engineered_value_and_cap(example1_run, example2_run):
    # (i) auxiliary-regression oracle over 20 seeded correlated designs
    worst_rel = 0.0
    for seed in range(20):
        rng = philox(601, seed)
        k = 2 + seed % 4  # design widths 2..5
        x = rng.normal(size=(100, k)) @ (np.eye(k) + 0.4)
        factors = vif(x)
        ones = np.ones((100, 1))
        for j in range(k):
            others = np.hstack([ones, np.delete(x, j, axis=1)])
            target = x[:, j]
            beta, *_ = np.linalg.lstsq(others, target, rcond=None)
            resid = target - others @ beta
            r2 = 1.0 - float(resid @ resid) / float(((target - target.mean()) ** 2).sum())
            oracle = 1.0 / (1.0 - r2)
            worst_rel = max(worst_rel, abs(factors[j] - oracle) / oracle)
    oracle_ok = worst_rel <= 1e-8

    # (ii) engineered pairwise R^2 = 0.9 must give VIF = 10 exactly
    rng = philox(601, 99)
    z1 = rng.normal(size=400)
    e = rng.normal(size=400)
    z1c = (z1 - z1.mean()) / np.linalg.norm(z1 - z1.mean())
    ec = e - e.mean()
    ec -= (ec @ z1c) * z1c
    ec /= np.linalg.norm(ec)
    z2 = math.sqrt(0.9) * z1c + math.sqrt(0.1) * ec
    engineered = vif(np.column_stack([z1c, z2]))
    engineered_ok = bool(np.all(np.abs(engineered - 10.0) <= 1e-6))

    # (iii) every selected model respects the hard cap
    _, report1, _ = example1_run
    _, report2 = example2_run
    cap_ok = all(
        max(section["vifs"]) < 10.0
        for report in (report1, report2)
        for section in (report.selected_model, report.baseline_model)
    )
    ok = oracle_ok and engineered_ok and cap_ok
    _verdict(
        "A5",
        ok,
        f"aux-regression match {worst_rel:.1e} rel, engineered pair -> "
        f"{engineered[0]:.8f}, every selected model under the cap: {cap_ok}",
    )
    assert ok


def _t_density(s, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + s * s / df) ** (-(df + 1) / 2)


def test_a6_p_values_match_quadrature_and_limits():
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        for df in (1, 5, 10, 100):
            tail, _ = integrate.quad(_t_density, t, np.inf, args=(df,))
            worst = max(worst, abs(p_value_two_sided(t, df) - 2.0 * tail))
    grid_ok = worst <= 1e-8
    zero_ok = p_value_two_sided(0.0, 12) == 1.0
    gauss_worst = max(
        abs(p_value_two_sided(t, 10**6) - math.erfc(t / math.sqrt(2.0)))
        for t in (0.5, 1.0, 2.0, 5.0)
    )
    gauss_ok = gauss_worst <= 1e-6
    ok = grid_ok and zero_ok and gauss_ok
    _verdict(
        "A6",
        ok,
        f"quadrature grid gap {worst:.1e}, p(0)=1: {zero_ok}, "
        f"df=1e6 vs Gaussian gap {gauss_worst:.1e}",
    )
    assert ok


def test_a7_dictionary_census_matches_independent_enumeration():
    ds = synth_example1(1000, seed=0)
    d = build_dictionary(ds, alpha=2, mixture=2)
    census_ok = d.census.candidate_terms == 330 and d.census.candidates_by_mixture == {
        1: 30,
        2: 300,
    }

    # independent enumeration straight from the documented grammar
    from fractions import Fraction

    def menu(col):
        pairs = []
        bounded = float(np.min(np.abs(col))) > 1e-12
        positive = float(np.min(col)) > 0.0
        for k in (1, 2):
            pairs.append(("identity", Fraction(k)))
            if bounded:
                pairs.append(("identity", Fraction(-k)))
        if positive:
            pairs.append(("identity", Fraction(1, 2)))
            if bounded:
                pairs.append(("identity", Fraction(-1, 2)))
            log_bounded = float(np.min(np.abs(np.log(col)))) > 1e-12
            for k in (1, 2):
                pairs.append(("log", Fraction(k)))
                if log_bounded:
                    pairs.append(("log", Fraction(-k)))
        return pairs

    menus = [menu(ds.columns[:, i]) for i in range(3)]
    expected_keys = set()
    for m in (1, 2):
        for combo in itertools.combinations(range(3), m):
            for choice in itertools.product(*(menus[i] for i in combo)):
                parts = []
                for idx, (transform, e) in zip(combo, choice):
                    if transform == "log":
                        parts.append(f"log(v{idx})^{e.numerator}")
                    else:
                        parts.append(f"v{idx}^{e.numerator}/{e.denominator}")
                expected_keys.add("*".join(parts))
    built_keys = set(d.keys()) | {k for k, _ in d.census.excluded_terms}
    enum_ok = built_keys == expected_keys and len(expected_keys) == 330
    ok = census_ok and enum_ok
    _verdict(
        "A7",
        ok,
        f"census 330 = 30 + 300: {census_ok}, "
        f"key set equals the independent enumeration: {enum_ok}",
    )
    assert ok


def test_a8_reports_are_byte_identical_across_fresh_processes(tmp_path):
    csv_path = tmp_path / "ex1.csv"
    synth = subprocess.run(
        [
            sys.executable,
            "-m",
            "parseal.cli",
            "synth",
            "--example",
            "1",
            "--n",
            "400",
            "--seed",
            "0",
            "--out",
            str(csv_path),
        ],
        capture_output=True,
        text=True,
    )
    assert synth.returncode == 0, synth.stderr
    digests = []
    for hash_seed in ("0", "12345"):
        out_dir = tmp_path / f"hashseed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [
                sys.executable,
                "-m",
                "parseal.cli",
                "fit",
                "--input",
                str(csv_path),
                "--response",
                "y",
                "--varsigma",
                "0.5",
                "--baseline",
                "--stable-output",
                "--out-dir",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert run.returncode == 0, run.stderr
        digests.append(
            {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
        )
    same_files = sorted(digests[0]) == sorted(digests[1])
    identical = same_files and all(digests[0][n] == digests[1][n] for n in digests[0])
    report = json.loads(digests[0]["report.json"].decode())
    sane = report["selected_model"]["term_keys"] == ["v0^1/1*v2^1/1"]
    ok = identical and sane
    _verdict(
        "A8",
        ok,
        f"{len(digests[0])} output files byte-identical for PYTHONHASHSEED=0 vs 12345: {identical}",
    )
    assert ok
