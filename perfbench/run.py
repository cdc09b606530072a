#!/usr/bin/env python3
"""parseal benchmark: closed-loop ``parseal fit`` runs over seeded workloads.

    python3 perfbench/run.py --workload paper_examples --seed 0 --seconds 20 --trace 0

One process is the only client.  It writes its workload's inputs to CSV, then
runs fits one after another through the user entry point,
``parseal.cli.main(["fit", ..., "--stable-output", "--out-dir", ...])``, from
the CSV on disk to the report and CSVs on disk, until ``--seconds`` have
passed.  Every fit's output is checked.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` a separate traced
loop gives the per-layer metrics.  perfbench/README.md explains both.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# One BLAS thread and one scoring thread, set before anything loads numpy.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PARSEAL_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import outputs  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, fit_argv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_PROBES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import parseal; "
    "print(repr(time.perf_counter() - t))"
)

# (module attribute as its caller looks it up, span name)
SPANS = (
    ("parseal.cli.load_csv", "load_csv"),
    ("parseal.cli.run_pipeline", "run_pipeline"),
    ("parseal.pipeline.build_dictionary", "build_dictionary"),
    ("parseal.screening.importance_filter", "importance_filter"),
    ("parseal.screening.redundancy_filter", "redundancy_filter"),
    ("parseal.pipeline.best_subset_search", "best_subset_search"),
    ("parseal.pipeline.greedy_forward_search", "greedy_forward_search"),
    ("parseal.pipeline.baseline_best_subset", "baseline_best_subset"),
    ("parseal.selection.ols_fit", "ols_fit"),
)
COUNTERS = (
    ("parseal.screening.pearson_correlation", "corr"),
    ("parseal.selection.qr_factorize", "qr"),
    ("parseal.selection.vif", "vif"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program to measure)."""


def load_parseal():
    """Import parseal from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "parseal" / "__init__.py").is_file():
        raise SetupError(f"no parseal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parseal
    import parseal.cli

    if not Path(parseal.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"parseal was imported from {parseal.__file__}, not {SRC}")
    return parseal


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "commit": git_commit(),
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to ``import parseal``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def prepare(parseal, workload, seed: int, run_dir: Path) -> list:
    """Generate the run's dataset pool and write each dataset to CSV."""
    inputs = []
    for case in workload.cases(seed):
        dataset = case.make(parseal)
        path = run_dir / f"{case.name}.csv"
        parseal.write_csv(dataset, path)
        inputs.append((case, str(path), dataset.response))
    return inputs


def run_fit(main, argv):
    """Exit code of one CLI call, or the name of the exception it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except (Exception, SystemExit) as err:  # a crashing fit is a failed fit
        traceback.print_exc(file=sys.stderr)
        return type(err).__name__


def fresh_dir(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


class Checker:
    """Checks each fit's output; compares with the golden record where one exists."""

    def __init__(self, workload_name: str):
        golden_path = GOLDEN_DIR / f"{workload_name}.json"
        golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
        self.list_keys = golden.get("list_keys", {})
        self.golden = golden.get("datasets", {})
        self.known_fields = {p for rec in self.golden.values() for p in rec["fields"]}
        self.known_files = {f for rec in self.golden.values() for f in rec["files"]}
        self.first = {}  # case name -> digest of its first output in this run
        self.notes = []

    def check(self, case, response, out_dir: str, drop_timing: bool = False) -> tuple:
        """(problems, bytes written, report) for the fit that wrote ``out_dir``.

        ``drop_timing`` checks a report written without ``--stable-output``
        as if its timing block were absent; the returned report keeps it.
        """
        try:
            report, files, written = outputs.read_outputs(out_dir)
        except (OSError, ValueError) as err:
            return [f"cannot read the outputs: {err}"], 0, None
        checked = dict(report, timing=None) if drop_timing else report
        try:
            problems = outputs.invariants(case, response, checked, files)
            current = outputs.record(checked, files, self.list_keys)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as err:
            return [f"malformed output: {type(err).__name__}: {err}"], written, None
        digest = outputs.digest(current, self.known_fields or None, self.known_files or None)
        if case.name in self.golden:
            problems += outputs.compare(self.golden[case.name], current)
        if case.name not in self.first:
            self.first[case.name] = digest
            golden = "match" if not problems else "mismatch"
            if case.name not in self.golden:
                golden = "none"
            self.notes.append(f"output {case.name} golden={golden} digest={digest}")
        elif self.first[case.name] != digest:
            problems.append("output differs from this run's first fit of the same input")
        return problems, written, report


def tail(times: list) -> tuple | None:
    """(seconds, percentile) at the highest percentile with >= 10 fits beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_untraced(parseal, workload, inputs, run_dir: Path, seconds: float, lines: list):
    checker = Checker(workload.name)
    out_dir = run_dir / "out"
    times, setup, failed, attempted, spent = [], [], 0, 0, 0.0
    begin = time.perf_counter()
    deadline = begin + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        # The import probes are spread over the run, between fits, so that
        # setup_s samples the same stretch of machine time as the fits do.
        # The window is extended by the time they take.
        while len(setup) < SETUP_PROBES and time.perf_counter() >= (
            begin + len(setup) * seconds / SETUP_PROBES
        ):
            probe_start = time.perf_counter()
            setup.append(import_seconds())
            probe_time = time.perf_counter() - probe_start
            begin += probe_time
            deadline += probe_time
        case, csv_path, response = inputs[attempted % len(inputs)]
        argv = fit_argv(case, csv_path, fresh_dir(out_dir))
        start = time.perf_counter()
        code = run_fit(parseal.cli.main, argv)
        elapsed = time.perf_counter() - start
        attempted += 1
        spent += elapsed
        times.append(elapsed)
        problems = [f"exit code {code}"] if code != 0 else checker.check(case, response, str(out_dir))[0]
        if problems:
            failed += 1
            lines.append(f"FAILED fit {attempted} ({case.name}): {'; '.join(problems)}")
    while len(setup) < SETUP_PROBES:
        setup.append(import_seconds())
    lines.extend(checker.notes)

    verified = attempted - failed
    metrics = {
        "fits_per_s": (verified / spent, "1/s"),
        "fit_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    t = tail(times)
    if t is None:
        lines.append(f"metric fit_s_tail n/a s (only {len(times)} fits; needs 11)")
    else:
        lines.append(f"metric fit_s_tail {t[0]:.6g} s (p{t[1]:.1f} of {len(times)} fits)")
    lines.append(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} fits)")
    if len(times) >= 2:
        q1, _, q3 = statistics.quantiles(times, n=4)
        lines.append(f"fit seconds q1 {q1:.6g} q3 {q3:.6g} min {min(times):.6g} max {max(times):.6g}")
    lines.append("setup probes " + " ".join(f"{s:.4f}" for s in setup))
    return metrics, attempted, failed


def install(tracer: Tracer) -> None:
    for target, name in SPANS:
        tracer.wrap_span(target, name)
    for target, name in COUNTERS:
        tracer.wrap_counter(target, name)


def run_traced(parseal, workload, inputs, run_dir: Path, seconds: float, lines: list):
    """Pairs of untraced and traced fits on the same input.

    Which of the pair runs first alternates, also between passes over the
    pool, so each input is traced first as often as second.

    Both use the same arguments without ``--stable-output``, so the report
    carries ``timing.total_s`` for ``pipeline.report_s``.
    """
    tracer = Tracer()
    checker = Checker(workload.name)
    out_dir = run_dir / "out"
    untraced, fits, failed, attempted = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        case, csv_path, response = inputs[pair % len(inputs)]
        flip = (pair + pair // len(inputs)) % 2
        for traced in ((True, False) if flip else (False, True)):
            argv = fit_argv(case, csv_path, fresh_dir(out_dir), stable=False)
            attempted += 1
            if traced:
                tracer.fit = attempted
                install(tracer)
                try:
                    code = tracer.call("fit", run_fit, parseal.cli.main, argv)
                finally:
                    tracer.uninstall()
            else:
                start = time.perf_counter()
                code = run_fit(parseal.cli.main, argv)
                elapsed = time.perf_counter() - start
            problems, written, report = [f"exit code {code}"], 0, None
            if code == 0:
                problems, written, report = checker.check(case, response, str(out_dir), True)
            if problems:
                failed += 1
                lines.append(f"FAILED fit {attempted} ({case.name}): {'; '.join(problems)}")
            elif traced:
                fits.append((attempted, report, written, len(response)))
            else:
                untraced.append(elapsed)
        pair += 1
    lines.extend(checker.notes)

    case, csv_path, _ = inputs[0]
    dataset = parseal.load_csv(csv_path, "y")
    tracemalloc.start()
    try:
        parseal.build_dictionary(dataset, case.alpha, case.mixture)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = layer_metrics(tracer, fits, untraced, peak_alloc, lines)
    return metrics, attempted, failed, tracer


def layer_metrics(tracer: Tracer, fits: list, untraced: list, peak_alloc: int, lines: list):
    """Per-layer metrics, per verified traced fit unless named a ratio or unit cost."""
    good = {fit_id for fit_id, *_ in fits}
    spans = [s for s in tracer.spans if s.fit in good]
    selfs = self_times(spans)
    count = max(len(fits), 1)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def self_total(*names):
        return sum(selfs[s.id] for s in spans if s.name in names)

    def present(*names):
        return all(any(s.name == n for s in spans) for n in names)

    reports = [r for _, r, _, _ in fits]
    terms = sum(r["dictionary"]["candidate_terms"] for r in reports)
    kept = sum(r["dictionary"]["kept_terms"] for r in reports)
    screened = sum(len(r["screening"]["kept"]) for r in reports)
    candidates = sum(r["selected_model"]["candidates_evaluated"] for r in reports)
    feasible = sum(r["selected_model"]["feasible_candidates"] for r in reports)
    matrix = sum(r["dictionary"]["kept_terms"] * n * 8 for _, r, _, n in fits)
    fit_s = total("fit")
    search = ("best_subset_search", "greedy_forward_search")
    corr, qr, vif = (tracer.counters.get(k) for k in ("corr", "qr", "vif"))

    metrics = {}

    def put(name, unit, available, value):
        if available and fits:
            metrics[name] = (value(), unit)
        else:
            lines.append(f"metric {name} absent")

    totals = [(r.get("timing") or {}).get("total_s") for r in reports]
    totals = [t for t in totals if t is not None]
    put("data.load_csv_s", "s", present("load_csv"), lambda: total("load_csv") / count)
    put("pipeline.report_s", "s", present("run_pipeline") and len(totals) == len(fits),
        lambda: (total("run_pipeline") - sum(totals)) / count)
    put("pipeline.bytes_written", "bytes", True, lambda: sum(w for _, _, w, _ in fits) / count)
    put("dictionary.build_s", "s", present("build_dictionary"),
        lambda: total("build_dictionary") / count)
    put("dictionary.terms", "count", True, lambda: terms / count)
    put("dictionary.us_per_term", "us", present("build_dictionary"),
        lambda: 1e6 * total("build_dictionary") / terms)
    put("dictionary.matrix_bytes", "bytes", True, lambda: matrix / count)
    put("dictionary.peak_alloc_bytes", "bytes", True, lambda: float(peak_alloc))
    put("screening.importance_s", "s", present("importance_filter"),
        lambda: total("importance_filter") / count)
    put("screening.redundancy_s", "s", present("redundancy_filter"),
        lambda: total("redundancy_filter") / count)
    put("screening.corr_calls", "count", corr is not None, lambda: corr[0] / count)
    put("screening.us_per_corr", "us",
        corr is not None and present("importance_filter", "redundancy_filter"),
        lambda: 1e6 * total("importance_filter", "redundancy_filter") / corr[0])
    put("screening.keep_ratio", "ratio", True, lambda: screened / kept)
    put("selection.search_s", "s", any(present(n) for n in search), lambda: total(*search) / count)
    put("selection.candidates", "count", True, lambda: candidates / count)
    put("selection.feasible_ratio", "ratio", True, lambda: feasible / candidates)
    put("selection.us_per_candidate", "us", any(present(n) for n in search),
        lambda: 1e6 * total(*search) / candidates)
    put("selection.baseline_s", "s", True, lambda: total("baseline_best_subset") / count)
    put("linalg.qr_calls", "count", qr is not None, lambda: qr[0] / count)
    put("linalg.qr_s", "s", qr is not None, lambda: qr[1] / count)
    put("stats.vif_calls", "count", vif is not None, lambda: vif[0] / count)
    put("stats.vif_s", "s", vif is not None, lambda: vif[1] / count)
    put("stats.ols_fit_s", "s", present("ols_fit"), lambda: total("ols_fit") / count)
    put("trace.overhead_s", "s", bool(untraced),
        lambda: statistics.median(s.duration for s in spans if s.name == "fit")
        - statistics.median(untraced))
    for target in sorted(tracer.absent):
        lines.append(f"trace {target} absent")

    if fits and fit_s > 0:
        shares = (
            ("selection_self", self_total(*search, "baseline_best_subset"), "search_heavy", 0.75),
            ("dictionary_screening_self",
             self_total("build_dictionary", "importance_filter", "redundancy_filter"),
             "dict_heavy", 0.75),
            ("load_csv_report", total("load_csv") + total("run_pipeline") - sum(totals),
             "paper_examples", 0.15),
        )
        for name, seconds, where, floor in shares:
            lines.append(
                f"split {name} {seconds / fit_s:.4f} of {fit_s:.4f} s traced fit time "
                f"over {len(fits)} fits (expected >= {floor} on {where})"
            )
    return metrics


def write_spans(tracer: Tracer, name: str, seed: int, env: dict) -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{name}-s{seed}.json"
    selfs = self_times(tracer.spans)
    spans = [
        {
            "id": s.id, "name": s.name, "start": s.start, "end": s.end,
            "parent": s.parent, "fit": s.fit, "self_s": selfs[s.id],
        }
        for s in tracer.spans
    ]
    counters = {k: {"calls": v[0], "seconds": v[1]} for k, v in tracer.counters.items()}
    path.write_text(json.dumps({"env": env, "spans": spans, "counters": counters}, indent=1))
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        parseal = load_parseal()
    except (SetupError, ImportError) as err:
        print(f"perfbench: cannot load parseal: {err}", file=sys.stderr)
        return 2
    env = environment()
    lines = [
        f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        "env " + json.dumps(env, sort_keys=True),
    ]
    run_dir = WORK_DIR / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        fresh_dir(run_dir)
        inputs = prepare(parseal, workload, args.seed, run_dir)
        # One small fit so lazy imports and first-call set-up happen untimed.
        warm = WORKLOADS["paper_examples"].cases(0)[0]
        warm_csv = run_dir / "warm-up.csv"
        parseal.write_csv(parseal.synth_example1(n=100, seed=0), warm_csv)
        run_fit(parseal.cli.main, fit_argv(warm, str(warm_csv), fresh_dir(run_dir / "out")))
        if args.trace:
            metrics, attempted, failed, tracer = run_traced(
                parseal, workload, inputs, run_dir, args.seconds, lines
            )
            lines.append(f"spans written to {write_spans(tracer, workload.name, args.seed, env)}")
        else:
            metrics, attempted, failed = run_untraced(
                parseal, workload, inputs, run_dir, args.seconds, lines
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        for name, (value, unit) in metrics.items():
            lines.append(f"metric {name} {value:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
