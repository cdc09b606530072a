"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import outputs  # noqa: E402
import parseal  # noqa: E402
import parseal.cli  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, fit_argv  # noqa: E402


def _csv_bytes(case, path: Path) -> bytes:
    parseal.write_csv(case.make(parseal), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_csv_bytes(name, tmp_path):
    first = WORKLOADS[name].cases(7)
    again = WORKLOADS[name].cases(7)
    other = WORKLOADS[name].cases(8)
    for i, (a, b, c) in enumerate(zip(first, again, other)):
        bytes_a = _csv_bytes(a, tmp_path / f"a{i}.csv")
        assert bytes_a == _csv_bytes(b, tmp_path / f"b{i}.csv")
        assert bytes_a != _csv_bytes(c, tmp_path / f"c{i}.csv")


def test_pool_seeds_do_not_overlap_between_run_seeds():
    for workload in WORKLOADS.values():
        seeds_0 = {c.dataset_seed for c in workload.cases(0)}
        seeds_1 = {c.dataset_seed for c in workload.cases(1)}
        assert seeds_0 and not seeds_0 & seeds_1


@pytest.fixture(scope="module")
def small_fit(tmp_path_factory):
    """One real fit of a small example-1 dataset: (case, response, out_dir)."""
    root = tmp_path_factory.mktemp("fit")
    case = WORKLOADS["paper_examples"].cases(0)[0]
    dataset = parseal.synth_example1(n=200, seed=3)
    parseal.write_csv(dataset, root / "in.csv")
    out_dir = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = parseal.cli.main(fit_argv(case, str(root / "in.csv"), str(out_dir)))
    assert code == 0
    return case, dataset.response, str(out_dir)


def test_output_check_accepts_the_same_output(small_fit):
    case, response, out_dir = small_fit
    report, files, written = outputs.read_outputs(out_dir)
    assert written > 0
    assert outputs.invariants(case, response, report, files) == []
    keys = outputs.object_list_keys(report)
    golden = outputs.record(report, files, keys)
    assert outputs.compare(golden, outputs.record(report, files, keys)) == []


def test_output_check_rejects_a_one_ulp_coefficient_change(small_fit):
    _, _, out_dir = small_fit
    report, files, _ = outputs.read_outputs(out_dir)
    keys = outputs.object_list_keys(report)
    golden = outputs.record(report, files, keys)

    changed = json.loads(json.dumps(report))
    coef = changed["selected_model"]["coefficients"][1]
    changed["selected_model"]["coefficients"][1] = float(np.nextafter(coef, np.inf))
    assert changed["selected_model"]["coefficients"][1] != coef
    problems = outputs.compare(golden, outputs.record(changed, files, keys))
    assert problems == ["report field selected_model.coefficients differs from the golden output"]


def test_output_check_rejects_a_changed_csv_and_a_missing_field(small_fit):
    _, _, out_dir = small_fit
    report, files, _ = outputs.read_outputs(out_dir)
    keys = outputs.object_list_keys(report)
    golden = outputs.record(report, files, keys)

    edited = dict(files, **{"residuals_parseal.csv": files["residuals_parseal.csv"] + b"\n"})
    assert outputs.compare(golden, outputs.record(report, edited, keys)) == [
        "residuals_parseal.csv differs from the golden output"
    ]
    trimmed = json.loads(json.dumps(report))
    del trimmed["selected_model"]["rmse"]
    assert outputs.compare(golden, outputs.record(trimmed, files, keys)) == [
        "report field selected_model.rmse is missing"
    ]


def test_output_check_ignores_fields_added_later(small_fit):
    _, _, out_dir = small_fit
    report, files, _ = outputs.read_outputs(out_dir)
    keys = outputs.object_list_keys(report)
    golden = outputs.record(report, files, keys)

    grown = json.loads(json.dumps(report))
    grown["selected_model"]["subsets_rejected_for_vif"] = 3
    grown["observability"] = {"stages": 4}
    for item in grown["screening"]["dropped_redundant"]:
        item["stage"] = "redundancy"
    assert grown["screening"]["dropped_redundant"]
    assert outputs.compare(golden, outputs.record(grown, files, keys)) == []


def test_exact_example_check_rejects_a_wrong_model(small_fit):
    case, response, out_dir = small_fit
    report, files, _ = outputs.read_outputs(out_dir)
    report["selected_model"]["terms"] = ["x1*x2"]
    assert outputs.invariants(case, response, report, files)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_plus_child_time_is_the_span_duration():
    tracer = Tracer()

    def leaf():
        _busy(0.002)

    def middle():
        _busy(0.001)
        tracer.call("leaf", leaf)
        _busy(0.001)
        tracer.call("leaf", leaf)

    tracer.fit = 1
    tracer.call("root", lambda: (tracer.call("middle", middle), _busy(0.001)))
    selfs = self_times(tracer.spans)
    assert [s.name for s in tracer.spans] == ["root", "middle", "leaf", "leaf"]
    for span in tracer.spans:
        children = [c for c in tracer.spans if c.parent == span.id]
        assert selfs[span.id] + sum(c.duration for c in children) == pytest.approx(
            span.duration, rel=1e-12, abs=1e-12
        )
        assert selfs[span.id] > 0
    assert all(s.fit == 1 for s in tracer.spans)


def test_wrappers_count_record_and_restore(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.work = lambda x: x + 1
    module.outer = lambda x: module.work(x) * 2
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original = module.work

    tracer = Tracer()
    assert tracer.wrap_span(f"{module.__name__}.outer", "outer")
    assert tracer.wrap_counter(f"{module.__name__}.work", "work")
    assert not tracer.wrap_counter(f"{module.__name__}.gone", "gone")
    assert module.outer(1) == 4 and module.outer(2) == 6
    tracer.uninstall()

    assert module.work is original
    assert tracer.counters["work"][0] == 2
    assert "gone" not in tracer.counters
    assert tracer.absent == {f"{module.__name__}.gone"}
    assert [s.name for s in tracer.spans] == ["outer", "outer"]
