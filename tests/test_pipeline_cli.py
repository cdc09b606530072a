"""Run reports, output files, and the command-line interface."""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parseal import (
    Dataset,
    ImportanceRule,
    RunReport,
    SelectionConfig,
    run_pipeline,
    synth_example1,
    synth_example2,
    write_csv,
)
from parseal.cli import main
from parseal.dictionary import build_dictionary
from parseal.errors import NonFinite, ParsealError
from parseal import cli, pipeline
from parseal.pipeline import json_text
from parseal.screening import Records, screen
from parseal.selection import baseline_best_subset, best_subset_search
from test_dictionary import _dict_heavy_shaped


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def noise_dataset(n=60, seed=501):
    cols = np.column_stack([philox(seed, s).normal(size=n) for s in range(3)])
    y = philox(seed, 99).normal(size=n)
    return Dataset(("a", "b", "c"), cols, "y", y)


# ---------------------------------------------------------------------------
# run_pipeline and the report
# ---------------------------------------------------------------------------


def test_report_structure_and_selected_model():
    ds = synth_example1(200, seed=0)
    report = run_pipeline(ds, SelectionConfig(varsigma=0.5), with_baseline=True)
    assert report.schema_version == 1
    assert report.tool == "parseal"
    assert report.config["n"] == 200
    assert report.config["variable_names"] == ["x1", "x2", "x3"]
    assert report.dictionary["candidate_terms"] == 330
    assert report.selected_model["term_keys"] == ["v0^1/1*v2^1/1"]
    assert report.selected_model["terms"] == ["x1*x3"]
    assert report.selected_model["objective"] == 1.0
    assert report.selected_model["approximate"] is False
    assert report.selected_model["intercept"] == pytest.approx(120.0, abs=1e-6)
    assert report.selected_model["coefficients"][1] == pytest.approx(80.0, abs=1e-6)
    assert report.baseline_model is not None
    assert report.baseline_model["objective"] < report.selected_model["objective"]
    assert set(report.timing) == {
        "dictionary_s",
        "screening_s",
        "selection_s",
        "baseline_s",
        "total_s",
    }
    screening = report.screening
    assert screening["varsigma"] == 0.5
    assert screening["delta_mode"] == "relative"
    kept = set(screening["kept"])
    assert "v0^1/1*v2^1/1" in kept
    recorded = (
        len(screening["kept"])
        + len(screening["dropped_unimportant"])
        + len(screening["dropped_redundant"])
    )
    assert recorded == report.dictionary["kept_terms"]


def test_report_json_round_trip_is_lossless():
    ds = synth_example2(150, seed=1)
    report = run_pipeline(ds, stable=True)
    assert report.timing is None
    back = RunReport.from_json(report.to_json())
    assert back == report
    # repr serialization: every float survives the text round trip exactly
    assert back.selected_model["coefficients"] == report.selected_model["coefficients"]


def test_output_files_written(tmp_path):
    ds = synth_example1(120, seed=2)
    run_pipeline(ds, with_baseline=True, out_dir=tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "bland_altman_baseline.csv",
        "bland_altman_parseal.csv",
        "report.json",
        "residuals_baseline.csv",
        "residuals_parseal.csv",
    ]
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["selected_model"]["term_keys"] == ["v0^1/1*v2^1/1"]


def test_residual_csv_identity_holds_exactly(tmp_path):
    ds = synth_example1(100, seed=3)
    run_pipeline(ds, out_dir=tmp_path)
    lines = (tmp_path / "residuals_parseal.csv").read_text().splitlines()
    assert lines[0] == "observed,fitted,residual"
    assert len(lines) == 101
    for line, observed in zip(lines[1:], ds.response):
        o, f, r = (float(cell) for cell in line.split(","))
        assert o == observed  # repr round-trip preserves the input values
        assert o - f == r  # the file identity holds bit for bit


def test_bland_altman_csv_matches_fit(tmp_path):
    ds = synth_example2(90, seed=4)
    report = run_pipeline(ds, out_dir=tmp_path)
    lines = (tmp_path / "bland_altman_parseal.csv").read_text().splitlines()
    assert lines[0] == "mean,difference"
    assert len(lines) == 91
    resid_lines = (tmp_path / "residuals_parseal.csv").read_text().splitlines()[1:]
    for ba_line, resid_line in zip(lines[1:], resid_lines):
        mean, diff = (float(c) for c in ba_line.split(","))
        o, f, _ = (float(c) for c in resid_line.split(","))
        assert mean == (o + f) / 2.0
        assert diff == f - o


def _oracle_residuals_csv(observed, fitted):
    rows = [f"{o!r},{f!r},{o - f!r}" for o, f in zip(observed.tolist(), fitted.tolist())]
    return "\n".join(["observed,fitted,residual", *rows]) + "\n"


def _oracle_bland_altman_csv(observed, fitted):
    # The pairs stats.bland_altman forms, written out because it needs n >= 2.
    pairs = np.column_stack([0.5 * (fitted + observed), fitted - observed]).tolist()
    return "\n".join(["mean,difference", *[f"{m!r},{d!r}" for m, d in pairs]]) + "\n"


def _assert_companions_match_the_oracle(out_dir, tag, observed, fitted):
    residuals = (out_dir / f"residuals_{tag}.csv").read_bytes()
    assert residuals == _oracle_residuals_csv(observed, fitted).encode()
    bland_altman = (out_dir / f"bland_altman_{tag}.csv").read_bytes()
    assert bland_altman == _oracle_bland_altman_csv(observed, fitted).encode()


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, -1.5, 2.0)


@st.composite
def _observed_and_fitted(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from(_EDGE_VALUES), finite)
    pairs = []
    for _ in range(draw(st.integers(1, 24))):
        o = draw(values)
        kind = draw(st.integers(0, 4))
        if kind == 0:  # signed zeros: +0 - -0, -0 - +0, x - x
            o, f = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]))
        elif kind == 1:
            f = o
        elif kind == 2:  # one ulp off, but finite
            f = float(np.nextafter(o, draw(st.sampled_from([-np.inf, np.inf]))))
            f = f if math.isfinite(f) else o
        elif kind == 3:
            f = -o
        else:
            f = draw(values)
        pairs.append((o, f))
    observed, fitted = np.array(pairs, dtype=np.float64).T
    return np.ascontiguousarray(observed), np.ascontiguousarray(fitted)


@given(_observed_and_fitted())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_companion_csvs_match_the_row_by_row_oracle(tmp_path, drawn):
    observed, fitted = drawn
    texts = list(map(float.__repr__, observed.tolist()))
    pipeline._write_files(pipeline._companion_csvs("drawn", observed, texts, fitted), tmp_path)
    _assert_companions_match_the_oracle(tmp_path, "drawn", observed, fitted)


def test_companion_csvs_of_a_fit_with_a_baseline_match_the_oracle(tmp_path):
    # Both models' files share the observed texts; a noise-free fit leaves zero residuals.
    ds = synth_example1(200, seed=6)
    cfg = SelectionConfig(varsigma=0.5)
    run_pipeline(ds, cfg, with_baseline=True, out_dir=tmp_path)
    z = build_dictionary(ds, cfg.alpha, cfg.mixture_m)
    zr, _ = screen(z, ds.response, cfg.importance, cfg.varsigma)
    models = {
        "parseal": best_subset_search(zr, ds.response, cfg),
        "baseline": baseline_best_subset(z, ds.response, cfg),
    }
    for tag, model in models.items():
        fitted = ds.response - model.fit.residuals
        _assert_companions_match_the_oracle(tmp_path, tag, ds.response, fitted)
    assert (models["parseal"].fit.residuals == 0).any()


def test_companion_csvs_reject_a_non_finite_fitted_value(tmp_path):
    observed = np.array([1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf):
        fitted = np.array([1.0, bad, 3.0])
        with pytest.raises(NonFinite, match="fitted contains NaN or infinite entries"):
            csvs = pipeline._companion_csvs("bad", observed, ["1.0", "2.0", "3.0"], fitted)
            pipeline._write_files(csvs, tmp_path)


def test_stable_reports_are_byte_identical(tmp_path):
    ds = synth_example1(150, seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_pipeline(ds, with_baseline=True, out_dir=out, stable=True)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_the_config_block_is_the_config_fields_with_floats_as_floats(tmp_path):
    ds = synth_example1(150, seed=5)
    floats = SelectionConfig(importance=ImportanceRule("absolute", 0.0), varsigma=0.5, vif_cap=10.0)
    run_pipeline(ds, floats, out_dir=tmp_path / "floats", stable=True)
    want = (tmp_path / "floats" / "report.json").read_bytes()
    given = {
        "int_vif_cap": dataclasses.replace(floats, vif_cap=10),
        "int_importance": dataclasses.replace(floats, importance=ImportanceRule("absolute", 0)),
        "numpy_floats": dataclasses.replace(
            floats,
            importance=ImportanceRule("absolute", np.float64(0.0)),
            varsigma=np.float64(0.5),
            vif_cap=np.float64(10.0),
        ),
    }
    for name, cfg in given.items():
        report = run_pipeline(ds, cfg, out_dir=tmp_path / name, stable=True)
        assert (tmp_path / name / "report.json").read_bytes() == want, name
    names = [f.name for f in dataclasses.fields(SelectionConfig)]
    assert list(report.config) == names + ["with_baseline", "n", "variable_names", "response_name"]
    assert report.config["importance"] == {"mode": "absolute", "value": 0.0}


def test_pipeline_errors_carry_their_stage():
    ds = noise_dataset()
    cfg = SelectionConfig(importance=ImportanceRule("absolute", 0.999))
    with pytest.raises(ParsealError) as exc:
        run_pipeline(ds, cfg)
    assert exc.value.stage == "screening"


# ---------------------------------------------------------------------------
# the report's JSON writer
# ---------------------------------------------------------------------------

_ADVERSARIAL = ["", "{", "}", "{}", "{0}", "}{", '"', "\\", "\x00", "\x1f", "\n\t", " ", "é", "\U0001f600"]
_texts = st.text(alphabet=st.sampled_from("ab{}\"\\\x00\x1f\x7fé \U0001f600"), max_size=5) | st.sampled_from(
    _ADVERSARIAL
)
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
_scalars = _texts | _floats | _floats.map(np.float64) | st.integers() | st.booleans() | st.none()
_keys = _texts | st.integers() | _floats | st.booleans() | st.none()
# json.dumps rejects each of these: NaN and inf as a value or a key, np.int64 anywhere.
_BAD = [math.nan, math.inf, -math.inf, np.float64("nan"), np.int64(3)]


# A few values that repeat down a column, as the drop logs' reasons and winners do.
_repeated = st.sampled_from(['"', "\\", "\x00", "é", "\U0001f600"])


@st.composite
def _records(draw, bad=False, columnar=False):
    """A report-style list of flat dicts sharing their str keys, broken in at
    most one item; ``columnar`` may give the ``Records`` standing for it."""
    keys = draw(st.lists(_texts, min_size=1, max_size=4, unique=True))
    columns = [draw(st.sampled_from([_texts, _floats, st.integers(), _repeated])) for _ in keys]
    count = draw(st.integers(1, 5) | st.integers(6, 40))
    rows = [{k: draw(c) for k, c in zip(keys, columns)} for _ in range(count)]
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(keys))
    breaks = ["intact", "reorder", "null", "nested", "bool", "np.float64"]
    how = "bad" if bad and draw(st.booleans()) else draw(st.sampled_from(breaks))
    if how == "reorder" and len(keys) > 1:
        items = list(row.items())
        row.clear()
        row.update(items[1:] + items[:1])
    elif how == "null":
        row[key] = None
    elif how == "nested":
        row[key] = draw(st.sampled_from([[], {}, [1.5], {"a": "b"}, (2, "c")]))
    elif how == "bool":
        row[key] = draw(st.booleans())
    elif how == "np.float64":
        row[key] = np.float64(draw(_floats))
    elif how == "bad":
        row[key] = draw(st.sampled_from(_BAD))
    if columnar and how != "reorder" and draw(st.booleans()):
        return Records(tuple(keys), *([row[k] for row in rows] for k in keys))
    return rows


def _report_shaped(bad=False, columnar=False):
    """Nested lists, tuples and dicts of scalars and records; ``bad`` mixes in
    ``_BAD``, and ``columnar`` draws ``Records`` too."""
    extra = st.sampled_from(_BAD) if bad else st.nothing()
    records = _records(bad, columnar)
    return st.recursive(
        _scalars | extra | records,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_keys | extra, inner | records, max_size=4),
        max_leaves=30,
    )


def _outcome(write, obj):
    try:
        return write(obj)
    except (ValueError, TypeError) as err:
        return type(err)


@settings(max_examples=400, deadline=None)
@given(_report_shaped())
def test_json_text_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_report_shaped(bad=True))
def test_json_text_fails_where_json_dumps_fails(obj):
    assert _outcome(json_text, obj) == _outcome(lambda o: json.dumps(o, indent=2, allow_nan=False), obj)


def _dumps_records_as_lists(obj):
    """``json.dumps`` of ``obj`` with each ``Records`` as its list of dicts."""
    return json.dumps(obj, indent=2, allow_nan=False, default=list)


@settings(max_examples=300, deadline=None)
@given(_report_shaped(columnar=True))
def test_json_text_writes_records_as_the_dicts_they_stand_for(obj):
    assert json_text(obj) == _dumps_records_as_lists(obj)


@settings(max_examples=200, deadline=None)
@given(_report_shaped(bad=True, columnar=True))
def test_json_text_fails_on_records_where_json_dumps_fails(obj):
    assert _outcome(json_text, obj) == _outcome(_dumps_records_as_lists, obj)


@pytest.mark.parametrize("bad", _BAD, ids=repr)
def test_json_text_raises_the_exception_json_dumps_raises(bad):
    error = TypeError if isinstance(bad, np.int64) else ValueError
    rows = [{"term": "a", "abs_corr": 0.5}, {"term": "b", "abs_corr": bad}]
    for obj in (bad, [bad], {"x": bad}, {bad: 1}, rows):
        with pytest.raises(error):
            json.dumps(obj, indent=2, allow_nan=False)
        with pytest.raises(error):
            json_text(obj)


def test_a_self_containing_list_raises_the_value_error_json_dumps_raises():
    loop = [1.5]
    loop.append({"again": loop})
    with pytest.raises(ValueError) as dumps_error:
        json.dumps(loop, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as error:
        json_text(loop)
    assert str(error.value) == str(dumps_error.value)


@pytest.mark.parametrize("nulls", ["one", "several", "all"])
def test_a_float_column_with_nulls_is_written_from_the_template(nulls):
    drops = [
        {"term": f"v{i % 7}^1/1*log(v{i % 5})^-1", "abs_corr": c, "reason": "below_threshold"}
        for i, c in enumerate(philox(503).random(20_435).tolist())
    ]
    drops[1]["abs_corr"] = 0.0
    drops[2]["abs_corr"] = -0.0
    picks = {"one": [9_000], "several": [0, 3, 9_000, 20_434], "all": range(len(drops))}[nulls]
    for i in picks:
        drops[i].update(abs_corr=None, reason="non_finite_correlation")
    obj = {"dropped_unimportant": drops}
    assert json_text(obj) == json.dumps(obj, indent=2, allow_nan=False)
    # The importance drop log is a Records, which takes the template whole.
    names = ("term", "abs_corr", "reason")
    records = Records(names, *([row[key] for row in drops] for key in names))
    assert pipeline._rows_text(records) is not None
    assert json_text({"dropped_unimportant": records}) == json_text(obj)
    for bad in (math.nan, math.inf):
        drops[5]["abs_corr"] = bad
        records.columns[1][5] = bad
        for log in (drops, records):
            with pytest.raises(ValueError):
                json_text({"dropped_unimportant": log})


def test_report_bytes_are_json_dumps_bytes(tmp_path):
    ds = synth_example1(200, seed=6)
    report = run_pipeline(ds, SelectionConfig(varsigma=0.5), with_baseline=True, out_dir=tmp_path)
    assert len(report.screening["dropped_unimportant"]) > 100
    expected = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    assert report.to_json() == expected
    assert (tmp_path / "report.json").read_bytes() == expected.encode("ascii")


# ---------------------------------------------------------------------------
# the streamed report writer
# ---------------------------------------------------------------------------


@st.composite
def _straddling(draw, chunk):
    """Flat records, a list of dicts or a ``Records``, whose count straddles a
    chunk boundary of ``chunk`` records; float columns may hold Nones, as |corr| does."""
    count = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    keys = draw(st.lists(_texts, min_size=1, max_size=3, unique=True))
    kinds = [_texts, _floats, st.integers(), _repeated, _floats | st.none(), st.none()]
    column = st.sampled_from(kinds).flatmap(lambda kind: st.lists(kind, min_size=count, max_size=count))
    columns = [draw(column) for _ in keys]
    if count and draw(st.booleans()):
        return Records(tuple(keys), *columns)
    return [dict(zip(keys, values)) for values in zip(*columns)]


def _chunk_and_object():
    """A chunk size of 1, 2 or 3 records, and a drop-log-shaped or report-shaped object."""
    return st.sampled_from([1, 2, 3]).flatmap(
        lambda chunk: st.tuples(
            st.just(chunk),
            st.dictionaries(_texts, _straddling(chunk), min_size=1, max_size=3)
            | _straddling(chunk)
            | _report_shaped(columnar=True),
        )
    )


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_chunk_and_object())
def test_the_streamed_file_is_json_text_at_every_chunk_size(tmp_path, drawn):
    chunk, obj = drawn
    path = tmp_path / "report.json"
    with mock.patch.object(pipeline, "_CHUNK_RECORDS", chunk):
        with open(path, "w", newline="", encoding="ascii") as fh:
            pipeline.write_json(obj, fh)
        text = json_text(obj)
    assert path.read_bytes() == (text + "\n").encode("ascii")
    assert text == _dumps_records_as_lists(obj)
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 2048])
def test_the_streamed_report_is_to_json_at_every_chunk_size(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_CHUNK_RECORDS", chunk)
    ds = synth_example1(200, seed=6)
    report = run_pipeline(ds, SelectionConfig(varsigma=0.5), with_baseline=True, out_dir=tmp_path)
    assert len(report.screening["dropped_unimportant"]) > 2 * 3 + 1
    expected = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    assert report.to_json() == expected
    assert (tmp_path / "report.json").read_bytes() == expected.encode("ascii")
    assert RunReport.from_json((tmp_path / "report.json").read_text()) == report


def test_write_json_writes_a_chunk_of_records_at_a_time(monkeypatch):
    monkeypatch.setattr(pipeline, "_CHUNK_RECORDS", 2)
    writes = []
    sink = mock.Mock(write=writes.append)
    corrs = [None if i % 3 else i / 7 for i in range(7)]
    rows = Records(("term", "abs_corr"), [f"t{i}" for i in range(7)], corrs)
    obj = {"kept": ["a"], "dropped": rows, "also": Records(("term",), ["u", "v", "w"])}
    pipeline.write_json(obj, sink)
    assert "".join(writes) == json.dumps(obj, indent=2, default=list) + "\n"
    # json's own texts, with each Records as one "null": each run of them
    # between two Records is written two at a time, then what is left of it;
    # each Records is written two records at a time.
    texts = list(json.JSONEncoder(indent=2, default=lambda records: None).iterencode(obj))
    cuts = [-1] + [i for i, text in enumerate(texts) if text == "null"] + [len(texts)]
    runs = [after - before - 1 for before, after in zip(cuts, cuts[1:])]
    assert len(writes) == sum(run // 2 + 1 for run in runs) + 4 + 2
    assert all(text.count('"term"') <= 2 for text in writes)


def test_writing_a_dict_heavy_report_holds_no_whole_text(tmp_path):
    cfg = SelectionConfig(alpha=2, mixture_m=3, varsigma=0.9, search_mode="greedy_forward")
    report = run_pipeline(_dict_heavy_shaped(), cfg, stable=True)
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        pipeline._write_files([(path, report)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The text is 2.98 MB; writing it whole took 6.1 MB, a chunk at a time 1.4 MB.
    assert path.stat().st_size > 2_500_000 > peak
    assert path.read_bytes() == report.to_json().encode("ascii")


def test_a_failed_report_write_leaves_the_out_dir_as_it_was(tmp_path, monkeypatch):
    ds = synth_example1(200, seed=6)
    cfg = SelectionConfig(varsigma=0.5)
    earlier = tmp_path / "earlier"
    run_pipeline(ds, cfg, with_baseline=True, out_dir=earlier, stable=True)
    before = {name: (earlier / name).read_bytes() for name in os.listdir(earlier)}
    real = pipeline._model_section

    def planted(*args):
        # After the drop logs, so a part of the report is flushed before it fails.
        return real(*args) | {"rmse": math.nan}

    monkeypatch.setattr(pipeline, "_model_section", planted)
    with pytest.raises(ValueError) as dumps_error:
        json.dumps(math.nan, allow_nan=False)
    for out_dir in (tmp_path / "fresh", earlier):
        with pytest.raises(ValueError) as error:
            run_pipeline(ds, cfg, with_baseline=True, out_dir=out_dir, stable=True)
        assert str(error.value).startswith(str(dumps_error.value).split(":")[0])
    assert os.listdir(tmp_path / "fresh") == []
    assert {name: (earlier / name).read_bytes() for name in os.listdir(earlier)} == before


@pytest.mark.parametrize("failing", [
    "residuals_parseal.csv",
    "bland_altman_parseal.csv",
    "residuals_baseline.csv",
    "bland_altman_baseline.csv",
])
def test_a_failed_csv_write_leaves_the_out_dir_as_it_was(failing, tmp_path, monkeypatch):
    cfg = SelectionConfig(varsigma=0.5)
    earlier = tmp_path / "earlier"
    run_pipeline(synth_example1(200, seed=6), cfg, with_baseline=True, out_dir=earlier, stable=True)
    before = {name: (earlier / name).read_bytes() for name in os.listdir(earlier)}

    class FullDisk:
        """A file that takes the first 100 bytes of a write, then fails as a full disk does."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:100])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def opens(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FullDisk(fh) if os.path.basename(path).startswith(failing) else fh

    monkeypatch.setattr(pipeline, "open", opens, raising=False)
    other = synth_example1(200, seed=7)
    for out_dir in (tmp_path / "fresh", earlier):
        with pytest.raises(OSError) as error:
            run_pipeline(other, cfg, with_baseline=True, out_dir=out_dir, stable=True)
        assert error.value.errno == errno.ENOSPC
    # No file was replaced or cut, and no .tmp is left.
    assert os.listdir(tmp_path / "fresh") == []
    assert {name: (earlier / name).read_bytes() for name in os.listdir(earlier)} == before


def test_the_dict_census_is_written_a_chunk_of_records_at_a_time(tmp_path, monkeypatch, capsys):
    # Inputs of +-1 make every even power constant, so the census excludes terms.
    rng = philox(509)
    columns = rng.choice([-1.0, 1.0], size=(40, 3))
    ds = Dataset(("a", "b", "c"), columns, "y", rng.normal(size=40))
    path = tmp_path / "in.csv"
    write_csv(ds, path)
    argv = ["dict", "--input", str(path), "--response", "y", "--alpha", "2", "--mixture", "2"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    census = json.loads(whole)
    assert len(census["excluded_terms"]) > 7
    assert whole == json.dumps(census, indent=2) + "\n"
    monkeypatch.setattr(pipeline, "_CHUNK_RECORDS", 3)
    writes = []
    monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
    assert main(argv) == 0
    assert "".join(writes) == whole and len(writes) > len(census["excluded_terms"]) // 3
    monkeypatch.undo()
    assert main(argv + ["--out", str(tmp_path / "census.json")]) == 0
    assert (tmp_path / "census.json").read_text() == whole


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture
def example1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    assert main(["synth", "--example", "1", "--n", "200", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_a_failed_census_write_leaves_the_out_file_as_it_was(
    example1_csv, tmp_path, monkeypatch, capsys
):
    argv = ["dict", "--input", str(example1_csv), "--response", "y", "--out"]
    earlier = tmp_path / "earlier.json"
    assert main(argv + [str(earlier)]) == 0
    before = earlier.read_bytes()

    def fills_the_disk(obj, fh):
        fh.write(json_text(obj)[:100])  # a part of the census is written first
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for module in (pipeline, cli):
        monkeypatch.setattr(module, "write_json", fills_the_disk)
    for path in (tmp_path / "fresh.json", earlier):
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"parseal dict: error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["earlier.json", "ex1.csv"]
    assert earlier.read_bytes() == before


@pytest.mark.parametrize("command", ["dict", "fit"])
def test_a_closed_stdout_exits_141_and_prints_nothing(command, example1_csv, tmp_path):
    argv = [command, "--input", str(example1_csv), "--response", "y"]
    if command == "fit":
        assert main(argv + ["--stable-output", "--out-dir", str(tmp_path / "normal")]) == 0
        argv += ["--stable-output", "--out-dir", str(tmp_path / "piped")]
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "parseal.cli", *argv], stdout=write, stderr=subprocess.PIPE
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (141, b"")
    if command == "fit":
        def files(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert len(files(tmp_path / "piped")) == 3
        assert files(tmp_path / "piped") == files(tmp_path / "normal")


def test_cli_synth_reproduces_the_generator(tmp_path):
    path = tmp_path / "ex2.csv"
    assert main(["synth", "--example", "2", "--n", "80", "--seed", "9", "--out", str(path)]) == 0
    from parseal import load_csv

    back = load_csv(path, response="y")
    ds = synth_example2(80, seed=9)
    assert back.columns.tobytes() == ds.columns.tobytes()
    assert back.response.tobytes() == ds.response.tobytes()


def test_cli_fit_happy_path(example1_csv, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "fit",
            "--input",
            str(example1_csv),
            "--response",
            "y",
            "--varsigma",
            "0.5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "x1*x3" in stdout
    assert "adjusted R^2: 1" in stdout
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["selected_model"]["terms"] == ["x1*x3"]
    assert parsed["config"]["varsigma"] == 0.5


def test_in_process_calls_share_one_parser_and_no_values(example1_csv, tmp_path):
    from parseal import cli

    runs = []
    for flags in (["--baseline", "--alpha", "3"], []):
        out = tmp_path / f"run{len(runs)}"
        argv = ["fit", "--input", str(example1_csv), "--response", "y", "--out-dir", str(out)]
        assert main(argv + flags) == 0
        runs.append(json.loads((out / "report.json").read_text()))
    assert cli._build_parser() is cli._build_parser()
    assert runs[0]["config"]["alpha"] == 3 and runs[0]["baseline_model"] is not None
    # The second call sees its own defaults, not the first call's flags.
    assert runs[1]["config"]["alpha"] == SelectionConfig().alpha == 2
    assert runs[1]["baseline_model"] is None


def test_cli_fit_usage_errors(tmp_path, capsys):
    # missing --input/--response is a usage problem, not a data problem
    assert main(["fit", "--out-dir", str(tmp_path)]) == 1
    assert "--input and --response" in capsys.readouterr().err
    # invalid configuration values are usage problems too
    assert (
        main(["fit", "--input", "x.csv", "--response", "y", "--varsigma", "1.5"]) == 1
    )
    err = capsys.readouterr().err
    assert "varsigma" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--input", "x.csv", "--response", "y", "--delta", "1.5"], "importance value"),
        (["fit", "--config", "{conf}"], "mode must be"),
        (["dict", "--input", "{csv}", "--response", "y", "--alpha", "0"], "alpha must be"),
        (["dict", "--input", "{csv}", "--response", "y", "--mixture", "0"], "mixture must be"),
        (["fit", "--input", "{csv}", "--response", "y", "--vif-cap", "inf"], "vif_cap must be"),
        (["synth", "--example", "1", "--n", "0", "--out", "{out}"], "--n must be"),
        (["synth", "--example", "2", "--n", "2", "--out", "{out}"], "--n must be"),
        (["synth", "--example", "1", "--seed", "-1", "--out", "{out}"], "--seed must"),
        (["synth", "--example", "1", "--seed", str(2**64), "--out", "{out}"], "--seed must"),
    ],
    ids=[
        "fit-delta",
        "fit-config-delta-mode",
        "dict-alpha",
        "dict-mixture",
        "fit-vif-cap-inf",
        "synth-n-zero",
        "synth-n-two",
        "synth-seed-negative",
        "synth-seed-too-large",
    ],
)
def test_cli_invalid_values_exit_one_without_traceback(argv, message, example1_csv, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"input = {example1_csv}\nresponse = y\ndelta-mode = sideways\n")
    out = tmp_path / "out"
    argv = [a.format(csv=example1_csv, conf=conf, out=out / "synth.csv") for a in argv]
    if argv[0] == "fit":
        argv += ["--out-dir", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "parseal.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(f"parseal {argv[0]}: error: ")
    assert run.stderr.count("\n") == 1
    assert message in run.stderr
    assert not out.exists()


# Runs the CLI in a fresh interpreter and reports, on its last stdout line,
# the exit code and whether scipy was imported.  Without arguments it only
# imports the package.
_FOOTPRINT = """
import sys
import parseal
code = None
if len(sys.argv) > 1:
    from parseal.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, code, loads_scipy",
    [
        ([], "None", False),
        (["--help"], "0", False),
        (["synth", "--example", "2", "--n", "50", "--out", "{out}/synth.csv"], "0", False),
        (["dict", "--input", "{csv}", "--response", "y"], "0", False),
        (["fit", "--input", "{csv}"], "1", False),
        (["fit", "--input", "{csv}", "--response", "nope", "--out-dir", "{out}"], "2", False),
        (["fit", "--input", "{csv}", "--response", "y", "--out-dir", "{out}"], "0", True),
    ],
    ids=["import", "help", "synth", "dict", "usage-error", "load-error", "fit"],
)
def test_only_a_least_squares_call_imports_scipy(argv, code, loads_scipy, example1_csv, tmp_path):
    # scipy.linalg is most of a fresh import's time, and only the fit's QR
    # and VIF stages call it: an import at module level would fail here.
    argv = [a.format(csv=example1_csv, out=tmp_path) for a in argv]
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"{code} {loads_scipy}"


# Runs a fit in a fresh interpreter, through the plain import of scipy's LAPACK
# module when its first argument is "fallback", and prints the exit code and
# whether scipy.linalg was imported.
_FIT_FOOTPRINT = """
import sys
from unittest import mock
import parseal.linalg
from parseal.cli import main
finder = mock.Mock(**{"find_spec.return_value": None})
with mock.patch.object(parseal.linalg, "PathFinder", finder if sys.argv[1] == "fallback" else parseal.linalg.PathFinder):
    code = main(sys.argv[2:])
print(code, "scipy.linalg" in sys.modules)
"""


def test_a_fit_never_imports_scipy_linalg_and_the_fallback_writes_the_same_bytes(example1_csv, tmp_path):
    outputs = {}
    for route, loads_scipy_linalg in (("direct", "False"), ("fallback", "True")):
        out = tmp_path / route
        argv = ["fit", "--input", str(example1_csv), "--response", "y", "--baseline"]
        argv += ["--stable-output", "--out-dir", str(out)]
        run = subprocess.run(
            [sys.executable, "-c", _FIT_FOOTPRINT, route, *argv], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"0 {loads_scipy_linalg}"
        outputs[route] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["direct"]) == 5
    assert outputs["direct"] == outputs["fallback"]


def test_cli_unknown_flag_exits_one(example1_csv):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(example1_csv), "--response", "y", "--frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "parseal 0.1.0"


@pytest.mark.parametrize("command", ["fit", "dict"])
@pytest.mark.parametrize("scale", [1e160, 1e100])
def test_handled_overflow_leaks_no_numpy_warnings(command, scale, tmp_path):
    # At 1e160, a^2 overflows and the run stops at the dictionary; at 1e100,
    # a^2's squares overflow in the constant check and in screening.  Either
    # way numpy's overflow warnings stay out of stderr: a failed run prints
    # its one error line and nothing else.
    rng = philox(506)
    a = rng.uniform(1.0, 2.0, 50) * scale
    b = rng.uniform(0.0, 1.0, 50)
    path = tmp_path / "big.csv"
    write_csv(Dataset(("a", "b"), np.column_stack([a, b]), "y", 3.0 * a / scale + b), path)
    argv = [command, "--input", str(path), "--response", "y"]
    if command == "fit":
        argv += ["--out-dir", str(tmp_path / "out")]
    run = subprocess.run(
        [sys.executable, "-m", "parseal.cli", *argv], capture_output=True, text=True
    )
    assert run.stderr.count("\n") == (1 if run.returncode else 0)
    assert "Warning" not in run.stderr
    if scale == 1e160:
        assert run.returncode == 2
        assert run.stderr.endswith("term v0^2/1 evaluated to a non-finite value\n")


def test_cli_data_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,2\n3,oops\n5,6\n")
    assert main(["fit", "--input", str(bad), "--response", "y"]) == 2
    assert "cannot parse" in capsys.readouterr().err

    missing = tmp_path / "nope.csv"
    assert main(["fit", "--input", str(missing), "--response", "y"]) == 2

    noise = tmp_path / "noise.csv"
    write_csv(noise_dataset(), noise)
    code = main(
        [
            "fit",
            "--input",
            str(noise),
            "--response",
            "y",
            "--delta-mode",
            "absolute",
            "--delta",
            "0.999",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "[screening]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "dict"])
def test_cli_a_csv_with_only_the_response_exits_two(command, tmp_path, capsys):
    path = tmp_path / "only_y.csv"
    path.write_text("y\n" + "".join(f"{v!r}\n" for v in philox(507).uniform(size=20).tolist()))
    argv = [command, "--input", str(path), "--response", "y"]
    if command == "fit":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parseal {command}: error")
    assert err.endswith("no input column is left once the response 'y' is taken\n")
    assert not (tmp_path / "out").exists()


def test_cli_a_csv_of_constant_inputs_exits_two_at_the_dictionary(tmp_path, capsys):
    path = tmp_path / "constant.csv"
    path.write_text("a,b,y\n1,2,3\n1,2,4\n1,2,6\n1,2,5\n")
    out = tmp_path / "out"
    assert main(["fit", "--input", str(path), "--response", "y", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("parseal fit: error [dictionary]: ")
    assert "constant" in err
    assert not out.exists()
    # The census still says what the dictionary excluded.
    assert main(["dict", "--input", str(path), "--response", "y"]) == 0
    assert json.loads(capsys.readouterr().out)["kept_terms"] == 0


def test_cli_exact_fits_report_infinite_and_undefined_t(tmp_path, capsys):
    # y = 1 + 2a exactly: the standard errors come out 0 (or within rounding
    # of it), and the run must not die on an infinite t.
    exact = tmp_path / "exact.csv"
    exact.write_text("a,b,y\n4,0.3,9\n3,1.7,7\n0,-0.2,1\n3,0.9,7\n-4,2.2,-7\n1,-1.1,3\n")
    # y = 2x, fitted without rounding: the intercept is exactly 0, so its t
    # is 0/0, and the slope's t is infinite.
    zero = tmp_path / "zero.csv"
    zero.write_text("x,y\n4,8\n0,0\n0,0\n0,0\n0,0\n")
    for path in (exact, zero):
        out = tmp_path / path.stem
        assert main(["fit", "--input", str(path), "--response", "y", "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        model = RunReport.from_json((out / "report.json").read_text()).selected_model
    assert "(p <1e-300)" in captured.out
    assert model["std_errors"] == [0.0, 0.0] and model["t_stats"] == [None, None]
    assert model["p_values"] == [None, 0.0]
    assert model["p_values_display"] == ["undefined", "<1e-300"]


def test_cli_config_file_with_flag_override(example1_csv, tmp_path, capsys):
    out = tmp_path / "cfg_run"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "\n".join(
            [
                "# pipeline settings",
                f"input = {example1_csv}",
                "response = y",
                "alpha = 1",
                "varsigma = 0.5",
                "baseline = true",
                "stable-output = yes",
                f"out-dir = {out}",
            ]
        )
        + "\n"
    )
    assert main(["fit", "--config", str(cfg), "--alpha", "2"]) == 0
    capsys.readouterr()
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["config"]["alpha"] == 2  # flag beats config file
    assert parsed["config"]["varsigma"] == 0.5
    assert parsed["config"]["with_baseline"] is True
    assert parsed["timing"] is None
    assert parsed["baseline_model"] is not None


def test_cli_config_file_with_a_byte_order_mark(example1_csv, tmp_path, capsys):
    out = tmp_path / "bom_run"
    cfg = tmp_path / "bom.conf"
    text = f"input = {example1_csv}\nresponse = y\nstable-output = yes\nout-dir = {out}\n"
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text())["config"]["alpha"] == 2


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("frobnicate = 3\n")
    assert main(["fit", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err

    cfg.write_text("baseline = maybe\n")
    assert main(["fit", "--config", str(cfg)]) == 1
    assert "true/false" in capsys.readouterr().err

    cfg.write_text("alpha\n")
    assert main(["fit", "--config", str(cfg)]) == 1
    assert "key = value" in capsys.readouterr().err


def test_cli_config_file_names_the_line_of_a_value_outside_a_flags_choices(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("input = x.csv\nresponse = y\n\nsearch = random\n")
    assert main(["fit", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"parseal fit: error: {cfg}:4: search must be one of "
        "'exhaustive', 'greedy_forward'; got 'random'\n"
    )


# Each fit flag that shapes the report's config block, with a value other than
# its default (None: a switch, given bare as a flag).
_CONFIG_KEY_VALUES = {
    "alpha": "1",
    "mixture": "1",
    "delta": "0.3",
    "delta-mode": "absolute",
    "varsigma": "0.5",
    "vif-cap": "5",
    "max-terms": "2",
    "search": "greedy_forward",
    "baseline": None,
    "seed": "11",
}


def test_every_fit_flag_but_config_is_a_config_key():
    from parseal import cli

    keys = cli._build_parser().parse_args(["fit"]).config_keys
    # The remaining keys (where the input is, where the output goes) are
    # exercised by the config tests above.
    io_keys = {"input", "response", "out-dir", "stable-output"}
    assert set(keys) == set(_CONFIG_KEY_VALUES) | io_keys
    assert all(action.option_strings == [f"--{key}"] for key, action in keys.items())


@pytest.mark.parametrize("key", sorted(_CONFIG_KEY_VALUES))
def test_a_config_key_sets_what_its_flag_sets(key, example1_csv, tmp_path, capsys):
    value = _CONFIG_KEY_VALUES[key]
    common = ["fit", "--input", str(example1_csv), "--response", "y", "--stable-output"]
    flag = [f"--{key}"] if value is None else [f"--{key}", value]
    conf = tmp_path / "one.conf"
    conf.write_text(f"{key} = {'yes' if value is None else value}\n")
    runs = {
        "default": common,
        "flag": common + flag,
        "file": common + ["--config", str(conf)],
    }
    reports = {}
    for name, argv in runs.items():
        assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
        reports[name] = (tmp_path / name / "report.json").read_text()
    capsys.readouterr()
    config = {name: json.loads(text)["config"] for name, text in reports.items()}
    assert config["file"] == config["flag"] != config["default"]
    assert reports["file"] == reports["flag"]


def test_fit_help_names_each_flags_value_after_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for shown in (
        "--mixture MIXTURE",
        "--delta DELTA",
        "--delta-mode {absolute,relative}",
        "--max-terms MAX_TERMS",
        "--search {exhaustive,greedy_forward}",
        "--vif-cap VIF_CAP",
        "--out-dir OUT_DIR",
    ):
        assert text.count(shown) == 2, shown  # in the usage line and the option list


def test_cli_dict_census(example1_csv, tmp_path, capsys):
    assert main(["dict", "--input", str(example1_csv), "--response", "y"]) == 0
    census = json.loads(capsys.readouterr().out)
    assert census["candidate_terms"] == 330
    assert census["candidates_by_mixture"] == {"1": 30, "2": 300}

    out = tmp_path / "census.json"
    assert main(
        ["dict", "--input", str(example1_csv), "--response", "y", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["candidate_terms"] == 330


def test_cli_stable_runs_identical_across_thread_env(example1_csv, tmp_path, monkeypatch, capsys):
    # PARSEAL_THREADS is no longer read, but perfbench/run.py still sets it:
    # a stable fit must not depend on it being set or on its value.
    outputs = []
    for threads, tag in ((None, "unset"), ("1", "t1"), ("8", "t8")):
        if threads is None:
            monkeypatch.delenv("PARSEAL_THREADS", raising=False)
        else:
            monkeypatch.setenv("PARSEAL_THREADS", threads)
        out = tmp_path / tag
        argv = ["fit", "--input", str(example1_csv), "--response", "y", "--baseline"]
        assert main(argv + ["--stable-output", "--out-dir", str(out)]) == 0
        outputs.append(out)
    capsys.readouterr()
    first = outputs[0]
    for other in outputs[1:]:
        assert sorted(os.listdir(first)) == sorted(os.listdir(other))
        for name in os.listdir(first):
            assert (first / name).read_bytes() == (other / name).read_bytes()
