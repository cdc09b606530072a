"""Run reports, output files, and the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
from parseal.errors import ParsealError


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


def test_stable_reports_are_byte_identical(tmp_path):
    ds = synth_example1(150, seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_pipeline(ds, with_baseline=True, out_dir=out, stable=True)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_pipeline_errors_carry_their_stage():
    ds = noise_dataset()
    cfg = SelectionConfig(importance=ImportanceRule("absolute", 0.999))
    with pytest.raises(ParsealError) as exc:
        run_pipeline(ds, cfg)
    assert exc.value.stage == "screening"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture
def example1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    assert main(["synth", "--example", "1", "--n", "200", "--seed", "0", "--out", str(path)]) == 0
    return path


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
