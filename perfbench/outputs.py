"""Checking what one ``parseal fit`` wrote: golden comparison and invariants.

A report is flattened through its JSON objects into ``path -> value`` leaves
(lists are leaves).  Each leaf is digested as its canonical JSON text, in
which every float is its shortest round-trip repr, so a one-ulp change to any
number changes the digest.  The golden record of a dataset holds one digest
per leaf plus a SHA-256 of every CSV the fit wrote.

Comparison is exact but additive-safe: only leaves and files named by the
golden record are compared, and list elements that are objects are cut down
to the keys they had when the golden record was taken.  A field added later
is therefore ignored, while a field that disappears or changes is a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REPORT_FILE = "report.json"
CSV_FILES = (
    "residuals_parseal.csv",
    "bland_altman_parseal.csv",
    "residuals_baseline.csv",
    "bland_altman_baseline.csv",
)


def read_outputs(out_dir: str):
    """(report dict, {csv name: bytes}, total bytes written) of one fit."""
    with open(os.path.join(out_dir, REPORT_FILE), "rb") as fh:
        raw = fh.read()
    files = {}
    for name in CSV_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    written = len(raw) + sum(len(b) for b in files.values())
    return json.loads(raw), files, written


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flatten(report: dict, list_keys: dict | None = None, prefix: str = "") -> dict:
    """``path -> leaf`` through nested objects; object list items projected."""
    list_keys = list_keys or {}
    out = {}
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, list_keys, path + "."))
        elif isinstance(value, list) and path in list_keys:
            keep = list_keys[path]
            out[path] = [
                {k: v for k, v in item.items() if k in keep} if isinstance(item, dict) else item
                for item in value
            ]
        else:
            out[path] = value
    return out


def object_list_keys(report: dict, prefix: str = "") -> dict:
    """``path -> sorted keys`` of every list whose items are objects."""
    out = {}
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(object_list_keys(value, path + "."))
        elif isinstance(value, list):
            keys = set()
            for item in value:
                if isinstance(item, dict):
                    keys.update(item)
            if keys:
                out[path] = sorted(keys)
    return out


def record(report: dict, files: dict, list_keys: dict | None = None) -> dict:
    """Per-leaf digests of a report plus per-file SHA-256s."""
    fields = {
        path: sha256(_canonical(value).encode())
        for path, value in flatten(report, list_keys).items()
    }
    return {"fields": fields, "files": {name: sha256(data) for name, data in files.items()}}


def compare(golden: dict, current: dict) -> list:
    """Every golden leaf or file that is missing from, or differs in, ``current``."""
    problems = []
    for path, digest in sorted(golden["fields"].items()):
        got = current["fields"].get(path)
        if got is None:
            problems.append(f"report field {path} is missing")
        elif got != digest:
            problems.append(f"report field {path} differs from the golden output")
    for name, digest in sorted(golden["files"].items()):
        got = current["files"].get(name)
        if got is None:
            problems.append(f"{name} was not written")
        elif got != digest:
            problems.append(f"{name} differs from the golden output")
    return problems


def digest(current: dict, known_fields=None, known_files=None) -> str:
    """One SHA-256 over a record, restricted to the given field and file names."""
    h = hashlib.sha256()
    for path in sorted(current["fields"]):
        if known_fields is None or path in known_fields:
            h.update(f"{path}={current['fields'][path]}\n".encode())
    for name in sorted(current["files"]):
        if known_files is None or name in known_files:
            h.update(f"{name}={current['files'][name]}\n".encode())
    return h.hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def invariants(case, response, report: dict, files: dict) -> list:
    """Checks that hold for any seed, golden output or not."""
    problems = []
    model = report.get("selected_model")
    if not isinstance(model, dict) or not model.get("terms"):
        return ["report has no selected model"]
    n = len(response)
    if model.get("n_obs") != n:
        problems.append(f"selected model reports n_obs {model.get('n_obs')}, expected {n}")
    cap = report.get("config", {}).get("vif_cap", 10.0)
    if any(v >= cap for v in model.get("vifs", [])):
        problems.append(f"selected model has a VIF at or above the cap {cap}")

    if case.exact_terms is not None and tuple(model["terms"]) not in case.exact_terms:
        problems.append(f"selected terms {model['terms']}, expected one of {case.exact_terms}")
    if model.get("r_squared_adj", -math.inf) < case.min_r2_adj:
        problems.append(
            f"adjusted R^2 {model.get('r_squared_adj')} is below {case.min_r2_adj}"
        )

    text = files.get("residuals_parseal.csv")
    if text is None:
        return problems + ["residuals_parseal.csv was not written"]
    rows = text.decode().splitlines()
    if rows[0] != "observed,fitted,residual" or len(rows) != n + 1:
        return problems + ["residuals_parseal.csv has the wrong header or row count"]
    rss = 0.0
    worst = 0.0
    for i, row in enumerate(rows[1:]):
        o, f, r = (float(v) for v in row.split(","))
        if o != float(response[i]) or o - f != r:
            return problems + [f"residuals_parseal.csv row {i} is inconsistent"]
        rss += r * r
        worst = max(worst, abs(r))
    if case.exact_terms is not None and worst > 1e-7 * max(abs(float(v)) for v in response):
        problems.append(f"the exact example leaves a residual of {worst!r}")
    mean = math.fsum(float(v) for v in response) / n
    tss = math.fsum((float(v) - mean) ** 2 for v in response)
    if not _close(1.0 - rss / tss, model["r_squared"], 1e-9):
        problems.append("R^2 from residuals_parseal.csv does not match the report")
    return problems
