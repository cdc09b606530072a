#!/usr/bin/env python3
"""Write the golden outputs of every workload's default-seed dataset pool.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Each dataset of the run-seed-0 pool is fitted once with the benchmark's own
flags; its report leaves and CSVs are digested into
``perfbench/golden/<workload>.json``.  Rerun only when the program's output is
meant to change, and say so in the change that does it.
"""

import json
import sys

import outputs
import run
from workloads import WORKLOADS, fit_argv

GOLDEN_SEED = 0


def golden_for(parseal, workload) -> dict:
    run_dir = run.WORK_DIR / f"golden-{workload.name}"
    try:
        run.fresh_dir(run_dir)
        datasets = {}
        for case, csv_path, response in run.prepare(parseal, workload, GOLDEN_SEED, run_dir):
            out_dir = run.fresh_dir(run_dir / "out")
            code = run.run_fit(parseal.cli.main, fit_argv(case, csv_path, out_dir))
            if code != 0:
                raise SystemExit(f"{case.name}: parseal fit exited with {code}")
            report, files, _ = outputs.read_outputs(out_dir)
            problems = outputs.invariants(case, response, report, files)
            if problems:
                raise SystemExit(f"{case.name}: {'; '.join(problems)}")
            datasets[case.name] = (report, files)
    finally:
        run.shutil.rmtree(run_dir, ignore_errors=True)
    list_keys = {}
    for report, _ in datasets.values():
        for path, keys in outputs.object_list_keys(report).items():
            list_keys[path] = sorted(set(list_keys.get(path, [])) | set(keys))
    return {
        "workload": workload.name,
        "seed": GOLDEN_SEED,
        "list_keys": list_keys,
        "datasets": {
            name: outputs.record(report, files, list_keys)
            for name, (report, files) in datasets.items()
        },
    }


def main(names) -> int:
    parseal = run.load_parseal()
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        golden = golden_for(parseal, WORKLOADS[name])
        path = run.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(golden['datasets'])} datasets)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
