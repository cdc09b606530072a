"""The benchmark's workloads and the seeded generators behind them.

Every run draws a small pool of datasets from its ``--seed``; the closed loop
cycles through that pool.  Dataset ``i`` of run seed ``s`` uses dataset seed
``s * POOL_STRIDE + i``, so the same run seed always yields the same inputs.

``search_heavy`` and ``dict_heavy`` share one generator: six positive inputs
drawn U[0.5, 10] and a smooth response (a product, a reciprocal, a root and a
log term) plus Gaussian noise with 5% of the signal's standard deviation.
The inputs come from the fixed ``DESIGN_KEY`` and only the noise comes from
the dataset seed (a fixed-design regression).  That keeps the amount of work
per fit the same for every seed -- 19 screened terms and 5,035 candidate
subsets on ``search_heavy`` -- while the response, the selected model and
every output byte still change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POOL_STRIDE = 16
MAX_SEED = 2**40

# Philox key of the fixed input columns of the smooth-response workloads.
DESIGN_KEY = 4
SMOOTH_INPUTS = 6
NOISE_SHARE = 0.05


def column_stream(seed: int, column: int) -> np.random.Generator:
    """Per-column Philox stream keyed by ``(seed, column)``."""
    key = np.array([np.uint64(seed), np.uint64(column)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def smooth_response(dataset_cls, n: int, noise_seed: int):
    """Six U[0.5, 10] inputs from ``DESIGN_KEY``; noisy smooth response."""
    x = [0.5 + 9.5 * column_stream(DESIGN_KEY, i).random(n) for i in range(SMOOTH_INPUTS)]
    signal = 2.0 * x[0] * x[1] + 30.0 / x[2] + 12.0 * np.sqrt(x[3]) + 15.0 * np.log(x[4])
    noise = column_stream(noise_seed, SMOOTH_INPUTS).standard_normal(n)
    y = signal + NOISE_SHARE * float(signal.std()) * noise
    return dataset_cls(
        variable_names=tuple(f"x{i + 1}" for i in range(SMOOTH_INPUTS)),
        columns=np.column_stack(x),
        response_name="y",
        response=y,
    )


@dataclass(frozen=True)
class Case:
    """One dataset of a run's pool plus the ``parseal fit`` flags it runs with."""

    name: str
    dataset_seed: int
    make: object  # callable(parseal) -> Dataset
    flags: tuple  # beyond --response, --alpha and --mixture
    alpha: int = 2
    mixture: int = 2
    # Paper examples fit exactly, with one of these term lists.  In example 2,
    # x1/x2 = 100 - 10/x2 (and x3 == x1), so all three are the same model and
    # last-bit rounding in screening decides which one is kept.
    exact_terms: tuple | None = None
    # Noisy workloads: the selected model's adjusted R^2 must reach this.
    min_r2_adj: float = 0.0


@dataclass(frozen=True)
class Workload:
    """A named dataset pool; BENCHMARK.json and README.md say why each exists."""

    name: str
    pool: int
    cases_for: object  # callable(dataset_seed) -> list[Case]

    def cases(self, seed: int) -> list:
        if not 0 <= seed < MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2**40), got {seed}")
        out = []
        for i in range(self.pool):
            out.extend(self.cases_for(seed * POOL_STRIDE + i))
        return out


def _paper_cases(dataset_seed: int) -> list:
    n = 1000
    return [
        Case(
            name=f"ex1-d{dataset_seed}",
            dataset_seed=dataset_seed,
            make=lambda ps, s=dataset_seed: ps.synth_example1(n=n, seed=s),
            flags=("--varsigma", "0.5", "--baseline"),
            exact_terms=(("x1*x3",),),
        ),
        Case(
            name=f"ex2-d{dataset_seed}",
            dataset_seed=dataset_seed,
            make=lambda ps, s=dataset_seed: ps.synth_example2(n=n, seed=s),
            flags=("--baseline",),
            exact_terms=(("1/x2",), ("x1/x2",), ("x3/x2",)),
        ),
    ]


def _search_cases(dataset_seed: int) -> list:
    return [
        Case(
            name=f"search-d{dataset_seed}",
            dataset_seed=dataset_seed,
            make=lambda ps, s=dataset_seed: smooth_response(ps.Dataset, 2000, s),
            flags=("--varsigma", "0.8", "--max-terms", "4"),
            min_r2_adj=0.9,
        )
    ]


def _dict_cases(dataset_seed: int) -> list:
    return [
        Case(
            name=f"dict-d{dataset_seed}",
            dataset_seed=dataset_seed,
            make=lambda ps, s=dataset_seed: smooth_response(ps.Dataset, 1000, s),
            flags=("--varsigma", "0.9", "--search", "greedy_forward"),
            mixture=3,
            min_r2_adj=0.95,
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_examples", 4, _paper_cases),
        Workload("search_heavy", 2, _search_cases),
        Workload("dict_heavy", 2, _dict_cases),
    )
}


def fit_argv(case: Case, input_path: str, out_dir: str, stable: bool = True) -> list:
    """Arguments of the ``parseal fit`` call that one timed fit makes."""
    argv = [
        "fit", "--input", input_path, "--response", "y",
        "--alpha", str(case.alpha), "--mixture", str(case.mixture), *case.flags,
        "--out-dir", out_dir,
    ]
    if stable:
        argv.append("--stable-output")
    return argv
