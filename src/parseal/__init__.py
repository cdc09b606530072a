"""Automatic variable transformation and VIF-capped best-subset regression.

The pipeline builds a dictionary of power/log transformations and their
cross-variable products, screens it by correlation importance and pairwise
redundancy, then exhaustively searches the survivors for the feasible subset
(full rank, every VIF under the cap) with the largest adjusted R^2.
"""

from .data import Dataset, load_csv, synth_example1, synth_example2, write_csv
from .dictionary import (
    Dictionary,
    Factor,
    TermExpr,
    admissible_factors,
    build_dictionary,
    canonical_key,
    evaluate_term,
    format_term,
)
from .errors import ParsealError
from .linalg import DesignMatrix, LstSqSolution, QRFactorization, qr_factorize, solve_least_squares
from .pipeline import RunReport, run_pipeline
from .screening import (
    ImportanceRule,
    ScreeningReport,
    importance_filter,
    redundancy_filter,
    screen,
)
from .selection import (
    SelectedModel,
    SelectionConfig,
    baseline_best_subset,
    best_subset_search,
    greedy_forward_search,
)
from .stats import (
    BlandAltmanSummary,
    ModelFit,
    bland_altman,
    ols_fit,
    p_value_two_sided,
    pearson_correlation,
    vif,
)

__version__ = "0.1.0"

__all__ = [
    "BlandAltmanSummary",
    "Dataset",
    "DesignMatrix",
    "Dictionary",
    "Factor",
    "ImportanceRule",
    "LstSqSolution",
    "ModelFit",
    "ParsealError",
    "QRFactorization",
    "RunReport",
    "ScreeningReport",
    "SelectedModel",
    "SelectionConfig",
    "TermExpr",
    "admissible_factors",
    "baseline_best_subset",
    "best_subset_search",
    "bland_altman",
    "build_dictionary",
    "canonical_key",
    "evaluate_term",
    "format_term",
    "greedy_forward_search",
    "importance_filter",
    "load_csv",
    "ols_fit",
    "p_value_two_sided",
    "pearson_correlation",
    "qr_factorize",
    "redundancy_filter",
    "run_pipeline",
    "screen",
    "solve_least_squares",
    "synth_example1",
    "synth_example2",
    "vif",
    "write_csv",
]
