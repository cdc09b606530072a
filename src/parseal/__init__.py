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
from .linalg import DesignMatrix, QRFactorization, qr_factorize
from .pipeline import TOOL_VERSION as __version__, RunReport, run_pipeline
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
    ModelFit,
    ols_fit,
    p_value_two_sided,
    pearson_correlation,
    vif,
)

__all__ = [
    "Dataset",
    "DesignMatrix",
    "Dictionary",
    "Factor",
    "ImportanceRule",
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
    "synth_example1",
    "synth_example2",
    "vif",
    "write_csv",
]
