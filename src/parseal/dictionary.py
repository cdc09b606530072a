"""Transformation dictionary: candidate terms built from the input columns.

A *factor* is one transformed variable, ``x_i^e`` with a rational exponent
(half-integers come from powers of sqrt(x)) or ``log(x_i)^e`` with an integer
exponent.  A *term* multiplies factors of up to ``mixture`` distinct
variables, one factor each.  Which factors are admissible is decided from the
data itself: square roots and logs need strictly positive columns, negative
powers need columns bounded away from zero, and negative log powers
additionally need ``log(x)`` bounded away from zero.

Terms are canonical by construction -- ``(sqrt x)^2`` folds to ``x`` -- and
are ordered lexicographically by their canonical key so every build is
deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DictionaryTooLarge, DomainViolation, NonFinite

# Entries with magnitude at or below this count as zero for admissibility.
ZERO_TOL = 1e-12

# Terms whose evaluated column is (numerically) constant are pruned.
_CONSTANT_SD_REL = 1e-12

IDENTITY = "identity"
LOG = "log"

DEFAULT_TERM_BUDGET = 200_000

# Term rows are formed this many at a time, in key order.  On a 21,560-term
# dictionary, 16-row blocks made the whole fit about 5% slower (the per-call
# cost of the constant check) and 256-row blocks built 20% slower.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class Factor:
    """One transformed variable inside a term."""

    variable_index: int
    transform: str
    exponent: Fraction

    def __post_init__(self):
        if self.variable_index < 0:
            raise ValueError(f"variable_index must be >= 0, got {self.variable_index}")
        if self.transform not in (IDENTITY, LOG):
            raise ValueError(f"unknown transform {self.transform!r}")
        exponent = Fraction(self.exponent)
        if exponent == 0:
            raise ValueError("factor exponents must be nonzero")
        if self.transform == LOG and exponent.denominator != 1:
            raise ValueError("log factors take integer exponents only")
        if self.transform == IDENTITY and exponent.denominator not in (1, 2):
            raise ValueError("identity exponents must be integers or half-integers")
        object.__setattr__(self, "exponent", exponent)


@dataclass(frozen=True)
class TermExpr:
    """A product of factors over distinct variables, sorted by variable.

    ``key`` is the term's canonical key, rendered once when the term is
    made; it takes no part in equality or hashing.
    """

    factors: tuple
    key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        factors = tuple(sorted(self.factors, key=lambda f: f.variable_index))
        if not factors:
            raise ValueError("a term needs at least one factor")
        indices = [f.variable_index for f in factors]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate variable indices in term: {indices}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "key", "*".join(_factor_key(f) for f in factors))

    @classmethod
    def _of_sorted(cls, factors: tuple, key: str) -> "TermExpr":
        """A term from factors already sorted by distinct variable index.

        The dictionary builder enumerates factors that way and has already
        joined their keys, so it skips the sort, the checks and the
        rendering ``__post_init__`` would repeat for every term.
        """
        term = object.__new__(cls)
        object.__setattr__(term, "factors", factors)
        object.__setattr__(term, "key", key)
        return term

    @property
    def variables(self) -> tuple:
        return tuple(f.variable_index for f in self.factors)


def _factor_key(f: Factor) -> str:
    if f.transform == LOG:
        return f"log(v{f.variable_index})^{f.exponent.numerator}"
    return f"v{f.variable_index}^{f.exponent.numerator}/{f.exponent.denominator}"


def canonical_key(term: TermExpr) -> str:
    """Injective, sortable string form: ``v0^1/2*log(v2)^-1`` style."""
    return term.key


def _format_factor(f: Factor, name: str) -> str:
    a = abs(f.exponent)
    if f.transform == LOG:
        base = f"log({name})"
        return base if a == 1 else f"({base})^{a.numerator}"
    if a.denominator == 1:
        return name if a == 1 else f"{name}^{a.numerator}"
    root = f"sqrt({name})"
    return root if a.numerator == 1 else f"{root}^{a.numerator}"


def format_term(term: TermExpr, names) -> str:
    """Human-readable rendering, e.g. ``D*A`` or ``A^2/sqrt(D)``."""
    numerator = []
    denominator = []
    for f in term.factors:
        rendered = _format_factor(f, names[f.variable_index])
        (numerator if f.exponent > 0 else denominator).append(rendered)
    num = "*".join(numerator) if numerator else "1"
    if not denominator:
        return num
    if len(denominator) == 1:
        return f"{num}/{denominator[0]}"
    return f"{num}/({'*'.join(denominator)})"


def _admissible_with_reasons(column: np.ndarray, alpha: int):
    """Canonical (transform, exponent) pairs for one column plus skip reasons."""
    col = np.asarray(column, dtype=np.float64)
    strictly_positive = bool(np.min(col) > 0.0)
    bounded_from_zero = bool(np.min(np.abs(col)) > ZERO_TOL)

    pairs = set()
    reasons = []
    for k in range(1, alpha + 1):
        pairs.add((IDENTITY, Fraction(k)))
    if bounded_from_zero:
        for k in range(1, alpha + 1):
            pairs.add((IDENTITY, Fraction(-k)))
    else:
        reasons.append("negative powers excluded: entries within 1e-12 of zero")
    if strictly_positive:
        # Half-integer exponents are odd powers of sqrt(x); even powers fold
        # back into the integer exponents above.
        for j in range(1, alpha + 1, 2):
            pairs.add((IDENTITY, Fraction(j, 2)))
            if bounded_from_zero:
                pairs.add((IDENTITY, Fraction(-j, 2)))
        logs = np.log(col)
        log_bounded = bool(np.min(np.abs(logs)) > ZERO_TOL)
        for k in range(1, alpha + 1):
            pairs.add((LOG, Fraction(k)))
            if log_bounded:
                pairs.add((LOG, Fraction(-k)))
        if not log_bounded:
            reasons.append("negative log powers excluded: entries with log(x) within 1e-12 of zero")
    else:
        reasons.append("log and square-root powers excluded: column not strictly positive")
    return pairs, reasons


def admissible_factors(column, alpha: int) -> frozenset:
    """The set of (transform, exponent) pairs admissible for one column."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    col = np.asarray(column, dtype=np.float64)
    if not np.all(np.isfinite(col)):
        raise NonFinite("column contains NaN or infinite entries")
    pairs, _ = _admissible_with_reasons(col, alpha)
    return frozenset(pairs)


@dataclass(frozen=True)
class DictionaryCensus:
    """Build accounting: candidate/kept counts and everything excluded."""

    candidate_terms: int
    kept_terms: int
    candidates_by_mixture: dict
    kept_by_mixture: dict
    excluded_terms: tuple  # (canonical key, reason) pairs
    factor_restrictions: dict  # variable name -> tuple of reasons

    def to_dict(self) -> dict:
        return {
            "candidate_terms": self.candidate_terms,
            "kept_terms": self.kept_terms,
            "candidates_by_mixture": {str(m): c for m, c in sorted(self.candidates_by_mixture.items())},
            "kept_by_mixture": {str(m): c for m, c in sorted(self.kept_by_mixture.items())},
            "excluded_terms": [
                {"term": key, "reason": reason} for key, reason in self.excluded_terms
            ],
            "factor_restrictions": {
                name: list(reasons) for name, reasons in sorted(self.factor_restrictions.items())
            },
        }


class Dictionary:
    """Candidate terms, ordered by canonical key, and the rows that evaluate them.

    Every term's values are a product of *factor rows*, the rows of an (F, n)
    array, multiplied left to right.  Row t of the (T, m) integer *recipe*
    lists term t's factor-row indices in factor order; a term of fewer than m
    factors is padded with an all-ones factor row, which changes no bit
    (``x * 1.0 == x``).  ``_form`` gathers and multiplies them.

    So the term rows are formed on demand: ``blocks`` streams all of them,
    ``subset`` forms only the requested ones, and no (n, T) matrix of every
    term has to exist.  A dictionary made from a matrix is the case of one
    factor row per term.

    Parameters
    ----------
    terms : sequence of TermExpr
    columns : array, shape (n, len(terms))
        The terms' evaluated columns.
    source_labels : sequence of str
        Input variable names, for rendering terms.
    census : DictionaryCensus, optional
    """

    def __init__(self, terms, columns, source_labels, census=None):
        cols = np.asarray(columns, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[1] != len(terms):
            raise ValueError(
                f"need an (n, {len(terms)}) column matrix, got shape {cols.shape}"
            )
        cols.setflags(write=False)
        recipe = np.arange(len(terms))[:, None]
        self._assign(terms, np.ascontiguousarray(cols.T), recipe, source_labels, census)
        self._columns = cols

    @classmethod
    def _of_recipe(cls, terms, factor_rows, recipe, source_labels, census):
        """A dictionary whose term rows are formed from ``factor_rows`` on demand."""
        z = object.__new__(cls)
        z._assign(terms, factor_rows, recipe, source_labels, census)
        z._columns = None
        return z

    def _assign(self, terms, factor_rows, recipe, source_labels, census):
        factor_rows.setflags(write=False)
        self.terms = tuple(terms)
        self.source_labels = tuple(source_labels)
        self.census = census
        self._factor_rows = factor_rows
        self._recipe = recipe

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def n(self) -> int:
        return self._factor_rows.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """The (n, T) matrix of every term, formed on first access and kept."""
        if self._columns is None:
            self._columns = self._formed(self._recipe).T
        return self._columns

    def keys(self) -> list:
        return [t.key for t in self.terms]

    def labels(self) -> list:
        return [format_term(t, self.source_labels) for t in self.terms]

    def column(self, i: int) -> np.ndarray:
        return _form(self._factor_rows, self._recipe[[i]])[0]

    def blocks(self):
        """(term indices, (k, n) rows) of every term, a block at a time.

        Blocks come in key order, each holding the C-contiguous rows of the
        next ``_BLOCK_ROWS`` terms.
        """
        for start in range(0, len(self), _BLOCK_ROWS):
            block = _form(self._factor_rows, self._recipe[start:start + _BLOCK_ROWS])
            yield np.arange(start, start + len(block)), block

    def _formed(self, recipe) -> np.ndarray:
        """The read-only (k, n) rows of ``recipe``'s terms, formed a block at a time."""
        rows = np.empty((len(recipe), self.n))
        for start in range(0, len(recipe), _BLOCK_ROWS):
            rows[start:start + _BLOCK_ROWS] = _form(
                self._factor_rows, recipe[start:start + _BLOCK_ROWS]
            )
        rows.setflags(write=False)
        return rows

    def subset(self, indices) -> "Dictionary":
        """The requested terms, with only their rows formed.

        ``columns`` is the transpose of the (k, n) rows: an F-ordered (n, k)
        array, the layout numpy's fancy-index copy of a matrix gives.
        """
        indices = list(indices)
        return Dictionary(
            terms=tuple(self.terms[i] for i in indices),
            columns=self._formed(self._recipe[indices]).T,
            source_labels=self.source_labels,
            census=None,
        )


def _form(factor_rows: np.ndarray, recipe: np.ndarray) -> np.ndarray:
    """The (k, n) rows of the terms whose factor-row indices are ``recipe``'s rows.

    Factors are multiplied left to right, in factor order, exactly as
    ``evaluate_term`` multiplies, so every row carries the bits the per-term
    evaluation gives; a product that overflows is left inf or NaN for the
    caller to judge.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = factor_rows[recipe[:, 0]]
        for j in range(1, recipe.shape[1]):
            rows *= factor_rows[recipe[:, j]]
    return rows


def _evaluate_factor(f: Factor, col: np.ndarray) -> np.ndarray:
    needs_positive = f.transform == LOG or f.exponent.denominator == 2
    if needs_positive:
        bad = np.flatnonzero(col <= 0.0)
        if bad.size:
            raise DomainViolation(
                f"row {bad[0]}: {f.transform} factor needs strictly positive entries "
                f"(found {col[bad[0]]!r})",
                row=int(bad[0]),
                factor=f,
            )
    if f.exponent < 0:
        if f.transform == IDENTITY:
            bad = np.flatnonzero(np.abs(col) <= ZERO_TOL)
            if bad.size:
                raise DomainViolation(
                    f"row {bad[0]}: negative power needs entries bounded away from zero",
                    row=int(bad[0]),
                    factor=f,
                )
        else:
            bad = np.flatnonzero(np.abs(np.log(col)) <= ZERO_TOL)
            if bad.size:
                raise DomainViolation(
                    f"row {bad[0]}: negative log power needs log(x) bounded away from zero",
                    row=int(bad[0]),
                    factor=f,
                )
    if f.transform == LOG:
        return np.log(col) ** int(f.exponent)
    base = col if f.exponent.denominator == 1 else np.sqrt(col)
    return base ** f.exponent.numerator


def evaluate_term(term: TermExpr, dataset) -> np.ndarray:
    """Evaluate one term on a dataset (anything with an (n, p) ``columns``).

    Domain violations are defensive: the builder only emits admissible
    factors, so hitting one means the data changed under us.
    """
    columns = np.asarray(getattr(dataset, "columns", dataset), dtype=np.float64)
    out = None
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        for f in term.factors:
            values = _evaluate_factor(f, columns[:, f.variable_index])
            out = values if out is None else out * values
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise DomainViolation(
            f"row {bad}: term {canonical_key(term)} evaluated to a non-finite value",
            row=bad,
            factor=term.factors[0],
        )
    return out


def _is_constant(values: np.ndarray):
    """Whether a vector -- or each row of a 2-d block -- is numerically constant.

    Row sums run along the contiguous axis, in the order a 1-d vector's do,
    so a row's verdict is the one the vector alone would get.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sd = values.std(axis=-1)
        return sd <= _CONSTANT_SD_REL * np.abs(values.mean(axis=-1)) + 1e-300


def build_dictionary(
    dataset,
    alpha: int,
    mixture: int,
    budget: int = DEFAULT_TERM_BUDGET,
) -> Dictionary:
    """Enumerate, evaluate, and order every admissible term of a dataset.

    Parameters
    ----------
    dataset : Dataset
        Anything with an (n, p) ``columns`` array and ``variable_names``.
    alpha : int
        Largest absolute integer exponent.
    mixture : int
        Largest number of distinct variables per term.
    budget : int
        Hard cap on the candidate term count, checked before evaluation.

    Raises
    ------
    DictionaryTooLarge
        If the candidate count exceeds ``budget``.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if mixture < 1:
        raise ValueError(f"mixture must be >= 1, got {mixture}")
    columns = np.asarray(dataset.columns, dtype=np.float64)
    if columns.ndim != 2 or columns.shape[1] == 0:
        raise ValueError(f"need a 2-d (n, p) column matrix, got shape {columns.shape}")
    if not np.all(np.isfinite(columns)):
        raise NonFinite("input columns contain NaN or infinite entries")
    p = columns.shape[1]
    names = tuple(str(nm) for nm in dataset.variable_names)
    if len(names) != p:
        raise ValueError(f"got {len(names)} names for {p} columns")
    mixture = min(mixture, p)

    per_variable = []
    restrictions = {}
    for i in range(p):
        pairs, reasons = _admissible_with_reasons(columns[:, i], alpha)
        per_variable.append(sorted(pairs))  # deterministic enumeration order
        if reasons:
            restrictions[names[i]] = tuple(reasons)

    sizes = [len(pairs) for pairs in per_variable]
    candidates_by_mixture = {}
    for m in range(1, mixture + 1):
        count = 0
        for combo in itertools.combinations(range(p), m):
            count += math.prod(sizes[i] for i in combo)
        candidates_by_mixture[m] = count
    candidate_total = sum(candidates_by_mixture.values())
    if candidate_total > budget:
        raise DictionaryTooLarge(candidate_total, budget)

    # One Factor, one evaluated row and one key string per admissible
    # (variable, transform, exponent); every term only multiplies these.
    # The last factor row is all ones, the padding of shorter terms' recipes.
    factors = [[Factor(i, t, e) for t, e in pairs] for i, pairs in enumerate(per_variable)]
    with np.errstate(over="ignore"):  # an overflowing term is raised below
        factor_rows = np.stack(
            [_evaluate_factor(f, columns[:, f.variable_index]) for fs in factors for f in fs]
            + [np.ones(columns.shape[0])]
        )
    factor_keys = [[_factor_key(f) for f in fs] for fs in factors]
    first_row = np.cumsum([0] + sizes)

    keys = []
    choices = []
    recipes = []
    for m in range(1, mixture + 1):
        for combo in itertools.combinations(range(p), m):
            keys += map("*".join, itertools.product(*(factor_keys[i] for i in combo)))
            choices += itertools.product(*(factors[i] for i in combo))
            # The combination's Cartesian product, row-major as above.
            local = np.indices([sizes[i] for i in combo]).reshape(m, -1).T
            recipe = np.full((len(local), mixture), len(factor_rows) - 1)
            recipe[:, :m] = local + first_row[list(combo)]
            recipes.append(recipe)
    order = np.array(sorted(range(candidate_total), key=keys.__getitem__), dtype=np.intp)
    recipe = np.concatenate(recipes)[order]

    # Which terms are finite and which are constant, in key order.  No row
    # is kept: the dictionary forms them again when they are asked for.
    finite = np.empty(candidate_total, dtype=bool)
    constant = np.zeros(candidate_total, dtype=bool)
    for start in range(0, candidate_total, _BLOCK_ROWS):
        block = _form(factor_rows, recipe[start:start + _BLOCK_ROWS])
        span = slice(start, start + len(block))
        finite[span] = np.isfinite(block).all(axis=1)
        if finite[span].all():
            constant[span] = _is_constant(block)
    if not finite.all():
        # Raises the error of the lowest-keyed non-finite term.
        evaluate_term(TermExpr(choices[order[np.argmin(finite)]]), columns)

    kept = ~constant
    kept_terms = [TermExpr._of_sorted(choices[e], keys[e]) for e in order[kept].tolist()]
    kept_by_mixture = {m: 0 for m in range(1, mixture + 1)}
    for term in kept_terms:
        kept_by_mixture[len(term.factors)] += 1
    excluded = [(keys[e], "constant column") for e in order[constant].tolist()]

    census = DictionaryCensus(
        candidate_terms=candidate_total,
        kept_terms=len(kept_terms),
        candidates_by_mixture=candidates_by_mixture,
        kept_by_mixture=kept_by_mixture,
        excluded_terms=tuple(excluded),
        factor_restrictions=restrictions,
    )
    return Dictionary._of_recipe(kept_terms, factor_rows, recipe[kept], names, census)
