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

from .errors import DictionaryTooLarge, DomainViolation, EmptyMatrix, LengthMismatch, NonFinite
from .gram import _U, _gamma, _row_pass
from .stats import center

# Entries with magnitude at or below this count as zero for admissibility.
ZERO_TOL = 1e-12

# Terms whose evaluated column is (numerically) constant are pruned.
_CONSTANT_SD_REL = 1e-12

IDENTITY = "identity"
LOG = "log"

DEFAULT_TERM_BUDGET = 200_000

# Term rows are formed, centered and dotted this many at a time, in key
# order.  Whole fits took longer than at 32 with 16-row blocks (21,560 terms,
# 19 of 20 rounds) and with 64-row blocks (n = 2000, 20 of 20 rounds).
_BLOCK_ROWS = 32

# Centered-row norms outside [_TINY, _HUGE] may have over- or underflowed in
# a dot product, so no rounding band decides anything about them.
_TINY, _HUGE = 2.0**-400, 2.0**500


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

    @property
    def variables(self) -> tuple:
        return tuple(f.variable_index for f in self.factors)


def _factor_key(f: Factor) -> str:
    if f.transform == LOG:
        return f"log(v{f.variable_index})^{f.exponent.numerator}"
    return f"v{f.variable_index}^{f.exponent.numerator}/{f.exponent.denominator}"


def _raw_key(variable_index: int) -> str:
    return _factor_key(Factor(variable_index, IDENTITY, Fraction(1)))


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


def _admissible_with_reasons(col: np.ndarray, alpha: int):
    """Canonical (transform, exponent) pairs for one float64 column plus skip reasons."""
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

    So the term rows are formed only when they are read: ``blocks`` streams
    them, ``subset`` is a view that shares the factor rows and takes the
    requested rows of the recipe, and no (n, T) matrix of every term has to
    exist.  A dictionary made from a matrix is the case of one factor row
    per term.

    A term is its key until it is read: ``keys``, ``len`` and ``subset``
    read ``_keys``, an object array of the key strings, and ``terms`` makes
    a view's ``TermExpr``s the first time it is read, from ``_factors``, the
    ``Factor`` of each factor row but the padding.

    A built dictionary also carries ``_dots``: the response, and each term's
    row mean, centered norm and centered response product from the builder's
    one pass; ``subset`` slices them and ``row_statistics`` reads them.

    Parameters
    ----------
    terms : sequence of TermExpr
    columns : array, shape (n, len(terms))
        The terms' evaluated columns.
    source_labels : sequence of str
        Input variable names, for rendering terms.
    """

    def __init__(self, terms, columns, source_labels):
        terms = tuple(terms)
        rows = np.array(columns, dtype=np.float64, order="F").T  # a C-ordered copy, not a view
        if rows.ndim != 2 or rows.shape[0] != len(terms):
            raise ValueError(
                f"need an (n, {len(terms)}) column matrix, got shape {rows.T.shape}"
            )
        keys = np.array([t.key for t in terms], dtype=object)
        recipe = np.arange(len(terms))[:, None]
        self._assign(keys, terms, None, rows, recipe, source_labels, None, None)

    @classmethod
    def _of_recipe(cls, keys, terms, factors, factor_rows, recipe, source_labels, census, dots):
        """A dictionary whose term rows are formed from ``factor_rows`` on demand."""
        z = object.__new__(cls)
        z._assign(keys, terms, factors, factor_rows, recipe, source_labels, census, dots)
        return z

    def _assign(self, keys, terms, factors, factor_rows, recipe, source_labels, census, dots):
        factor_rows.setflags(write=False)
        self._keys = keys
        self._terms = terms
        self._factors = factors
        self.source_labels = tuple(source_labels)
        self.census = census
        self._factor_rows = factor_rows
        self._recipe = recipe
        self._dots = dots

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def n(self) -> int:
        return self._factor_rows.shape[1]

    @property
    def terms(self) -> tuple:
        """The ``TermExpr`` of every term, made the first time they are read."""
        if self._terms is None:
            self._terms = tuple(_term(self._factors, row) for row in self._recipe.tolist())
        return self._terms

    def keys(self) -> list:
        return self._keys.tolist()

    def blocks(self):
        """(term indices, (k, n) rows) of every term, a block at a time.

        Blocks come in the dictionary's order, each holding the
        C-contiguous rows of the next ``_BLOCK_ROWS`` terms.
        """
        for start, block in _blocks(self._factor_rows, self._recipe):
            yield np.arange(start, start + len(block)), block

    def row_statistics(self, y: np.ndarray):
        """Each term's row mean, centered norm and dot product with ``y`` centered: the
        ones carried for ``y``'s bits, or else those of one more ``_centered_dots`` pass."""
        if self._dots is not None and self._dots[0].tobytes() == y.tobytes():
            return self._dots[1:]
        blocks = _blocks(self._factor_rows, self._recipe)
        means, squares, products = _centered_dots(blocks, len(self), center(y, "response").values)
        # Only a row with a NaN square may hold a NaN or inf.
        for _, block in _blocks(self._factor_rows, self._recipe[np.isnan(squares)]):
            if not np.isfinite(block).all():
                raise NonFinite("vector contains NaN or infinite entries")
        return means, np.sqrt(squares), products

    def subset(self, indices) -> "Dictionary":
        """A view of the requested terms: the same factor rows, and no row or term formed."""
        indices = np.asarray(indices, dtype=np.intp)
        terms = self._terms
        if terms is not None:
            terms = tuple(map(terms.__getitem__, indices.tolist()))
        dots = self._dots
        if dots is not None:
            dots = (dots[0],) + tuple(a[indices] for a in dots[1:])
        return Dictionary._of_recipe(
            self._keys[indices],
            terms,
            self._factors,
            self._factor_rows,
            self._recipe[indices],
            self.source_labels,
            None,
            dots,
        )

    def rows(self, indices) -> np.ndarray:
        """The (k, n) rows of the requested terms, with the bits ``blocks`` gives them."""
        return _form(self._factor_rows, self._recipe[np.asarray(indices, dtype=np.intp)])


def _term(factors, row) -> TermExpr:
    """The term whose factor-row indices are ``row``; indices past ``factors`` are padding."""
    return TermExpr(tuple(factors[j] for j in row if j < len(factors)))


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


def _blocks(factor_rows: np.ndarray, recipe: np.ndarray):
    """(first index, (k, n) rows) of the terms of ``recipe``, ``_BLOCK_ROWS`` at a time."""
    for start in range(0, len(recipe), _BLOCK_ROWS):
        yield start, _form(factor_rows, recipe[start:start + _BLOCK_ROWS])


def _prefix_blocks(factor_rows: np.ndarray, runs):
    """(first index, (k, n) rows) of the terms of ``runs``, in their order.

    A run is a combination's (prefixes, last): the factor-row indices of the
    products of all its factors but the last, and of the last variable's k
    factors.  Each chunk of ceil(``_BLOCK_ROWS`` / k) prefixes is formed once
    and multiplied by the k last rows, row-major, into one reused buffer;
    the multiply commutes, so every row has ``_form``'s bits.
    """
    n = factor_rows.shape[1]
    buffer = np.empty((max(-(-_BLOCK_ROWS // len(last)) * len(last) for _, last in runs), n))
    start = 0
    for prefixes, last in runs:
        last = factor_rows[last]
        step = -(-_BLOCK_ROWS // len(last))
        for a in range(0, len(prefixes), step):
            prefix = _form(factor_rows, prefixes[a:a + step])
            block = buffer[:len(prefix) * len(last)]
            np.multiply(prefix[:, None], last, out=block.reshape(len(prefix), len(last), n))
            yield start, block
            start += len(block)


def _centered_dots(blocks, count: int, yc: np.ndarray):
    """Row means, ``row.dot(row)`` and ``row.dot(yc)`` of the centered rows
    of ``blocks``, (first index, (k, n) rows) pairs covering ``count`` rows.

    Each block is centered once, in place, and each row takes the ddots
    ``pearson_correlation`` takes: numpy's matmul gives each stacked
    (1, n) @ (n, 1) product to the 1-d dot kernel ``ndarray.dot`` calls, so
    a block takes both with two calls.  A row holding a NaN or inf centers
    to a NaN, so its square is NaN.
    """
    means = np.empty(count)
    squares = np.empty(count)
    products = np.empty(count)
    with _row_pass() as size:  # the blocks are formed inside it too
        for start, block in blocks:
            stop = start + len(block)
            # block.mean(axis=1) at the caller's buffer, and block - mean in place.
            small = np.setbufsize(size)
            means[start:stop] = np.add.reduce(block, 1) / block.shape[1]
            np.setbufsize(small)
            np.subtract(block, means[start:stop, None], out=block)
            squares[start:stop] = (block[:, None, :] @ block[:, :, None])[:, 0, 0]
            products[start:stop] = (block[:, None, :] @ yc[:, None])[:, 0, 0]
    return means, squares, products


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
        Anything with an (n, p) ``columns`` array, ``variable_names`` and an
        (n,) ``response``.  The builder's one pass over the term rows also
        takes each row's mean, centered norm and centered response product,
        which the returned dictionary carries to screening and the search.
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
    EmptyMatrix
        If the dataset has no input column besides the response.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if mixture < 1:
        raise ValueError(f"mixture must be >= 1, got {mixture}")
    columns = np.asarray(dataset.columns, dtype=np.float64)
    if columns.ndim != 2:
        raise ValueError(f"need a 2-d (n, p) column matrix, got shape {columns.shape}")
    if columns.shape[1] == 0:
        response_name = getattr(dataset, "response_name", "the response")
        raise EmptyMatrix(f"no input column is left once the response {response_name!r} is taken")
    if not np.all(np.isfinite(columns)):
        raise NonFinite("input columns contain NaN or infinite entries")
    response = np.array(dataset.response, dtype=np.float64)
    if response.shape != (len(columns),):
        raise LengthMismatch(f"response shape {response.shape} does not match {len(columns)} rows")
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
    factors = [Factor(i, t, e) for i, pairs in enumerate(per_variable) for t, e in pairs]
    with np.errstate(over="ignore"):  # an overflowing term is raised below
        factor_rows = np.stack(
            [_evaluate_factor(f, columns[:, f.variable_index]) for f in factors]
            + [np.ones(columns.shape[0])]
        )
    first_row = np.cumsum([0] + sizes)
    factor_keys = [[_factor_key(f) for f in factors[a:b]] for a, b in zip(first_row, first_row[1:])]

    keys = []
    recipes = []
    runs = []  # (prefixes, last) of each combination, for _prefix_blocks
    for m in range(1, mixture + 1):
        for combo in itertools.combinations(range(p), m):
            keys += map("*".join, itertools.product(*(factor_keys[i] for i in combo)))
            # The combination's Cartesian product, row-major as above.
            local = np.indices([sizes[i] for i in combo]).reshape(m, -1).T
            recipe = np.full((len(local), mixture), len(factors))
            recipe[:, :m] = local + first_row[list(combo)]
            recipes.append(recipe)
            k = sizes[combo[-1]]
            # A lone factor's prefix is the all-ones padding row.
            prefixes = recipe[::k, :m - 1] if m > 1 else np.full((1, 1), len(factors))
            runs.append((prefixes, recipe[:k, m - 1]))
    order = np.array(sorted(range(candidate_total), key=keys.__getitem__))
    keys = np.array(keys, dtype=object)[order]
    recipe = np.concatenate(recipes)[order]

    # The one pass that forms the candidates' rows.  _is_constant compares
    # sd = sqrt(pairwise sum of c * c / n) with t = 1e-12 |mean| + 1e-300.
    # The pass has the same mean and deviations c, and their ddot; each of
    # two length-n sums of the same squares lies within gamma(n) of the exact
    # sum (Higham, ASNA 2nd ed., eq. 3.5), so the norm and sqrt(n) sd differ
    # by about gamma(n) relative.  A norm further than 2 gamma(n) + 16 u from
    # t sqrt(n), a band that also covers the sqrts, the divide and the
    # limit's own rounding, therefore has _is_constant's verdict.  Rows
    # inside the band, or with a norm that may have under- or overflowed, go
    # to _is_constant itself.
    yc = center(response, "response")
    with np.errstate(over="ignore", invalid="ignore"):
        # The pass runs in enumeration order; its results are put in key order.
        stats = _centered_dots(_prefix_blocks(factor_rows, runs), candidate_total, yc.values)
        means, squares, products = (a[order] for a in stats)
        norms = np.sqrt(squares)
        limit = (_CONSTANT_SD_REL * np.abs(means) + 1e-300) * math.sqrt(columns.shape[0])
        band = 2.0 * _gamma(columns.shape[0]) + 16.0 * _U
        constant = norms < limit
        clear = (norms < limit * (1.0 - band)) | (norms > limit * (1.0 + band))
        unclear = np.flatnonzero(~(clear & (norms >= _TINY) & (norms <= _HUGE)))
    # A row holding a NaN or inf has a NaN norm, so it is unclear too.
    for start, block in _blocks(factor_rows, recipe[unclear]):
        bad = ~np.isfinite(block).all(axis=1)
        if bad.any():
            # Raises the error of the lowest-keyed non-finite term.
            i = unclear[start + np.argmax(bad)]
            evaluate_term(_term(factors, recipe[i].tolist()), columns)
        constant[unclear[start:start + len(block)]] = _is_constant(block)

    kept = np.flatnonzero(~constant)
    sizes_kept = np.count_nonzero(recipe[kept] < len(factors), axis=1)
    kept_by_mixture = {m: int(np.count_nonzero(sizes_kept == m)) for m in range(1, mixture + 1)}
    excluded = [(key, "constant column") for key in keys[constant].tolist()]

    census = DictionaryCensus(
        candidate_terms=candidate_total,
        kept_terms=len(kept),
        candidates_by_mixture=candidates_by_mixture,
        kept_by_mixture=kept_by_mixture,
        excluded_terms=tuple(excluded),
        factor_restrictions=restrictions,
    )
    dots = (response, means[kept], norms[kept], products[kept])
    return Dictionary._of_recipe(
        keys[kept], None, factors, factor_rows, recipe[kept], names, census, dots
    )
