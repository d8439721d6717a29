"""Row-stochastic matrices and the scalar functionals built on them.

Conventions
-----------
* A matrix ``A = (a_ij)`` is row stochastic when every entry is nonnegative
  and every row sums to one (tolerance ``ROW_SUM_TOL`` on construction,
  ``PRODUCT_ROW_SUM_TOL`` after products).
* The maximal discrepancy of a state vector is ``max_i x_i - min_i x_i``;
  consensus means it tends to zero.
* The ergodic coefficient is
  ``lam(A) = 1 - min_{i != j} sum_k min(a_ik, a_jk)``.
  It is the contraction factor of the discrepancy, it is submultiplicative
  over products, and ``lam(A) < 1`` (a "scrambling" matrix) exactly when
  every pair of rows shares a column with positive entries.
* Values are immutable after construction and all operations are pure, so
  everything here is safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError

ROW_SUM_TOL = 1e-12
PRODUCT_ROW_SUM_TOL = 1e-10
SCRAMBLING_TOL = 1e-12


def _integer(value, what: str) -> int:
    """``value`` as an int; ValidationError unless it is an integral number
    (``1.5``, ``"1"``, ``True`` and ``None`` are not)."""
    try:
        if int(value) == value and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _reals(values, what: str) -> np.ndarray:
    """``values``, a number or nested lists of numbers as JSON holds them, as
    a float64 array; ValidationError for a ragged nesting, naming the first
    entry whose length differs from the first entries' at its depth, or for
    any entry that is not a number, such as the strings and booleans float64
    would convert."""
    shape, v = [], values
    while isinstance(v, list):
        shape.append(len(v))
        v = v[0] if v else None

    def check(v, at):
        depth = len(at)
        if depth < len(shape) and isinstance(v, list) and len(v) == shape[depth]:
            for k, item in enumerate(v, 1):
                check(item, at + [k])
        elif depth < len(shape) or isinstance(v, list):
            want = f"a list of length {shape[depth]}" if depth < len(shape) else "a number"
            got = f"a list of length {len(v)}" if isinstance(v, list) else repr(v)
            raise ValidationError(f"{what} is ragged: the entry at index {at} is {got}, not {want}")
        elif isinstance(v, bool) or not isinstance(v, Real):
            raise ValidationError(f"{what} holds a non-numeric entry {v!r} at index {at}")

    check(values, [])
    try:
        return np.array(values, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is not an array of numbers: {exc}") from exc


def _stochastic(entries, axis: int, tol: float) -> np.ndarray:
    """A read-only float64 copy of a nonempty square nonnegative matrix whose
    sums along ``axis`` (1: rows, 0: columns) are one within ``tol``."""
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(f"non-finite entry at row {i + 1}, column {j + 1}")
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise ValidationError(f"negative entry at row {i + 1}, column {j + 1}")
    sums = arr.sum(axis=axis)
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        i = int(np.argmax(bad))
        what = "row" if axis == 1 else "column"
        raise ValidationError(f"{what} {i + 1} sums to {float(sums[i])!r}, not 1 within {tol}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Validated row-stochastic matrix; entries are read-only after init."""

    entries: np.ndarray
    tol: float = ROW_SUM_TOL

    def __post_init__(self):
        object.__setattr__(self, "entries", _stochastic(self.entries, 1, self.tol))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def min_positive_entry(self) -> float:
        """The minimal strictly positive entry (delta in scrambling bounds)."""
        pos = self.entries[self.entries > 0]
        return float(pos.min())

    @classmethod
    def from_json(cls, obj: dict) -> "StochasticMatrix":
        try:
            n = _integer(obj["n"], "matrix 'n'")
            arr = _reals(obj["rows"], "'rows'")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"matrix JSON needs 'n' and 'rows': {exc}") from exc
        if arr.shape != (n, n):
            raise ValidationError(f"'rows' is not an {n}x{n} array")
        return cls(arr)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[float(v) for v in row] for row in self.entries]}

    @classmethod
    def load(cls, path) -> "StochasticMatrix":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self.n})"


@dataclass(frozen=True, eq=False)
class ColumnStochasticMatrix:
    """Square nonnegative matrix whose columns each sum to one.

    Used for Markov transition laws: entry (i, j) is the probability of
    moving from state j to state i.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _stochastic(self.entries, 0, ROW_SUM_TOL))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _entries(A) -> np.ndarray:
    if isinstance(A, (StochasticMatrix, ColumnStochasticMatrix)):
        return A.entries
    return StochasticMatrix(A).entries


def max_discrepancy(x) -> float:
    """max_i x_i - min_i x_i of a state vector (0 iff all entries equal)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a nonempty 1-d state vector, got shape {arr.shape}")
    return float(arr.max() - arr.min())


def ergodic_coefficient(A) -> float:
    """1 - min over row pairs of the summed entrywise minima, in [0, 1].

    Returns 0 for a 1x1 matrix by convention (there is no row pair to
    compare and a single agent is trivially in consensus).
    """
    arr = _entries(A)
    n = arr.shape[0]
    if n == 1:
        return 0.0
    # each pair's minima are added column by column, left to right, as the
    # trajectory kernel adds them, so both give the same bits
    shared = np.zeros((n, n))
    for c in range(n):
        shared += np.minimum.outer(arr[:, c], arr[:, c])
    shared[np.eye(n, dtype=bool)] = np.inf
    return float(np.clip(1.0 - shared.min(), 0.0, 1.0))


def is_scrambling(A) -> bool:
    """True when every pair of rows shares a positively weighted column."""
    return ergodic_coefficient(A) < 1.0 - SCRAMBLING_TOL
