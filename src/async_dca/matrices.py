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
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError

ROW_SUM_TOL = 1e-12
PRODUCT_ROW_SUM_TOL = 1e-10
SCRAMBLING_TOL = 1e-12


def _integer(value, what: str) -> int:
    """``value`` as an int; ValidationError unless it is an integral number
    (``1.5``, ``"1"`` and ``None`` are not)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _as_square_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(f"non-finite entry at row {i + 1}, column {j + 1}")
    return arr


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Validated row-stochastic matrix; entries are read-only after init."""

    entries: np.ndarray
    tol: float = ROW_SUM_TOL

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        if (arr < 0).any():
            i, j = np.argwhere(arr < 0)[0]
            raise ValidationError(f"negative entry at row {i + 1}, column {j + 1}")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > self.tol
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"row {i + 1} sums to {float(sums[i])!r}, not 1 within {self.tol}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

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
            rows = obj["rows"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"matrix JSON needs 'n' and 'rows': {exc}") from exc
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError(f"'rows' is not an {n}x{n} array")
        try:
            entries = np.array(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"'rows' holds a non-numeric entry: {exc}") from exc
        return cls(entries)

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
    tol: float = ROW_SUM_TOL

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        if (arr < 0).any():
            i, j = np.argwhere(arr < 0)[0]
            raise ValidationError(f"negative entry at row {i + 1}, column {j + 1}")
        sums = arr.sum(axis=0)
        bad = np.abs(sums - 1.0) > self.tol
        if bad.any():
            j = int(np.argmax(bad))
            raise ValidationError(
                f"column {j + 1} sums to {float(sums[j])!r}, not 1 within {self.tol}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

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
    shared = np.minimum(arr[:, None, :], arr[None, :, :]).sum(axis=2)
    shared[np.eye(n, dtype=bool)] = np.inf
    return float(np.clip(1.0 - shared.min(), 0.0, 1.0))


def is_scrambling(A) -> bool:
    """True when every pair of rows shares a positively weighted column."""
    return ergodic_coefficient(A) < 1.0 - SCRAMBLING_TOL
