"""Asynchronous iteration of a coupling matrix.

At every tick a subset sigma of agents replaces its state with the matrix
average while everyone else holds still; this is equivalent to applying the
iteration matrix ``A_sigma`` whose non-updating rows are elementary.  The
engine keeps the running left product ``A_{sigma_k} ... A_{sigma_1}``, so
``x(k+1) = product . x(1)`` at every step.

States are immutable values; ``step`` returns a new state, so trajectories
can be shared or branched freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matrices import PRODUCT_ROW_SUM_TOL, StochasticMatrix, max_discrepancy


def normalize_update_set(sigma, n: int) -> frozenset:
    """Coerce an agent index or an iterable of indices to a frozenset.

    A bare integer j and the one-element set {j} are the same update set.
    """
    if isinstance(sigma, (int, np.integer)):
        members = frozenset({int(sigma)})
    else:
        members = frozenset(int(j) for j in sigma)
    for j in members:
        if not 1 <= j <= n:
            raise ValidationError(f"update-set member {j} out of range 1..{n}")
    return members


def make_async_matrix(A: StochasticMatrix, sigma) -> StochasticMatrix:
    """Row j of A where j updates, the elementary row e_j elsewhere."""
    members = normalize_update_set(sigma, A.n)
    out = np.eye(A.n)
    for j in members:
        out[j - 1, :] = A.entries[j - 1, :]
    return StochasticMatrix(out)


@dataclass(frozen=True, eq=False)
class TrajectoryState:
    """One point of an asynchronous run: tick count, state and running product."""

    k: int
    x: np.ndarray
    product: StochasticMatrix | None

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"state vector must be 1-d nonempty, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size

    def delta(self) -> float:
        return max_discrepancy(self.x)


def initial_state(x1, track_product: bool = True) -> TrajectoryState:
    """Trajectory at tick 1, before any update has been applied."""
    x = np.asarray(x1, dtype=np.float64)
    product = StochasticMatrix(np.eye(x.size)) if track_product else None
    return TrajectoryState(k=1, x=x, product=product)


def step(state: TrajectoryState, A: StochasticMatrix, sigma) -> TrajectoryState:
    """Apply one asynchronous update x' = A_sigma x and extend the product."""
    if A.n != state.n:
        raise DimensionError(f"matrix is {A.n}x{A.n} but state has {state.n} agents")
    members = normalize_update_set(sigma, A.n)
    rows = [j - 1 for j in sorted(members)]
    x = state.x.copy()
    x[rows] = A.entries[rows] @ state.x
    product = None
    if state.product is not None:
        entries = state.product.entries.copy()
        entries[rows] = A.entries[rows] @ state.product.entries
        product = StochasticMatrix(entries, tol=PRODUCT_ROW_SUM_TOL)
    return TrajectoryState(k=state.k + 1, x=x, product=product)


def run_script(A: StochasticMatrix, schedule, x1, track_product: bool = True) -> TrajectoryState:
    """Fold ``step`` over a fixed list of update sets."""
    state = initial_state(x1, track_product=track_product)
    for sigma in schedule:
        state = step(state, A, sigma)
    return state
