"""Per-step reference for the asynchronous iteration.

At every tick a subset sigma of agents replaces its state with the matrix
average while everyone else holds still; this is equivalent to applying the
iteration matrix ``A_sigma`` whose non-updating rows are elementary.  The
reference keeps the running left product ``A_{sigma_k} ... A_{sigma_1}``,
so ``x(k+1) = product . x(1)`` at every step.

The library runs every trajectory through ``montecarlo.trajectory_blocks``,
the one caller of ``_kernels.trajectory_batch``; nothing in it steps one
tick at a time.  ``step`` is kept as the plain, independent
implementation the kernel is tested against, and it stays in the package
because the span tracer of ``perfbench/tracer.py`` resolves ``engine.step``
among its ``TARGETS``.

States are immutable values; ``step`` returns a new state, so trajectories
can be shared or branched freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .matrices import PRODUCT_ROW_SUM_TOL, StochasticMatrix, max_discrepancy
from .schedulers import normalize_update_set


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
