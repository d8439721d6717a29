"""Independent oracle implementations the library code must agree with.

Everything here is written as plain loops or brute-force enumeration, on
purpose: these are the reference answers, kept free of the library's own
shortcuts.
"""
import csv
import io
from itertools import product

import numpy as np

from async_dca import ergodic_coefficient, initial_state, step, stream


def half_l1_coefficient(A):
    """(1/2) max over row pairs of the L1 distance between the rows."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return 0.0
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, 0.5 * float(np.abs(A[i] - A[j]).sum()))
    return worst


def pairwise_min_coefficient(A):
    """1 - min over row pairs of the summed entrywise minima, by plain loops."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return 0.0
    best = float("inf")
    for i in range(n):
        for j in range(i + 1, n):
            s = 0.0
            for c in range(n):
                s += min(A[i, c], A[j, c])
            best = min(best, s)
    return 1.0 - best


def rows_share_support(A):
    """Scrambling oracle: every pair of rows has a commonly positive column."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if not ((A[i] > 0) & (A[j] > 0)).any():
                return False
    return True


def zero_one_discrepancy_sup(A):
    """max of Delta(Ax) over nonconstant 0/1 vectors x (Delta(x) = 1)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    best = 0.0
    for bits in product((0.0, 1.0), repeat=n):
        if len(set(bits)) < 2:
            continue
        y = A @ np.array(bits)
        best = max(best, float(y.max() - y.min()))
    return best


def power_sia_oracle(A, squarings=20):
    """SIA by power iteration: the coefficient of A^(2^m) either collapses
    toward 0 (powers converge to rank one) or sticks at exactly 1 (some pair
    of rows keeps disjoint support forever, as under periodicity or multiple
    closed classes).  Raises if the sample is ambiguous.
    """
    B = np.asarray(A, dtype=float).copy()
    for _ in range(squarings):
        if half_l1_coefficient(B) < 1.0 - 1e-6:
            return True
        B = B @ B
    lam = half_l1_coefficient(B)
    if lam < 1.0 - 1e-6:
        return True
    if lam > 1.0 - 1e-9:
        return False
    raise AssertionError(f"power oracle undecided: coefficient {lam}")


def bfs_reachable(n, edges, start):
    adj = {u: [] for u in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def bfs_roots(n, edges):
    """Roots by brute force: BFS from every node."""
    full = set(range(1, n + 1))
    return {r for r in full if bfs_reachable(n, edges, r) == full}


# The numpy trajectory kernel as first written: trials on the leading axis,
# every per-step reduction over a trailing axis of length n.  The library
# kernel stores trials last and must reproduce these outputs bit for bit.

def ergodic_batch_trials_first(P: np.ndarray) -> np.ndarray:
    """Ergodic coefficient of each matrix in a (T, n, n) stack."""
    n = P.shape[1]
    if n == 1:
        return np.zeros(P.shape[0])
    shared = np.minimum(P[:, :, None, :], P[:, None, :, :]).sum(axis=3)
    shared[:, np.eye(n, dtype=bool)] = np.inf
    lam = 1.0 - shared.reshape(P.shape[0], -1).min(axis=1)
    return np.clip(lam, 0.0, 1.0)


def trajectory_batch_trials_first(A, masks, x0, track_lambda=True):
    A = np.ascontiguousarray(A, dtype=np.float64)
    masks = np.ascontiguousarray(masks, dtype=bool)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    T, K, n = masks.shape
    x = x0.copy()
    deltas = np.empty((T, K + 1))
    lams = np.ones((T, K + 1))
    viol_contract = np.zeros(T)
    viol_mono = np.zeros(T)
    row_err = np.zeros(T)
    deltas[:, 0] = x.max(axis=1) - x.min(axis=1)
    d0 = deltas[:, 0]
    if track_lambda:
        P = np.broadcast_to(np.eye(n), (T, n, n)).copy()
        lams[:, 0] = ergodic_batch_trials_first(P)
    for k in range(K):
        m = masks[:, k, :]
        x = np.where(m, x @ A.T, x)
        deltas[:, k + 1] = x.max(axis=1) - x.min(axis=1)
        if track_lambda:
            P = np.where(m[:, :, None], np.matmul(A, P), P)
            lam_k = ergodic_batch_trials_first(P)
            lams[:, k + 1] = lam_k
            viol_contract = np.maximum(viol_contract, deltas[:, k + 1] - lam_k * d0)
            viol_mono = np.maximum(viol_mono, lam_k - lams[:, k])
            row_err = np.maximum(row_err, np.abs(P.sum(axis=2) - 1.0).max(axis=1))
    return deltas, lams, x, viol_contract, viol_mono, row_err


# ``async-dca simulate`` as first written: one scheduler draw, one
# ``engine.step`` and one ``ergodic_coefficient`` per tick, rows written as
# they are produced.  The CLI now runs the trajectory kernel once and must
# write the same bytes.

def simulate_rows_engine(A, scheduler, steps, seed, x0=None, track=True):
    """CSV text of ``simulate`` for ``x0`` (None draws it from the stream)."""
    rng = stream(seed, 0)
    if x0 is None:
        x0 = rng.uniform(-1.0, 1.0, A.n)
    state = initial_state(x0, track_product=track)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    header = ["k", "delta"] + (["lambda_product"] if track else [])
    writer.writerow(header)
    history: list = []
    for _ in range(steps):
        sigma = scheduler.draw(history, rng)
        history.append(sigma)
        state = step(state, A, sigma)
        row = [state.k - 1, state.delta()]
        if track:
            row.append(ergodic_coefficient(state.product))
        writer.writerow(row)
    return fh.getvalue()
