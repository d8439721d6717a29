"""Hot inner loops: trajectory evolution and cycle-walk simulation.

Both kernels are pure numpy, vectorised across trials, which they store on
the last, contiguous axis, so each per-step reduction over the n agents is
n-1 element-wise operations on length-T vectors.

The trajectory kernel walks the horizon in chunks of
``C = max(1, min(K, CHUNK_BYTES // (8 n T)))`` steps.  Each step does only
the state and product updates and the raw reductions (the states, the
pairs' shared mass and the product's row sums, stored per step); each chunk
then derives the discrepancies, the coefficients and the maxima of the
three checks in place.  These are the element-wise operations of a per-step
loop and a maximum does not depend on order, so the outputs are bitwise
those of stepping one step at a time, and every check still covers every
trial and every step.  After each chunk the kernel stops early when
``A @ x`` equals ``x`` bit for bit for every trial (compared as ``uint64``
so that 0.0 and -0.0 differ), and ``A @ P`` equals ``P`` when lambda is
tracked.  Those products have the shapes of the per-step ones, so they are
the bits a further step would compute: no mask can change the state again,
and the rest of each series repeats its last value.  No trial is dropped
on its own, since a narrower ``matmul`` may round differently.
"""
from __future__ import annotations

import numpy as np

CHUNK_BYTES = 64 * 1024  # per-chunk series buffer of the trajectory kernel


def _shared_mass(P, pairs, work, out):
    """``min over a < b of sum_c min(P[a, c], P[b, c])`` for each matrix of
    an (n, n, T) stack, into ``out`` (T,); 1 when n = 1, so lambda is 0.

    ``pairs`` holds the row indices ``(a, b)`` of every pair with ``a < b``;
    ``work`` is ``((2, pairs, n, T), (pairs, T))`` buffers.
    """
    if P.shape[0] == 1:
        out[...] = 1.0
        return
    (a, b), ((Pa, Pb), S) = pairs, work
    # mode="clip" lets take write straight into out (the indices are valid)
    np.take(P, a, axis=0, out=Pa, mode="clip")
    np.take(P, b, axis=0, out=Pb, mode="clip")
    np.minimum(Pa, Pb, out=Pa).sum(axis=1, out=S).min(axis=0, out=out)


def _fixed(A, Z, AZ):
    """True when ``A @ Z`` equals ``Z`` bit for bit (``AZ`` receives it)."""
    np.matmul(A, Z, out=AZ)
    return np.array_equal(AZ.view(np.uint64), Z.view(np.uint64))


def trajectory_batch(A, masks, x0, track_lambda=True):
    """Evolve a batch of asynchronous-update trajectories.

    Trials sit on the last axis: the state is (n, T), the product
    (n, n, T) and the series (K+1, T).  Sums over columns run in sequential
    order, as in ``tests/_oracles.py::trajectory_batch_trials_first``.  The
    horizon is walked in chunks and stops at an exact fixed point (see the
    module docstring).  Every buffer is allocated once: fresh per-step
    temporaries make the allocator return and refault their pages every
    step, which costs more than the arithmetic.

    Parameters
    ----------
    A : (n, n) row-stochastic coupling matrix.
    masks : (T, K, n) bool; ``masks[t, k, i]`` is True when agent ``i+1``
        updates at step ``k+1`` of trial ``t``.
    x0 : (T, n) initial states.
    track_lambda : also accumulate the left product and its ergodic
        coefficient.  200 trials x 5000 steps of ``six_node_coupled`` under
        ``uniform_clock6`` take about 0.38 s with it and 0.012 s without
        (best of 5 on a 2-vCPU x86 virtual machine, whose speed drifts by
        up to 1.6x between runs): without it the state is an exact fixed
        point within about 900 steps and the kernel stops there, while the
        product only becomes one after its vanishing entries underflow,
        past 13000 steps.

    Returns
    -------
    deltas : (T, K+1) max-minus-min discrepancy after each step.
    lams : (T, K+1) ergodic coefficient of the accumulated product
        (all ones when ``track_lambda`` is off; read-only).
    x_final : (T, n) final states.
    viol_contract : (T,) max over k of ``delta_k - lam_k * delta_0``.
    viol_mono : (T,) max over k of ``lam_k - lam_{k-1}``.
    row_err : (T,) max row-sum error of the accumulated product.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    masks = np.ascontiguousarray(masks, dtype=bool)
    T, K, n = masks.shape
    C = max(1, min(K, CHUNK_BYTES // max(1, 8 * n * T)))
    x = np.asarray(x0, dtype=np.float64).T.copy()
    Ax = np.empty_like(x)
    xs = np.empty((C, n, T))
    w = np.empty((C, T))
    wT = np.empty(T)
    deltas = np.empty((K + 1, T))
    viol_contract = np.zeros(T)
    viol_mono = np.zeros(T)
    row_err = np.zeros(T)
    deltas[0] = x.max(axis=0) - x.min(axis=0)
    d0 = deltas[0]
    if track_lambda:
        lams = np.empty((K + 1, T))
        pairs = np.triu_indices(n, 1)
        work = (np.empty((2, len(pairs[0]), n, T)), np.empty((len(pairs[0]), T)))
        P = np.repeat(np.eye(n)[:, :, None], T, axis=2)
        AP = np.empty_like(P)
        P2, AP2 = P.reshape(n, n * T), AP.reshape(n, n * T)
        rs = np.empty((C, n, T))
        shared = np.empty((C, T))
        _shared_mass(P, pairs, work, shared[0])
        np.clip(1.0 - shared[0], 0.0, 1.0, out=lams[0])
    else:
        lams = np.broadcast_to(1.0, (K + 1, T))
    for k0 in range(0, K, C):
        c = min(C, K - k0)
        for i in range(c):
            m = masks[:, k0 + i].T
            np.matmul(A, x, out=Ax)
            np.copyto(x, Ax, where=m)
            xs[i] = x
            if track_lambda:
                np.matmul(A, P2, out=AP2)
                np.copyto(P, AP, where=m[:, None, :])
                _shared_mass(P, pairs, work, shared[i])
                P.sum(axis=1, out=rs[i])
        k1 = k0 + c
        D, W = deltas[k0 + 1:k1 + 1], w[:c]
        np.max(xs[:c], axis=1, out=D)
        np.subtract(D, np.min(xs[:c], axis=1, out=W), out=D)
        if track_lambda:
            L, R = lams[k0 + 1:k1 + 1], rs[:c]
            np.clip(np.subtract(1.0, shared[:c], out=L), 0.0, 1.0, out=L)
            np.subtract(D, np.multiply(L, d0, out=W), out=W)
            np.maximum(viol_contract, W.max(axis=0, out=wT), out=viol_contract)
            np.subtract(L, lams[k0:k1], out=W)
            np.maximum(viol_mono, W.max(axis=0, out=wT), out=viol_mono)
            np.abs(np.subtract(R, 1.0, out=R), out=R)
            np.maximum(row_err, R.max(axis=(0, 1), out=wT), out=row_err)
        if k1 < K and _fixed(A, x, Ax) and (not track_lambda or _fixed(A, P2, AP2)):
            deltas[k1 + 1:] = deltas[k1]
            if track_lambda:
                lams[k1 + 1:] = lams[k1]
            break
    return deltas.T, lams.T, x.T, viol_contract, viol_mono, row_err


def walk_match_batch(labels, starts, uniforms, t_move_j, t_move_i, t_stay):
    """First label-match times for a batch of backward cycle walks.

    ``labels`` maps 0-based cycle positions to labels; ``starts`` is (T, 2)
    0-based positions at the start of the block; ``uniforms`` is a (T, S)
    block of pre-drawn uniforms, one per transition (S may be 0).
    Thresholds partition [0, 1) into the four moves: j steps back, i steps
    back, both stay, both step back.  Returns (T,) first times at which the
    two labels coincide, counted from 1 at ``starts``, so a match after the
    s-th transition of the block reads s + 1; -1 if none within the block.
    """
    labels = np.asarray(labels, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    l = labels.shape[0]
    T, steps = uniforms.shape
    i = starts[:, 0].copy()
    j = starts[:, 1].copy()
    hits = np.where(labels[i] == labels[j], 1, -1).astype(np.int64)
    for k in range(steps):
        alive = hits < 0
        if not alive.any():
            break
        u = uniforms[:, k]
        move_j = alive & (u < t_move_j)
        move_i = alive & (u >= t_move_j) & (u < t_move_i)
        move_b = alive & (u >= t_stay)
        j = np.where(move_j | move_b, (j - 1) % l, j)
        i = np.where(move_i | move_b, (i - 1) % l, i)
        matched = alive & (labels[i] == labels[j])
        hits[matched] = k + 2
    return hits


def backend_name() -> str:
    """Kernel implementation recorded in result summaries."""
    return "numpy"
