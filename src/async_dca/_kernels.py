"""Hot inner loops: trajectory evolution and cycle-walk simulation.

Both kernels are pure numpy and vectorised across trials.  The trajectory
kernel stores the trials on the last, contiguous axis, so each per-step
reduction over the n agents is n-1 element-wise operations on length-T
vectors.  The walk kernel has no loop over transitions or trials: it walks
the block it is given in a fixed number of numpy passes, steps-major, and
its caller sizes the block (see ``walk_match_batch``).  ``CHUNK_BYTES``
sizes the trajectory kernel alone.

The trajectory kernel is resumable.  The caller builds the run's ``Carry``
and passes it with each block of steps: the states, the accumulated
products, the last coefficients, the initial discrepancies, the maxima of
the three checks and the exit-test schedule.  Each call returns one row of
discrepancies and coefficients per step it ran, steps first, and the
carry.  Only the carry, chunk buffers included, lives from block to block,
so a batch needs O(T n^3 + n CHUNK_BYTES) memory plus what the caller
keeps of the blocks.

Inside a block the state and the accumulated product step together as
one array ``Q = [x | P]`` of shape (n, m, T) (see ``Carry``).  A batch
steps by ``A @ Q`` into the next entry of a series, then restores the rows
of the agents that did not update by a bit blend of the ``uint64`` views,
``AZ ^= (AZ ^ Z) & M``, with ``M`` all ones where an agent keeps its row:
the same bits as ``putmask``, -0.0 and subnormals included, but without
its branch per entry, which random masks mispredict about half the time.
``M`` is built at shape (C, n, 1, T) by one call per chunk and broadcast
over the m columns, and a step takes its operands from views made once
per batch.  A lone trial steps by its tick's own matrix ``A_sigma``: the
rows of A for the agents that update, of the identity for the rest.  The
``A_sigma`` of ``G = CHUNK_BYTES // (16 n^2)`` ticks (113 at n = 6) are
built at a time by two calls, and each tick is then one ``matmul`` into a
ring of G + 1 states, run by ``deque(map(np.matmul, ...))`` over views
made once per batch, so a step makes no view and runs no Python bytecode;
the ring is copied into the chunk's series after each group.  An updated row is the
row of the same gemm, and an identity row returns its row bit for bit
when the entries are finite, except a -0.0, which it reads as +0.0: a lone
trial that starts with a -0.0 therefore steps as a batch does.
The kernel walks chunks of ``C = max(1, min(B, CHUNK_BYTES // (8 n T)))``
steps, so that a chunk's states take about ``CHUNK_BYTES``, keeps the
chunk's series of ``Q`` (m times that: 470 KB with lambda at n = 6 and
T = 200), and then reduces the series once per chunk: the discrepancies
from the state column, the product's row sums and their maximum error, and
each step's shared mass ``s`` (below), written straight into the block's
rows of coefficients.  After the last chunk one pass over the rows that ran
finishes them: ``lambda = clip(1 - s, 0, 1)``, then the maxima of the
contraction and monotonicity checks, the first row against the carry's
last coefficient, in groups of rows that fit the chunk series, which is
free by then.  Every sum over columns runs left to right (``_reduce_left``)
for every T and n; numpy's own sum of a lone trial's contiguous columns
would go pairwise from n = 8 on.

The coefficient is ``lambda = clip(1 - s, 0, 1)`` with ``s`` the least
pair mass ``sum_c min(P[a, c], P[b, c])`` over the row pairs a < b, which
costs (n - 1) n^2 T / 2 minima a step.  Every step's masses are taken in
place, ``Gp = max(1, CHUNK_BYTES // (8 pairs n T))`` steps at a time (91
at n = 6 and T = 1, one step of every trial at T = 200), with the steps
folded into the trials (``_shared_mass``): each column sum then adds rows
of Gp T values, so a lone trial's groups cost a few calls, not a few calls
a step.  Each column's mass is summed in the same order wherever it sits,
so the outputs do not depend on which trials or steps share a reduction.

These are the element-wise operations of a per-step loop and a maximum
does not depend on order, so the outputs are bitwise those of stepping one
step at a time, whatever the block and chunk sizes, and every check still
covers every trial and every step.  Each step's product is a matrix-matrix
product even for one trial, so a trial's bits do not depend on the batch
it runs in.

After a chunk the kernel may test for an exact fixed point: ``A @ Q``
equals ``Q`` bit for bit for every trial (compared as ``uint64`` so that
0.0 and -0.0 differ), which covers the state and, when lambda is tracked,
the product.  That product has the shape of the per-step one, so it holds
the bits a further step would compute: no mask can change ``Q`` again, the
rest of each series repeats its last value, and the caller need draw no
further masks.  No trial is dropped on its own, since a narrower ``matmul``
may round differently.  The test runs after the last chunk of every block, so
no block is drawn past a fixed point that the previous one reached, and
within a block after chunk c once ``max(1, c // 16)`` chunks have passed
since the last failed test, which bounds the delay of an exit to about
1/16 of the steps run.
"""
from __future__ import annotations

from collections import deque

import numpy as np

CHUNK_BYTES = 64 * 1024  # sizes the chunks (of states), pair-min groups and A_sigma groups
TEST_BACKOFF = 16        # a failed exit test after chunk c waits c // 16 chunks


def _reduce_left(op, X, out):
    """Reduce ``X`` (..., k, T) over its axis -2 by the ufunc ``op`` left to
    right into ``out`` (..., T): ``op(op(X_0, X_1), X_2) ...``.

    When T > 1 the reduced axis is not the innermost one, and numpy's
    reduction applies ``op`` to a whole row of T at a time, in order.  When
    T is 1 it is, and numpy would sum it pairwise from eight terms on, so
    that a trial's bits would depend on the width of its batch; the terms
    are then taken one element-wise ``op`` at a time, which also takes the
    maxima and minima of a lone trial's states several times faster than
    numpy's own reduction.
    """
    if X.shape[-1] > 1:
        return op.reduce(X, axis=-2, out=out)
    np.copyto(out, X[..., 0, :])
    for j in range(1, X.shape[-2]):
        op(out, X[..., j, :], out=out)
    return out


def _shared_mass(Q, pairs, work, out):
    """``min over a < b of sum_c min(P[a, c], P[b, c])`` for the products
    ``P = Q[:, :, 1:]`` of a (G, n, n + 1, T) stack of ``Q`` (see
    ``Carry``), into ``out`` (G, T); 1 when n = 1, so lambda is 0.

    ``pairs`` holds the row indices ``(a, b)`` of every pair with ``a < b``;
    ``work`` is a (2, L) buffer for the two rows of every pair and an
    (L // (n + 1),) one for the pairs' sums, L >= G pairs (n + 1) T.  The G
    steps are folded into the trials: the rows are taken from ``Q`` as
    (n, n + 1, G T), so each column sum adds rows of G T values left to
    right, one element-wise ``add`` per column for the whole stack, and the
    bits of a step do not depend on the steps that share its stack.
    """
    G, n, m, T = Q.shape
    if n == 1:
        out[...] = 1.0
        return
    (a, b), (Qab, S) = pairs, work
    size = len(a) * m * G * T
    Qa = Qab[0, :size].reshape(len(a), m, G, T)
    Qb = Qab[1, :size].reshape(len(a), m, G, T)
    # take copies a strided input first: copy the stack once, not per take;
    # mode="clip" lets take write straight into out (the indices are valid)
    Qt = np.ascontiguousarray(Q.transpose(1, 2, 0, 3))
    np.take(Qt, a, axis=0, out=Qa, mode="clip")
    np.take(Qt, b, axis=0, out=Qb, mode="clip")
    np.minimum(Qa, Qb, out=Qa)
    S = S[:size // m].reshape(len(a), G * T)
    _reduce_left(np.add, Qa.reshape(len(a), m, G * T)[:, 1:], S).min(axis=0, out=out.reshape(-1))


def _fixed(A, Z, AZ):
    """True when ``A @ Z`` equals ``Z`` bit for bit (``AZ`` receives it)."""
    np.matmul(A, Z, out=AZ)
    return np.array_equal(AZ.view(np.uint64), Z.view(np.uint64))


class Carry:
    """What a batch of T trajectories carries from one block to the next.

    ``Q`` (n, m, T) holds the states as column 0 and, with lambda, the
    accumulated products as columns 1..n (m = n + 1); without lambda m is
    1, or 2 for a lone trial, whose second column stays zero.  ``x`` (n, T)
    is the view of the states; ``lam`` (T,) coefficients after the last
    step run, at first the identity's (1; 0 for one agent with lambda);
    ``d0`` (T,) initial discrepancies; ``viol_contract``,
    ``viol_mono`` and ``row_err`` (T,) maxima of the checks so far (see
    ``trajectory_batch``); ``fixed`` is True once the batch is an exact
    fixed point.  ``chunks`` and ``next_test`` schedule the exit test.
    ``lone`` tells that the batch is one trial stepped by its ticks'
    ``A_sigma``.  ``buffers`` holds the chunk work arrays, allocated by the
    first block and reused by every later block no longer than it: the
    series of ``Q``, then for a lone trial the ``A_sigma`` group and its
    ring of states with the views that step them, else the restore mask,
    the blend's work buffer and the views that step them, then the
    reduction rows, and with lambda the row sums and the pair-mass work.
    ``track_lambda`` tells whether ``Q`` holds the products; the caller
    passes it to every block, and ``drop_product`` turns it off for good.
    """

    def __init__(self, x0, track_lambda):
        T, n = x0.shape
        # a single column would make every step's matmul a gemv, which
        # rounds differently from the gemm of a wider batch
        self.Q = np.zeros((n, n + 1 if track_lambda else 1 + (T == 1), T))
        self.x = self.Q[:, 0]
        self.x[...] = x0.T
        self.d0 = self.x.max(axis=0) - self.x.min(axis=0)
        if track_lambda:
            self.Q[:, 1:] = np.eye(n)[:, :, None]
        # A_sigma's identity rows return a kept -0.0 as +0.0, so a lone
        # trial that starts with one steps as a batch does
        self.lone = T == 1 and not np.signbit(x0[x0 == 0]).any()
        self.lam = np.full(T, 0.0 if track_lambda and n == 1 else 1.0)
        self.viol_contract = np.zeros(T)
        self.viol_mono = np.zeros(T)
        self.row_err = np.zeros(T)
        self.chunks = 0
        self.next_test = 1
        self.fixed = False
        self.buffers = None
        self.track_lambda = track_lambda

    def drop_product(self):
        """Stop tracking the product: narrow ``Q`` to the state column (and
        a lone trial's zero column) and free the buffers sized for the wider
        ``Q``.  Each state is still a column of a gemm, so its bits do not
        change; ``lam``, ``d0``, the three maxima, ``lone`` and the exit
        test schedule stay as the last tracked step left them."""
        n, _, T = self.Q.shape
        Q = np.zeros((n, 1 + (T == 1), T))
        Q[:, 0] = self.x
        self.Q, self.x = Q, Q[:, 0]
        self.track_lambda = False
        self.buffers = None


def trajectory_batch(A, masks, carry, track_lambda=True):
    """Evolve a batch of asynchronous-update trajectories by one block of steps.

    Trials sit on the last axis inside the kernel: the state is (n, T) and
    the product (n, n, T), stepped together as ``Q = [x | P]``.  Sums over
    columns run left to right for every T and n, as in
    ``tests/_oracles.py::trajectory_batch_trials_first``.  The block is
    walked in chunks and stops early at an exact fixed point.  The chunk
    buffers are allocated once per batch and kept in the carry, only the
    returned series once per block: fresh temporaries make the allocator
    return and refault their pages, which costs more than the arithmetic.

    Parameters
    ----------
    A : (n, n) row-stochastic coupling matrix.
    masks : (T, B, n) bool; ``masks[t, k, i]`` is True when agent ``i+1``
        updates at the block's step ``k+1`` of trial ``t``.
    carry : the run's ``Carry``, built from the initial states and
        updated in place by every block.
    track_lambda : also accumulate the left product, its ergodic
        coefficient and the three checks.  Without it a batch stops as soon
        as every state is a fixed point; with it the product must be one
        too, which for ``six_node_coupled`` happens only after its vanishing
        entries underflow, past 13000 steps.  Pass ``carry.track_lambda``:
        ``run_experiment`` calls ``carry.drop_product()`` once every lambda
        tail is decided, and the later blocks then step the states alone
        (``simulate`` keeps the product to the end).

    Returns
    -------
    deltas : (R, T) max-minus-min discrepancy after each step run.
    lams : (R, T) ergodic coefficient of the accumulated product after each
        step run (all ones when ``track_lambda`` is off; read-only).
    carry : the ``Carry``.  ``carry.fixed`` tells that the block stopped at
        a fixed point, after which every later row repeats the last one.
        Its ``viol_contract`` holds the max over k of
        ``delta_k - lam_k * delta_0``, ``viol_mono`` that of
        ``lam_k - lam_{k-1}``, and ``row_err`` the max row-sum error of the
        accumulated product (all zeros without lambda).

    R is the number of steps run, B unless the block stopped early.  The
    initial row (``carry.d0`` and ``carry.lam`` of a new ``Carry``) and the
    rows of consecutive blocks, concatenated and padded by the last row up
    to the horizon, are the whole-horizon series.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    T, K, n = masks.shape
    C = max(1, min(K, CHUNK_BYTES // max(1, 8 * n * T)))
    Q, d0 = carry.Q, carry.d0
    m = Q.shape[1]
    if track_lambda:
        pairs = np.triu_indices(n, 1)
        npairs = len(pairs[0])
        # the pair minima of Gp steps at a time take about CHUNK_BYTES, or
        # one step when that is more
        Gp = max(1, CHUNK_BYTES // max(1, 8 * npairs * n * T))
    bufs = carry.buffers
    if bufs is None or len(bufs[0]) <= C:
        Qs = np.empty((C + 1, n, m, T))
        if carry.lone:
            # a group of G ticks' A_sigma takes about CHUNK_BYTES / 2; the
            # group steps in a ring of states, through views made once here
            G = min(C, max(1, CHUNK_BYTES // (16 * n * n)))
            Ak, ring = np.empty((G, n, n)), np.empty((G + 1, n, m))
            step = [Ak, (ring, list(Ak), list(ring))]
        else:
            # the blend's work buffer, and the views a step takes of the
            # series, of its uint64 words and of the mask, made once here
            M = np.empty((C, n, 1, T), dtype=np.uint64)
            step = [M, (np.empty((n, m, T), dtype=np.uint64), list(Qs.reshape(C + 1, n, m * T)),
                        list(Qs.view(np.uint64)), list(M))]
        bufs = carry.buffers = [Qs, *step, np.empty((C, T)), np.empty(T)]
        if track_lambda:
            bufs += [np.empty((C, n, T)),
                     (np.empty((2, Gp * T * npairs * m)), np.empty(Gp * T * npairs))]
    Qs, w, wT = bufs[0], bufs[3], bufs[4]
    # Qs[0] is Q before a chunk and Qs[i + 1] Q after its step i
    Qs[0] = Q
    Qs2 = Qs.reshape(len(Qs), n, m * T)
    if carry.lone:
        Ak, (ring, As, Rs) = bufs[1:3]
        G, I = len(Ak), np.eye(n)
        ring[0] = Qs2[0]
    else:
        M, (Db, Zs, Us, Ms) = bufs[1:3]
    X = Qs[:, :, 0]
    deltas = np.empty((K, T))
    viol_contract, viol_mono, row_err = carry.viol_contract, carry.viol_mono, carry.row_err
    if track_lambda:
        lams = np.empty((K + 1, T))
        rs, work = bufs[5:]
        # row 0 holds the coefficient before the block's first step
        lams[0] = carry.lam
    else:
        lams = np.broadcast_to(1.0, (K + 1, T))
    matmul, xor, and_ = np.matmul, np.bitwise_xor, np.bitwise_and
    k1 = 0
    for k0 in range(0, K, C):
        c = min(C, K - k0)
        if carry.lone:
            # tick k steps by A_sigma_k, the rows of A for the agents that
            # update and of the identity for the rest; a group runs in the
            # ring, whose last state starts the next group
            for g in range(0, c, G):
                h = min(G, c - g)
                Ak[:h] = I
                np.copyto(Ak[:h], A, where=masks[0, k0 + g:k0 + g + h, :, None])
                deque(map(matmul, As[:h], Rs, Rs[1:]), 0)
                Qs2[g + 1:g + h + 1] = ring[1:h + 1]
                ring[0] = ring[h]
        else:
            # agent i keeps row i of x and of P where it does not update:
            # its mask words are True - 1 = 0 where it updates, else all ones
            np.subtract(masks[:, k0:k0 + c].transpose(1, 2, 0)[:, :, None], np.uint64(1),
                        out=M[:c], casting="unsafe")
            for Z, AZ, Zu, AZu, Mk in zip(Zs[:c], Zs[1:c + 1], Us[:c], Us[1:c + 1], Ms):
                matmul(A, Z, AZ)
                and_(xor(AZu, Zu, Db), Mk, Db)
                xor(AZu, Db, AZu)
        k1 = k0 + c
        D, W = deltas[k0:k1], w[:c]
        _reduce_left(np.maximum, X[1:c + 1], D)
        np.subtract(D, _reduce_left(np.minimum, X[1:c + 1], W), out=D)
        if track_lambda:
            L, R, P = lams[k0 + 1:k1 + 1], rs[:c], Qs[1:c + 1, :, 1:]
            np.abs(np.subtract(_reduce_left(np.add, P, R), 1.0, out=R), out=R)
            np.maximum(row_err, R.max(axis=(0, 1), out=wT), out=row_err)
            # the shared masses go into the chunk's rows of lams
            for g in range(0, c, Gp):
                _shared_mass(Qs[1 + g:1 + min(c, g + Gp)], pairs, work, L[g:g + Gp])
        Qs[0] = Qs[c]
        carry.chunks += 1
        if k1 == K or carry.chunks >= carry.next_test:
            if _fixed(A, Qs2[0], Qs2[1]):
                carry.fixed = True
                break
            carry.next_test = carry.chunks + max(1, carry.chunks // TEST_BACKOFF)
    Q[...] = Qs[0]
    if track_lambda:
        # the rows that ran hold shared masses: finish them into lambda,
        # then take the checks' maxima against the previous coefficients,
        # in groups of rows that fit the chunk series Qs, free by now
        L = lams[1:k1 + 1]
        np.clip(np.subtract(1.0, L, out=L), 0.0, 1.0, out=L)
        span = Qs.size // T
        for a in range(1, k1 + 1, span):
            b = min(k1 + 1, a + span)
            W = Qs.reshape(-1)[:(b - a) * T].reshape(b - a, T)
            np.subtract(deltas[a - 1:b - 1], np.multiply(lams[a:b], d0, out=W), out=W)
            np.maximum(viol_contract, W.max(axis=0, out=wT), out=viol_contract)
            np.subtract(lams[a:b], lams[a - 1:b - 1], out=W)
            np.maximum(viol_mono, W.max(axis=0, out=wT), out=viol_mono)
        carry.lam = lams[k1].copy()
    return deltas[:k1], lams[1:k1 + 1], carry


def walk_match_batch(labels, starts, uniforms, t_move_j, t_move_i, t_stay):
    """First label-match times for a batch of backward cycle walks.

    ``labels`` maps 0-based cycle positions to labels; ``starts`` is a (T, 2)
    int64 array of 0-based positions at the start of the block, which the
    call advances in place to the positions at its end (a matched walk stops
    where it matched); ``uniforms`` is a (T, S) block of pre-drawn uniforms,
    one per transition (S may be 0).  Thresholds partition [0, 1) into the
    four moves: j steps back below ``t_move_j``, i steps back on
    ``[t_move_j, t_move_i)``, both stay on ``[t_move_i, t_stay)`` and both
    step back from ``t_stay``.  Returns (T,) first times at which the two
    labels coincide, counted from 1 at ``starts``, so a match after the
    s-th transition of the block reads s + 1; -1 if none within the block.

    There is no loop over transitions or trials: the block is walked in one
    pass, steps-major, with O(T S) temporaries, about 36 B per uniform, so
    the caller bounds the memory by the rows it passes.  A cumulative sum of
    each token's back-step indicators along the steps gives its positions
    after 0..S transitions, ``start - back-steps`` in [-S, l).  The sum runs
    on uint64 words that each pack several trials' counts in lanes of the
    least unsigned dtype that holds S: no lane exceeds S, so no carry
    crosses lanes and one word addition adds them all.  The positions index
    tables of ``S // l + 1`` copies of the cycle without a modulo, the
    negative ones from the end.  The first match is the least step index of
    the matches, and a walk ends at its first match, else at the block's
    end, so the outputs are bitwise those of stepping the walks one
    transition at a time (``tests/_oracles.py::simulate_backward_walk``).
    """
    labels = np.asarray(labels, dtype=np.int64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    l = labels.shape[0]
    T, S = uniforms.shape
    R = S + 1
    reps = S // l + 1
    # labels less their least one: equal exactly where the labels are
    codes = labels - labels.min()
    label_of = np.resize(codes.astype(np.min_scalar_type(codes.max())), reps * l)
    residue_of = np.arange(reps * l) % l
    # (k - R) marks a match after k transitions; no match leaves 0
    ks = np.arange(-R, 0, dtype=np.min_scalar_type(-R))[:, None]
    u = uniforms.T.copy()  # steps-major
    b = np.empty((3, S, T), dtype=bool)
    np.less(u, t_move_i, out=b[0])
    np.less(u, t_move_j, out=b[1])
    np.greater_equal(u, t_stay, out=b[2])
    # back-steps: i on [t_move_j, t_move_i), j below t_move_j, both from t_stay
    np.greater(b[0], b[1], out=b[0])
    np.logical_or(b[:2], b[2], out=b[:2])
    # back-step counts; the lanes past T stay zero, so none exceeds S
    lane = np.min_scalar_type(S)
    per_word = 8 // lane.itemsize
    C = np.zeros((2, S, -(-T // per_word) * per_word), dtype=lane)
    np.copyto(C[:, :, :T], b[:2])
    words = C.view(np.uint64)
    np.cumsum(words, axis=1, out=words)
    # pos[:, k] holds each token's position after k transitions
    pos = np.empty((2, R, T), dtype=np.intp)
    pos[:, 0] = starts.T
    np.subtract(pos[:, :1], C[:, :, :T], out=pos[:, 1:])
    lab = label_of[pos]
    first = np.add(np.multiply(np.equal(lab[0], lab[1]), ks).min(axis=0), R, dtype=np.intp)
    hits = np.add(first, 1, dtype=np.int64)
    missed = first == R
    np.putmask(hits, missed, -1)
    # the end is row first of the block, or row S without a match
    first -= missed
    first *= T
    first += np.arange(T)
    starts[...] = residue_of[np.take(pos.reshape(2, R * T), first, axis=1)].T
    return hits


def backend_name() -> str:
    """Kernel implementation recorded in result summaries."""
    return "numpy"
