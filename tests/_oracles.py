"""Independent oracle implementations the library code must agree with.

Everything here is written as plain loops or brute-force enumeration, on
purpose: these are the reference answers, kept free of the library's own
shortcuts.
"""
import csv
import io
from dataclasses import dataclass
from itertools import product

import numpy as np

from async_dca import (
    LabelledCycle,
    StochasticMatrix,
    ValidationError,
    ergodic_coefficient,
    initial_state,
    normalize_update_set,
    step,
    stream,
)
from async_dca.schedulers import _inverse_cdf
from async_dca.walk import WALK_BLOCK, _check_move_probabilities


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


# The asynchronous iteration one tick at a time: the matrix ``A_sigma`` of
# an update set, and ``engine.step`` folded over a fixed script.  The
# library runs scripts on the kernel and must reach the same state and
# product.

def make_async_matrix(A, sigma):
    """Row j of A where j updates, the elementary row e_j elsewhere."""
    members = normalize_update_set(sigma, A.n)
    out = np.eye(A.n)
    for j in members:
        out[j - 1, :] = A.entries[j - 1, :]
    return StochasticMatrix(out)


def run_script_steps(A, sets, x1, track_product=True):
    """The ``TrajectoryState`` after ``engine.step`` for each set in turn."""
    state = initial_state(x1, track_product=track_product)
    for sigma in sets:
        state = step(state, A, sigma)
    return state


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
    if T == 1:
        # a lone trial's ``x @ A.T`` is a vector-matrix product, which numpy
        # hands to gemv; it rounds differently from the gemm of a wider
        # batch, so step the trial twice and keep the first copy
        out = trajectory_batch_trials_first(A, np.repeat(masks, 2, axis=0),
                                            np.repeat(x0, 2, axis=0), track_lambda)
        return tuple(o[:1] for o in out)
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


# The schedulers' per-tick ``draw`` methods from before every kind drew in
# blocks through ``sample_masks``: one trial's set of tick k, given the sets
# it drew at the ticks before (only the weight hook reads more than the
# last), from scalar ``rng.random()`` draws.

def _draw_global_clock(self, k, history, rng) -> frozenset:
    idx = int(_inverse_cdf(self._cum, rng.random()))
    return frozenset({int(self._active[idx]) + 1})


def _draw_independent_clocks(self, k, history, rng) -> frozenset:
    u = [rng.random() for _ in range(self.n)]
    return frozenset(j + 1 for j in range(self.n) if u[j] < self.p[j])


def _draw_support_sequence(self, k, history, rng) -> frozenset:
    options = self._options(k)
    if self.weight_fn is None:
        cum = np.cumsum([p for _, p in options])
    else:
        w = np.asarray(self.weight_fn(k, history), dtype=np.float64)
        if w.shape != (len(options),) or (w <= 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError(
                "weight_fn must return positive weights over the tick's "
                "declared supports, summing to 1"
            )
        cum = np.cumsum(w)
    idx = int(_inverse_cdf(cum, rng.random()))
    return options[idx][0]


def _draw_markov(self, k, history, rng) -> frozenset:
    if k == 1:
        return self.initial
    prev = history[-1]
    prev = prev if isinstance(prev, frozenset) else normalize_update_set(prev, self.n)
    if prev not in self._index:
        raise ValidationError(f"history value {sorted(prev)} is not a markov state")
    col = self.transition_matrix(k - 1).entries[:, self._index[prev]]
    idx = int(_inverse_cdf(np.cumsum(col), rng.random()))
    return self.states[idx]


def _draw_script(self, k, history, rng) -> frozenset:
    if k > len(self.sets):
        if not self.repeat:
            raise ValidationError(f"script of length {len(self.sets)} exhausted at tick {k}")
        k = (k - 1) % len(self.sets) + 1
    return self.sets[k - 1]


_DRAWS = {
    "global_clock": _draw_global_clock,
    "independent_clocks": _draw_independent_clocks,
    "support_sequence": _draw_support_sequence,
    "markov": _draw_markov,
    "script": _draw_script,
}


def draw_sets_per_tick(scheduler, steps, rng, trials=1, start=0, histories=None):
    """Ticks ``start + 1 .. start + steps`` of ``trials`` trials under seed
    contract 3: tick by tick and, within a tick, trial by trial, each trial
    drawing one tick from ``rng`` given its own history.

    ``histories`` holds each trial's sets so far and is extended in place;
    it is cut to the last set unless a weight hook reads it.  Returns one
    list of ``trials`` sets per tick.
    """
    histories = [[] for _ in range(trials)] if histories is None else histories
    draw = _DRAWS[scheduler.kind]
    keep_all = getattr(scheduler, "weight_fn", None) is not None
    ticks = []
    for k in range(start + 1, start + steps + 1):
        sets = []
        for history in histories:
            history.append(draw(scheduler, k, history, rng))
            sets.append(history[-1])
            if not keep_all:
                del history[:-1]
        ticks.append(sets)
    return ticks


# The whole-horizon draw of ``mc``: every mask of every trial is drawn
# before the kernel runs, by scalar draws in the order of seed contract 3.
# The streamed pipeline must draw the same bits.

def draw_trial_inputs_full(cfg):
    """Initial states and (trials, horizon, n) update masks of ``cfg``.

    Everything comes from the one stream ``stream(seed, 0)``: the initial
    states first (when random), trial by trial, then the schedule, tick by
    tick and trial by trial.
    """
    n, T = cfg.matrix.n, cfg.trials
    rng = stream(cfg.seed, 0)
    if isinstance(cfg.init, str):
        x0 = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(T)])
    else:
        x0 = np.tile(cfg.init, (T, 1))
    masks = np.zeros((T, cfg.horizon, n), dtype=bool)
    histories = [[] for _ in range(T)]
    for k in range(cfg.horizon):
        [sets] = draw_sets_per_tick(cfg.scheduler, 1, rng, T, k, histories)
        for t, members in enumerate(sets):
            for j in members:
                masks[t, k, j - 1] = True
    return x0, masks


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
    for k in range(steps):
        [[sigma]] = draw_sets_per_tick(scheduler, 1, rng, 1, k, [history])
        state = step(state, A, sigma)
        row = [state.k - 1, state.delta()]
        if track:
            row.append(ergodic_coefficient(state.product))
        writer.writerow(row)
    return fh.getvalue()


@dataclass(frozen=True, eq=False)
class WalkTrajectory:
    """Recorded (i_k, j_k) positions, 1-based, and the first label-match time."""

    positions: np.ndarray
    hit_time: int | None

    def __post_init__(self):
        arr = np.asarray(self.positions, dtype=np.int64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)

    @property
    def matched(self) -> bool:
        return self.hit_time is not None


def simulate_backward_walk(cycle: LabelledCycle, gamma: float, k_max: int, rng,
                           i1: int | None = None, j1: int | None = None,
                           move_probs=None) -> WalkTrajectory:
    """Run one walk until the labels match or ``k_max`` steps have passed.

    Starting positions default to uniform draws.  The trajectory records the
    positions up to and including the match (the pair is frozen afterwards).
    """
    p = _check_move_probabilities(gamma, move_probs)
    l = cycle.length
    if i1 is None or j1 is None:
        start = rng.integers(0, l, size=2)
        i = int(start[0]) + 1 if i1 is None else int(i1)
        j = int(start[1]) + 1 if j1 is None else int(j1)
    else:
        i, j = int(i1), int(j1)
    cycle._check_position(i)
    cycle._check_position(j)
    t1, t2, t3 = p[0], p[0] + p[1], p[0] + p[1] + p[2]
    positions = [(i, j)]
    hit = 1 if cycle.label(i) == cycle.label(j) else None
    k = 1
    while hit is None and k < k_max:
        u = rng.random()
        if u < t1:
            j = cycle.predecessor(j)
        elif u < t2:
            i = cycle.predecessor(i)
        elif u < t3:
            pass
        else:
            i = cycle.predecessor(i)
            j = cycle.predecessor(j)
        k += 1
        positions.append((i, j))
        if cycle.label(i) == cycle.label(j):
            hit = k
    return WalkTrajectory(positions=np.array(positions, dtype=np.int64), hit_time=hit)


class _WalkReplay:
    """Hands one trial its own start and transition uniforms in turn."""

    def __init__(self, start, uniforms):
        self._start = start
        self._uniforms = iter(uniforms)

    def integers(self, low, high, size=None):
        return self._start

    def random(self):
        return next(self._uniforms)


def walk_hits_v2(cycle, gamma, k_max, trials, seed, move_probs=None):
    """First match times under seed contract 2, one plain walk per trial.

    Re-creates the draws of ``match_probability_curve`` on ``stream(seed)``:
    a (trials, 2) array of starts, then blocks of ``WALK_BLOCK`` uniforms
    with one row per trial that is still unmatched.  Which trials are
    unmatched is decided by replaying ``simulate_backward_walk`` on each
    trial's draws so far.
    """
    rng = stream(seed)
    starts = rng.integers(0, cycle.length, size=(trials, 2))
    drawn = [[] for _ in range(trials)]

    def hit_time(t, horizon):
        replay = _WalkReplay(starts[t], drawn[t])
        return simulate_backward_walk(cycle, gamma, horizon, replay,
                                      move_probs=move_probs).hit_time

    hits = [hit_time(t, 1) for t in range(trials)]
    done = 0
    while done < k_max - 1:
        unmatched = [t for t in range(trials) if hits[t] is None]
        if not unmatched:
            break
        width = min(WALK_BLOCK, k_max - 1 - done)
        block = rng.random((len(unmatched), width))
        done += width
        for t, row in zip(unmatched, block):
            drawn[t].extend(row.tolist())
            hits[t] = hit_time(t, done + 1)
    return np.array([-1 if h is None else h for h in hits], dtype=np.int64)


def walk_match_exact(cycle, gamma, k_max, move_probs=None):
    """Exact P(match by k), k = 1..k_max, from uniform independent starts.

    Evolves the distribution of the position pair (i, j) over the l^2 pairs;
    pairs with equal labels absorb.  No sampling is involved.
    """
    p_j, p_i, p_stay, p_both = _check_move_probabilities(gamma, move_probs)
    l = cycle.length
    labels = cycle.labels
    P = np.zeros((l * l, l * l))
    for i in range(l):
        for j in range(l):
            src = i * l + j
            if labels[i] == labels[j]:
                P[src, src] = 1.0
                continue
            back_i, back_j = (i - 1) % l, (j - 1) % l
            P[src, i * l + back_j] += p_j
            P[src, back_i * l + j] += p_i
            P[src, src] += p_stay
            P[src, back_i * l + back_j] += p_both
    absorbing = np.array([labels[i] == labels[j] for i in range(l) for j in range(l)])
    dist = np.full(l * l, 1.0 / (l * l))
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = dist[absorbing].sum()
        dist = dist @ P
    return out
