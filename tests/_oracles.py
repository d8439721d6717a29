"""Independent oracle implementations the library code must agree with.

Everything here is written as plain loops or brute-force enumeration, on
purpose: these are the reference answers, kept free of the library's own
shortcuts.
"""
import csv
import io
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from async_dca import (
    DimensionError,
    LabelledCycle,
    StochasticMatrix,
    ValidationError,
    build_graph,
    ergodic_coefficient,
    normalize_update_set,
    roots,
    stream,
)
from async_dca.engine import initial_state, step
from async_dca.schedulers import (
    MAX_ENUM_NODES,
    ConditionCheck,
    ConditionReport,
    NotEnumerableError,
    StrongAperiodicityCheck,
)
from async_dca.walk import WALK_BLOCK, _check_gamma, _check_move_probabilities


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

def sum_in_order(X: np.ndarray) -> np.ndarray:
    """Sum over the last axis left to right, ``((x0 + x1) + x2) + ...``.

    numpy's own sum of a contiguous axis is pairwise from eight terms on.
    """
    total = X[..., 0].copy()
    for j in range(1, X.shape[-1]):
        total += X[..., j]
    return total


def ergodic_batch_trials_first(P: np.ndarray) -> np.ndarray:
    """Ergodic coefficient of each matrix in a (T, n, n) stack."""
    n = P.shape[1]
    if n == 1:
        return np.zeros(P.shape[0])
    shared = sum_in_order(np.minimum(P[:, :, None, :], P[:, None, :, :]))
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
            row_err = np.maximum(row_err, np.abs(sum_in_order(P) - 1.0).max(axis=1))
    return deltas, lams, x, viol_contract, viol_mono, row_err


# The schedulers' per-tick ``draw`` methods from before every kind drew in
# blocks through ``sample_masks``: one trial's set of tick k, given the sets
# it drew at the ticks before (only the weight hook reads more than the
# last), from scalar ``rng.random()`` draws.  A support sequence given to
# them carries its hook in the history form the library's vectorised hook
# replaced: ``weight_fn(k, history) -> weights``, one trial's weights of
# tick k from every set that trial drew before.

def _inverse_cdf(cumulative, u) -> int:
    """The outcome ``u`` picks: the count of cumulative sums <= u, at most the last."""
    return min(sum(1 for c in cumulative if c <= u), len(cumulative) - 1)


def _draw_global_clock(self, k, history, rng) -> frozenset:
    active = np.flatnonzero(self.p > 0)
    idx = _inverse_cdf(np.cumsum(self.p[active]), rng.random())
    return frozenset({int(active[idx]) + 1})


def _draw_independent_clocks(self, k, history, rng) -> frozenset:
    u = [rng.random() for _ in range(self.n)]
    return frozenset(j + 1 for j in range(self.n) if u[j] < self.p[j])


def _draw_support_sequence(self, k, history, rng) -> frozenset:
    options = self.ticks[(k - 1) % self.period]
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
    idx = _inverse_cdf(cum, rng.random())
    return options[idx][0]


def _draw_markov(self, k, history, rng) -> frozenset:
    if k == 1:
        return self.initial
    prev = history[-1]
    prev = prev if isinstance(prev, frozenset) else normalize_update_set(prev, self.n)
    if prev not in self._index:
        raise ValidationError(f"history value {sorted(prev)} is not a markov state")
    col = self.transition_matrix(k - 1).entries[:, self._index[prev]]
    idx = _inverse_cdf(np.cumsum(col), rng.random())
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


# Position arithmetic on a ``LabelledCycle`` and the distance chain's law
# over time, one position or one transition at a time.  The library walks
# whole blocks of trials at once and takes the chain's powers in closed
# form; the scalar walk below and the tests step through them.

def _check_position(cycle: LabelledCycle, position: int) -> None:
    if not 1 <= position <= cycle.length:
        raise DimensionError(f"position {position} out of range 1..{cycle.length}")


def cycle_label(cycle: LabelledCycle, position: int) -> int:
    _check_position(cycle, position)
    return cycle.labels[position - 1]


def cycle_predecessor(cycle: LabelledCycle, position: int) -> int:
    _check_position(cycle, position)
    return cycle.length if position == 1 else position - 1


def cycle_successor(cycle: LabelledCycle, position: int) -> int:
    _check_position(cycle, position)
    return 1 if position == cycle.length else position + 1


def lower_bound_matrix(l: int, gamma: float) -> np.ndarray:
    """The paper's entrywise lower bound ``W`` for the distance chain of an
    l-cycle walk.

    Column d is the distribution of the next distance given the current
    one: column 0 is absorbing; every other column carries ``gamma`` on
    staying, on stepping down (reaching 0 from distance 1), and on stepping
    up (wrapping to 0 from distance l-1).  The transpose's graph is rooted
    with node 1 as the unique, self-looped root.
    """
    if l < 2:
        raise ValidationError("the distance chain needs l >= 2")
    gamma = _check_gamma(gamma)
    W = np.zeros((l, l))
    W[0, 0] = 1.0
    W[0, 1] = gamma
    W[0, l - 1] = gamma
    for d in range(1, l):
        W[d, d] = gamma
    for d in range(1, l - 1):
        W[d + 1, d] = gamma
    for d in range(2, l):
        W[d - 1, d] = gamma
    return W


def evolve_distance(chain, xi1, steps: int) -> np.ndarray:
    """Distribution trajectory of a ``DistanceChain``: row m is xi after m
    transitions."""
    xi = np.asarray(xi1, dtype=np.float64)
    if xi.shape != (chain.l,):
        raise DimensionError(f"xi1 must have length {chain.l}")
    if (xi < 0).any() or abs(xi.sum() - 1.0) > 1e-12:
        raise ValidationError("xi1 must be a probability vector")
    out = np.empty((steps + 1, chain.l))
    out[0] = xi
    for m in range(steps):
        out[m + 1] = chain.matrix.entries @ out[m]
    return out


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
    _check_position(cycle, i)
    _check_position(cycle, j)
    t1, t2, t3 = p[0], p[0] + p[1], p[0] + p[1] + p[2]
    positions = [(i, j)]
    hit = 1 if cycle_label(cycle, i) == cycle_label(cycle, j) else None
    k = 1
    while hit is None and k < k_max:
        u = rng.random()
        if u < t1:
            j = cycle_predecessor(cycle, j)
        elif u < t2:
            i = cycle_predecessor(cycle, i)
        elif u < t3:
            pass
        else:
            i = cycle_predecessor(cycle, i)
            j = cycle_predecessor(cycle, j)
        k += 1
        positions.append((i, j))
        if cycle_label(cycle, i) == cycle_label(cycle, j):
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


def walk_match_exact(cycle, gamma, k_max, move_probs=None, unmatched=False):
    """Exact P(match by k), k = 1..k_max, from uniform independent starts.

    Evolves the distribution of the position pair (i, j) over the l^2 pairs;
    pairs with equal labels absorb.  No sampling is involved.  With
    ``unmatched`` it returns P(no match by k), summed over the unmatched
    pairs directly rather than taken as one minus the matched mass.
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
    counted = ~absorbing if unmatched else absorbing
    dist = np.full(l * l, 1.0 / (l * l))
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = dist[counted].sum()
        dist = dist @ P
    return out


# The consensus-condition checkers as first written: each kind's law as
# frozensets (its smallest probability, its per-tick supports and its
# one-step distribution, read from the kind's declared parameters), and
# plain set loops over them.  The library reduces the arrays of ``law(k)``
# and must give the same report and the same expectations, to the bit.

def _clock_sets(self) -> list:
    """[(set, probability)] of independent clocks, by set size, then
    lexicographically."""
    if self.n > MAX_ENUM_NODES:
        raise NotEnumerableError(
            f"2^{self.n} update sets exceed the enumeration cap of 2^{MAX_ENUM_NODES}"
        )
    out = []
    on = [j for j in range(self.n) if self.p[j] > 0]
    sure = frozenset(j + 1 for j in range(self.n) if self.p[j] == 1.0)
    free = [j for j in on if self.p[j] < 1.0]
    for r in range(len(free) + 1):
        for chosen in combinations(free, r):
            members = sure | frozenset(j + 1 for j in chosen)
            prob = 1.0
            for j in free:
                prob *= self.p[j] if j in chosen else 1.0 - self.p[j]
            out.append((members, float(prob)))
    return out


def reference_alpha(self):
    """Smallest declared nonzero transition probability, if known."""
    if self.kind == "independent_clocks":
        factors = [1.0 if pj in (0.0, 1.0) else min(pj, 1.0 - pj) for pj in self.p]
        return float(np.prod(factors))
    if self.kind in ("global_clock", "support_sequence"):
        if self.weight_fn is not None:
            return None
        return float(min(p for options in self.ticks for _, p in options))
    if self.kind == "markov":
        if self.matrices is None:
            return None
        entries = np.concatenate([M.entries.ravel() for M in self.matrices])
        positive = entries[entries > 0]
        return float(positive.min()) if positive.size else None
    return 1.0


def reference_support_sets(self):
    """(period, per-tick list of possible update sets, exact flag); a
    Markov law gives the union of column supports over all states."""
    if self.kind == "independent_clocks":
        return 1, [[s for s, _ in _clock_sets(self)]], True
    if self.kind in ("global_clock", "support_sequence"):
        return len(self.ticks), [[s for s, _ in options] for options in self.ticks], True
    if self.kind == "markov":
        if self.matrices is None:
            raise NotEnumerableError("time-varying matrix_fn supports cannot be enumerated")
        ticks = []
        for M in self.matrices:
            reachable = sorted({i for i in range(len(self.states)) if (M.entries[i] > 0).any()})
            ticks.append([self.states[i] for i in reachable])
        return len(self.matrices), ticks, False
    return max(len(self.sets), 1), [[s] for s in self.sets] or [[frozenset()]], True


def reference_one_step_distribution(self, k: int = 1) -> list:
    """[(update_set, probability)] for tick k; history-free kinds only."""
    if self.kind == "independent_clocks":
        return _clock_sets(self)
    if self.kind in ("global_clock", "support_sequence"):
        if self.weight_fn is not None:
            raise NotEnumerableError(
                "tick probabilities depend on history through the weight hook"
            )
        return [(s, float(p)) for s, p in self.ticks[(k - 1) % len(self.ticks)]]
    if self.kind == "markov":
        raise NotEnumerableError("markov draws depend on the previous state")
    if not self.sets:
        raise ValidationError("empty script has no distribution")
    return [(self.sets[(k - 1) % len(self.sets)], 1.0)]


def reference_check_conditions(scheduler, A, q_max: int = 16) -> ConditionReport:
    """``check_conditions`` by set loops over the frozenset laws."""
    n = A.n
    checks = []

    report = roots(build_graph(A))
    checks.append(ConditionCheck("rooted", report.rooted, report.to_json()))

    alpha = reference_alpha(scheduler)
    if alpha is None:
        checks.append(ConditionCheck(
            "positive_probability", False, {},
            note="no uniform lower bound on transition probabilities is available",
        ))
    else:
        checks.append(ConditionCheck("positive_probability", alpha > 0, {"alpha": alpha}))

    hist_free = scheduler.history_independent
    note = "" if hist_free else "supports depend on the previous state"
    checks.append(ConditionCheck("history_independent", hist_free,
                                 {"kind": scheduler.kind}, note=note))

    try:
        period, ticks, exact = reference_support_sets(scheduler)
    except NotEnumerableError as exc:
        msg = str(exc)
        checks.append(ConditionCheck("joint_coverage", False, {}, note=msg))
        checks.append(ConditionCheck("quasi_singleton", False, {}, note=msg))
        return ConditionReport(checks)
    approx_note = "" if exact else "supports approximated by the union over source states"

    all_nodes = frozenset(range(1, n + 1))
    q_needed = 0
    coverage_fail = None
    for k in range(period):
        covered: set = set()
        q_here = None
        for q in range(1, q_max + 1):
            covered |= set().union(*ticks[(k + q - 1) % period])
            if covered == set(all_nodes):
                q_here = q
                break
        if q_here is None:
            coverage_fail = {"window_start": k + 1, "covered": sorted(covered), "q_max": q_max}
            break
        q_needed = max(q_needed, q_here)
    if coverage_fail is None:
        checks.append(ConditionCheck("joint_coverage", True,
                                     {"q": q_needed, "period": period}, note=approx_note))
    else:
        checks.append(ConditionCheck("joint_coverage", False, coverage_fail, note=approx_note))

    if not report.rooted:
        checks.append(ConditionCheck(
            "quasi_singleton", False, {},
            note="graph is not rooted, so there is no root component to check",
        ))
        return ConditionReport(checks)
    chi = report.chi
    violations = []
    for j in sorted(chi):
        for k in range(1, period + 1):
            containing = [s for s in ticks[k - 1] if j in s]
            if not containing:
                violations.append({"k": k, "j": j, "kind": "no_support"})
                continue
            inter = frozenset.intersection(*containing) & chi
            if inter != frozenset({j}):
                violations.append({
                    "k": k, "j": j, "kind": "intersection",
                    "intersection": sorted(inter),
                })
    checks.append(ConditionCheck(
        "quasi_singleton", not violations,
        {"chi": sorted(chi), "violations": violations[:20]}, note=approx_note,
    ))
    return ConditionReport(checks)


def reference_strongly_aperiodic(scheduler, A, i: int, j: int,
                                 k: int = 1) -> StrongAperiodicityCheck:
    """E[A_sigma(i,i) A_sigma(i,j)] and E[A_sigma(i,j)] by a loop over the
    tick-k draws."""
    a_ii = float(A.entries[i - 1, i - 1])
    a_ij = float(A.entries[i - 1, j - 1])
    lhs = 0.0
    rhs = 0.0
    for members, prob in reference_one_step_distribution(scheduler, k):
        if i in members:
            row_ii, row_ij = a_ii, a_ij
        else:
            row_ii, row_ij = 1.0, 0.0
        lhs += prob * row_ii * row_ij
        rhs += prob * row_ij
    return StrongAperiodicityCheck(i=i, j=j, lhs=lhs, rhs=rhs)
