"""Random processes that pick which agents update at each tick.

Five scheduler kinds cover the regimes studied here:

* ``global_clock`` -- one agent per tick, i.i.d. from a probability vector;
* ``independent_clocks`` -- every agent joins the tick's update set by an
  independent Bernoulli coin;
* ``support_sequence`` -- a periodic list of candidate update sets with
  per-tick probabilities (optionally reweighted by a history hook that must
  keep the same supports);
* ``markov`` -- the update set is a Markov chain over a declared state list,
  driven by column-stochastic transition matrices (possibly time varying);
* ``script`` -- a fixed list of update sets, replayed verbatim.

Draw contract (seed contract 3): ``sample_masks(steps, rng, trials, start,
carry)`` is the only way a scheduler draws.  It returns the tick-major
(steps, trials, n) masks of ticks ``start + 1 .. start + steps``, drawn from
the one stream ``rng``: at each tick every trial in trial order takes a
fixed number of uniforms (global/support/markov: one, except that the
first markov tick is ``initial`` and takes none; independent_clocks: n;
script: none), in groups of ticks drawn into one reused buffer.  One call
for m doubles gives the same doubles as m scalar calls, so a horizon drawn
in blocks, with ``start`` and ``carry`` passed on, is the horizon drawn at
once and equals the scalar reference draws in ``tests/_oracles.py``; one
trial draws what seed contract 1 drew.  ``carry`` is a dict, empty at tick
0: a Markov chain keeps its (trials,) last states there, a ``weight_fn``
hook every set of every trial.

``check_conditions`` evaluates the almost-sure-consensus conditions for a
scheduler/matrix pair: rootedness, a positive lower bound on nonzero
transition probabilities, history independence of the support sets, joint
coverage of all agents within a window of q ticks, and the quasi-singleton
property of the root component (for each root-component member j, every
tick offers a set containing j, and the intersection of all such sets meets
the root component exactly in {j}).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionError, ValidationError
from .graphs import build_graph, roots
from .matrices import ColumnStochasticMatrix, StochasticMatrix

PROB_TOL = 1e-12
MAX_SUPPORT_PERIOD = 64
MAX_ENUM_NODES = 16
DEFAULT_Q_MAX = 16
UNIFORM_BUFFER_BYTES = 1 << 17  # the buffer a block's uniforms are drawn into


class NotEnumerableError(ValidationError):
    """The scheduler's one-step support distribution cannot be enumerated."""


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


def _inverse_cdf(cumulative: np.ndarray, u) -> np.ndarray:
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, len(cumulative) - 1)


def _mask_table(sets, n: int) -> np.ndarray:
    """(len(sets), n) update masks, one row per set."""
    return np.array([[j + 1 in s for j in range(n)] for s in sets], dtype=bool).reshape(-1, n)


def _uniform_groups(rng, steps: int, shape: tuple):
    """Draw the uniforms of ``steps`` ticks, ``shape`` of them per tick,
    tick-major, in groups of ticks: yields ``(i, u)`` with ``u`` the
    (g, *shape) uniforms of ticks i .. i + g - 1.  Every group is drawn
    into one buffer of about ``UNIFORM_BUFFER_BYTES`` (one tick when a tick
    needs more), so ``u`` holds only until the next group is drawn."""
    tick_bytes = 8 * int(np.prod(shape))
    g = max(1, min(steps, UNIFORM_BUFFER_BYTES // max(1, tick_bytes)))
    buf = np.empty((g, *shape))
    for i in range(0, steps, g):
        u = buf[:min(g, steps - i)]
        rng.random(out=u)
        yield i, u


class Scheduler:
    """Shared interface; subclasses set ``kind`` and implement ``sample_masks``."""

    kind = "abstract"
    n: int

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        """(steps, trials, n) update masks of ticks ``start + 1 .. start + steps``.

        ``masks[k, t, i]`` is True when agent ``i + 1`` updates at tick
        ``start + k + 1`` of trial ``t``.  ``carry`` is the dict of the kinds
        that read past ticks: empty with ``start = 0``, then the one the
        previous block updated in place (see the module docstring).
        """
        raise NotImplementedError

    def check_horizon(self, steps: int) -> None:
        """Raise ValidationError when the scheduler cannot draw ``steps`` ticks."""

    def alpha(self) -> float | None:
        """Smallest declared nonzero transition probability, if known."""
        raise NotImplementedError

    @property
    def history_independent(self) -> bool:
        """Whether the tick-k support set is fixed regardless of history."""
        raise NotImplementedError

    def support_sets(self):
        """(period, per-tick list of possible update sets, exact flag)."""
        raise NotImplementedError

    def one_step_distribution(self, k: int = 1) -> list:
        """[(update_set, probability)] for tick k; history-free kinds only."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class GlobalClockScheduler(Scheduler):
    """One uniform draw per tick selects a single updating agent."""

    kind = "global_clock"

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("global_clock needs a 1-d probability vector")
        if not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > PROB_TOL:
            raise ValidationError("global_clock probabilities must be >= 0 and sum to 1")
        self.n = p.size
        self.p = p
        self._active = np.nonzero(p > 0)[0]
        self._cum = np.cumsum(p[self._active])
        self._masks = np.eye(self.n, dtype=bool)[self._active]

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        masks = np.empty((steps, trials, self.n), dtype=bool)
        for i, u in _uniform_groups(rng, steps, (trials,)):
            np.take(self._masks, _inverse_cdf(self._cum, u), axis=0,
                    out=masks[i:i + len(u)], mode="clip")
        return masks

    def alpha(self) -> float:
        return float(self.p[self._active].min())

    @property
    def history_independent(self) -> bool:
        return True

    def support_sets(self):
        return 1, [[frozenset({int(j) + 1}) for j in self._active]], True

    def one_step_distribution(self, k: int = 1) -> list:
        return [(frozenset({int(j) + 1}), float(self.p[j])) for j in self._active]

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {"p": [float(v) for v in self.p]}}


class IndependentClocksScheduler(Scheduler):
    """Each agent updates independently with its own activation probability."""

    kind = "independent_clocks"

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("independent_clocks needs a 1-d probability vector")
        if not ((p >= 0) & (p <= 1)).all():
            raise ValidationError("activation probabilities must lie in [0, 1]")
        self.n = p.size
        self.p = p

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        masks = np.empty((steps, trials, self.n), dtype=bool)
        for i, u in _uniform_groups(rng, steps, (trials, self.n)):
            np.less(u, self.p, out=masks[i:i + len(u)])
        return masks

    def alpha(self) -> float:
        factors = []
        for pj in self.p:
            if pj in (0.0, 1.0):
                factors.append(1.0)
            else:
                factors.append(min(pj, 1.0 - pj))
        return float(np.prod(factors))

    @property
    def history_independent(self) -> bool:
        return True

    def _enumerate(self) -> list:
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

    def support_sets(self):
        return 1, [[s for s, _ in self._enumerate()]], True

    def one_step_distribution(self, k: int = 1) -> list:
        return self._enumerate()

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {"p": [float(v) for v in self.p]}}


class SupportSequenceScheduler(Scheduler):
    """Periodic per-tick lists of candidate update sets with probabilities.

    ``ticks`` is a list (one entry per tick of the period) of
    ``[(update_set, probability), ...]``.  All listed probabilities must be
    strictly positive, so the declared supports are exactly the possible
    draws.  An optional ``weight_fn(k, history) -> weights`` reweights the
    tick's candidates based on history, the sets of the ticks before k; it
    must keep every candidate's probability positive, which preserves
    history independence of the support sets themselves.
    """

    kind = "support_sequence"

    def __init__(self, n: int, ticks, weight_fn=None):
        if n < 1:
            raise ValidationError("support_sequence needs n >= 1")
        if not ticks:
            raise ValidationError("support_sequence needs at least one tick")
        if len(ticks) > MAX_SUPPORT_PERIOD:
            raise ValidationError(
                f"support period {len(ticks)} exceeds the cap of {MAX_SUPPORT_PERIOD}"
            )
        self.n = int(n)
        norm_ticks = []
        for t, options in enumerate(ticks):
            if not options:
                raise ValidationError(f"tick {t + 1} lists no update sets")
            sets = [normalize_update_set(s, self.n) for s, _ in options]
            probs = np.array([float(p) for _, p in options])
            if not (np.isfinite(probs) & (probs > 0)).all():
                raise ValidationError(f"tick {t + 1} has a non-positive or non-finite probability")
            if abs(probs.sum() - 1.0) > PROB_TOL:
                raise ValidationError(
                    f"tick {t + 1} probabilities sum to {float(probs.sum())!r}"
                )
            if len(set(sets)) != len(sets):
                raise ValidationError(f"tick {t + 1} lists a duplicate update set")
            norm_ticks.append(list(zip(sets, probs)))
        self.ticks = norm_ticks
        self.weight_fn = weight_fn
        self._cums = [np.cumsum([p for _, p in options]) for options in norm_ticks]
        self._masks = [_mask_table([s for s, _ in options], self.n) for options in norm_ticks]

    @property
    def period(self) -> int:
        return len(self.ticks)

    def _options(self, k: int):
        return self.ticks[(k - 1) % self.period]

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        """Masks of ticks ``start + 1 ..``; a ``weight_fn`` hook is called per
        trial and per tick with that trial's history, the sets of its ticks
        before, which ``carry["history"]`` holds for every trial."""
        masks = np.empty((steps, trials, self.n), dtype=bool)
        if self.weight_fn is not None:
            carry = {} if carry is None else carry
            histories = carry.setdefault("history", [[] for _ in range(trials)])
        P = self.period
        for i, u in _uniform_groups(rng, steps, (trials,)):
            if self.weight_fn is None:
                # the ticks of one phase of the period share their law
                for r in range(min(P, len(u))):
                    tick = (start + i + r) % P
                    idx = _inverse_cdf(self._cums[tick], u[r::P])
                    masks[i + r:i + len(u):P] = self._masks[tick][idx]
            else:
                for r, row in enumerate(u):
                    k = start + i + r + 1
                    idx = [self._weighted_pick(k, h, v)
                           for h, v in zip(histories, row.tolist())]
                    np.take(self._masks[(k - 1) % P], idx, axis=0, out=masks[i + r],
                            mode="clip")
        return masks

    def _weighted_pick(self, k: int, history: list, u: float) -> int:
        """Index of the tick-k set that ``u`` picks under the hook's weights
        given one trial's ``history``, which the set then extends."""
        options = self._options(k)
        w = np.asarray(self.weight_fn(k, history), dtype=np.float64)
        if w.shape != (len(options),) or not (w > 0).all() or not abs(w.sum() - 1.0) <= 1e-9:
            raise ValidationError(
                "weight_fn must return positive weights over the tick's "
                "declared supports, summing to 1"
            )
        idx = int(_inverse_cdf(np.cumsum(w), u))
        history.append(options[idx][0])
        return idx

    def alpha(self) -> float:
        return float(min(p for options in self.ticks for _, p in options))

    @property
    def history_independent(self) -> bool:
        return True

    def support_sets(self):
        return self.period, [[s for s, _ in options] for options in self.ticks], True

    def one_step_distribution(self, k: int = 1) -> list:
        if self.weight_fn is not None:
            raise NotEnumerableError(
                "tick probabilities depend on history through the weight hook"
            )
        return [(s, float(p)) for s, p in self._options(k)]

    def to_json(self) -> dict:
        if self.weight_fn is not None:
            raise ValidationError("a weight_fn hook cannot be serialised to JSON")
        return {
            "kind": self.kind,
            "params": {
                "n": self.n,
                "ticks": [
                    [{"set": sorted(s), "prob": float(p)} for s, p in options]
                    for options in self.ticks
                ],
            },
        }


class MarkovScheduler(Scheduler):
    """Update sets forming a Markov chain over a declared state list.

    ``matrix`` (constant), ``matrices`` (cycled periodically) or
    ``matrix_fn(k)`` give the column-stochastic law of the move from tick k
    to tick k+1: entry (i, j) is the probability of state i following state
    j.  ``matrix_fn`` is called once per tick, and the law it returns is
    shared by every trial.  The first draw returns ``initial``
    deterministically.
    """

    kind = "markov"

    def __init__(self, n: int, states, initial, matrix=None, matrices=None, matrix_fn=None):
        if n < 1:
            raise ValidationError("markov scheduler needs n >= 1")
        self.n = int(n)
        self.states = tuple(normalize_update_set(s, self.n) for s in states)
        if len(set(self.states)) != len(self.states):
            raise ValidationError("markov states must be distinct update sets")
        self._index = {s: i for i, s in enumerate(self.states)}
        self.initial = normalize_update_set(initial, self.n)
        if self.initial not in self._index:
            raise ValidationError("initial state is not in the state list")
        given = [matrix is not None, matrices is not None, matrix_fn is not None]
        if sum(given) != 1:
            raise ValidationError("give exactly one of matrix, matrices, matrix_fn")
        m = len(self.states)
        self.matrix_fn = matrix_fn
        self.matrices = None
        if matrix is not None:
            self.matrices = (self._check_matrix(matrix, m),)
        elif matrices is not None:
            self.matrices = tuple(self._check_matrix(M, m) for M in matrices)
            if not self.matrices:
                raise ValidationError("matrices list is empty")
        self._masks = _mask_table(self.states, self.n)
        self._cums = (None if self.matrices is None
                      else [self._cumulative(M) for M in self.matrices])

    @staticmethod
    def _check_matrix(M, m: int) -> ColumnStochasticMatrix:
        csm = M if isinstance(M, ColumnStochasticMatrix) else ColumnStochasticMatrix(M)
        if csm.n != m:
            raise DimensionError(f"transition matrix is {csm.n}x{csm.n} for {m} states")
        return csm

    def transition_matrix(self, k: int) -> ColumnStochasticMatrix:
        """Law of the move from tick k to tick k+1."""
        if self.matrices is not None:
            return self.matrices[(k - 1) % len(self.matrices)]
        return self._check_matrix(self.matrix_fn(k), len(self.states))

    @staticmethod
    def _cumulative(M: ColumnStochasticMatrix) -> np.ndarray:
        """Row s: the cumulative law of the state that follows state s, with
        the last entry inf, so that counting the entries <= u is
        ``_inverse_cdf`` (whose clip sends every u past the sum there)."""
        cum = np.cumsum(M.entries, axis=0).T.copy()
        cum[:, -1] = np.inf
        return cum

    def _law(self, k: int) -> np.ndarray:
        """``_cumulative`` of the law of the move from tick k to tick k+1."""
        if self._cums is not None:
            return self._cums[(k - 1) % len(self._cums)]
        return self._cumulative(self.transition_matrix(k))

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        """Masks of ticks ``start + 1 ..``; for ``start > 0``,
        ``carry["state"]`` must hold the (trials,) state indices of tick
        ``start``, as the previous block left them."""
        masks = np.empty((steps, trials, self.n), dtype=bool)
        if steps == 0:
            return masks
        carry = {} if carry is None else carry
        first = int(start == 0)
        if first:
            state = np.full(trials, self._index[self.initial])
            masks[0] = self._masks[state]
        else:
            state = carry["state"]
        for i, u in _uniform_groups(rng, steps - first, (trials,)):
            path = np.empty(u.shape, dtype=np.intp)
            for r, row in enumerate(u):
                law = self._law(start + first + i + r)
                state = path[r] = (law[state] <= row[:, None]).sum(axis=1)
            np.take(self._masks, path, axis=0, out=masks[first + i:first + i + len(u)],
                    mode="clip")
        carry["state"] = state
        return masks

    def alpha(self) -> float | None:
        if self.matrices is None:
            return None
        entries = np.concatenate([M.entries.ravel() for M in self.matrices])
        positive = entries[entries > 0]
        return float(positive.min()) if positive.size else None

    @property
    def history_independent(self) -> bool:
        return False

    def support_sets(self):
        """Union of column supports over all states; an over-approximation."""
        if self.matrices is None:
            raise NotEnumerableError("time-varying matrix_fn supports cannot be enumerated")
        ticks = []
        for M in self.matrices:
            reachable = sorted({i for i in range(len(self.states)) if (M.entries[i] > 0).any()})
            ticks.append([self.states[i] for i in reachable])
        return len(self.matrices), ticks, False

    def one_step_distribution(self, k: int = 1) -> list:
        raise NotEnumerableError("markov draws depend on the previous state")

    def to_json(self) -> dict:
        if self.matrices is None:
            raise ValidationError("a matrix_fn hook cannot be serialised to JSON")
        params = {
            "n": self.n,
            "states": [sorted(s) for s in self.states],
            "initial": sorted(self.initial),
        }
        if len(self.matrices) == 1:
            params["matrix"] = [[float(v) for v in row] for row in self.matrices[0].entries]
        else:
            params["matrices"] = [
                [[float(v) for v in row] for row in M.entries] for M in self.matrices
            ]
        return {"kind": self.kind, "params": params}


class ScriptScheduler(Scheduler):
    """Replays a fixed list of update sets; optionally cycles forever."""

    kind = "script"

    def __init__(self, n: int, sets, repeat: bool = False):
        if n < 1:
            raise ValidationError("script scheduler needs n >= 1")
        self.n = int(n)
        self.sets = tuple(normalize_update_set(s, self.n) for s in sets)
        self.repeat = bool(repeat)
        self._masks = _mask_table(self.sets, self.n)

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        self.check_horizon(start + steps)
        rows = self._masks[np.arange(start, start + steps) % len(self.sets)]
        return np.repeat(rows[:, None], trials, axis=1)

    def check_horizon(self, steps: int) -> None:
        if steps > len(self.sets) and not (self.repeat and self.sets):
            raise ValidationError(f"script of length {len(self.sets)} exhausted")

    def alpha(self) -> float:
        return 1.0

    @property
    def history_independent(self) -> bool:
        return True

    def support_sets(self):
        return max(len(self.sets), 1), [[s] for s in self.sets] or [[frozenset()]], True

    def one_step_distribution(self, k: int = 1) -> list:
        if not self.sets:
            raise ValidationError("empty script has no distribution")
        return [(self.sets[(k - 1) % len(self.sets)], 1.0)]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": {"n": self.n, "sets": [sorted(s) for s in self.sets],
                       "repeat": self.repeat},
        }


_KINDS = {
    "global_clock": GlobalClockScheduler,
    "independent_clocks": IndependentClocksScheduler,
    "support_sequence": SupportSequenceScheduler,
    "markov": MarkovScheduler,
    "script": ScriptScheduler,
}


def scheduler_from_json(obj: dict) -> Scheduler:
    try:
        kind = obj["kind"]
        params = obj.get("params", {})
    except TypeError as exc:
        raise ValidationError(f"scheduler JSON must be an object: {exc}") from exc
    if kind not in _KINDS:
        raise ValidationError(f"unknown scheduler kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        if kind == "global_clock":
            return GlobalClockScheduler(params["p"])
        if kind == "independent_clocks":
            return IndependentClocksScheduler(params["p"])
        if kind == "support_sequence":
            ticks = [
                [(opt["set"], opt["prob"]) for opt in options] for options in params["ticks"]
            ]
            return SupportSequenceScheduler(int(params["n"]), ticks)
        if kind == "markov":
            return MarkovScheduler(
                int(params["n"]),
                params["states"],
                params["initial"],
                matrix=params.get("matrix"),
                matrices=params.get("matrices"),
            )
        return ScriptScheduler(
            int(params["n"]), params["sets"], repeat=bool(params.get("repeat", False))
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{kind} params are malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness: dict = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict:
        out = {"passed": self.passed, "witness": self.witness}
        if self.note:
            out["note"] = self.note
        return out


CONDITION_NAMES = (
    "rooted",
    "positive_probability",
    "history_independent",
    "joint_coverage",
    "quasi_singleton",
)


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def q(self) -> int | None:
        return self["joint_coverage"].witness.get("q")

    @property
    def chi(self) -> list:
        return self["quasi_singleton"].witness.get("chi", [])

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {c.name: c.to_json() for c in self.checks},
        }


def check_conditions(scheduler: Scheduler, A: StochasticMatrix,
                     q_max: int = DEFAULT_Q_MAX) -> ConditionReport:
    """Evaluate the five almost-sure-consensus conditions for the pair.

    Markov schedulers are reported as failing history independence (their
    supports genuinely depend on the previous state); their coverage and
    quasi-singleton checks run on the union of supports over source states
    and are flagged as approximate in the notes.
    """
    if scheduler.n != A.n:
        raise DimensionError(f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}")
    n = A.n
    checks = []

    report = roots(build_graph(A))
    checks.append(ConditionCheck("rooted", report.rooted, report.to_json()))

    alpha = scheduler.alpha()
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
        period, ticks, exact = scheduler.support_sets()
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


@dataclass(frozen=True)
class StrongAperiodicityCheck:
    """Exact expectations E[A_sigma(i,i) A_sigma(i,j)] vs E[A_sigma(i,j)].

    ``holds`` means the left side is positive whenever the right side is,
    i.e. some positive factor relates them.
    """

    i: int
    j: int
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.rhs == 0.0 or self.lhs > 0.0

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "lhs": self.lhs, "rhs": self.rhs,
                "holds": self.holds}


def check_strongly_aperiodic(scheduler: Scheduler, A: StochasticMatrix,
                             i: int, j: int, k: int = 1) -> StrongAperiodicityCheck:
    """Enumerate tick-k draws and compare the two expectations exactly."""
    if scheduler.n != A.n:
        raise DimensionError(f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}")
    if not (1 <= i <= A.n and 1 <= j <= A.n) or i == j:
        raise ValidationError(f"need distinct agents in 1..{A.n}, got i={i}, j={j}")
    a_ii = float(A.entries[i - 1, i - 1])
    a_ij = float(A.entries[i - 1, j - 1])
    lhs = 0.0
    rhs = 0.0
    for members, prob in scheduler.one_step_distribution(k):
        if i in members:
            row_ii, row_ij = a_ii, a_ij
        else:
            row_ii, row_ij = 1.0, 0.0
        lhs += prob * row_ii * row_ij
        rhs += prob * row_ij
    return StrongAperiodicityCheck(i=i, j=j, lhs=lhs, rhs=rhs)
