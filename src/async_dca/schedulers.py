"""Random processes that pick which agents update at each tick.

Five scheduler kinds cover the regimes studied here:

* ``global_clock`` -- one agent per tick, i.i.d. from a probability vector:
  the period-1 ``support_sequence`` of the singletons, drawn by its sampler;
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
hook its state and the (trials,) picks of the last tick.  Every per-trial
pick is the count of a trial's cumulative row (``_cumulative``, last entry
inf) at or below its uniform.

Law contract: ``law(k)`` is each kind's one answer to "which sets can tick
k draw, and with what probability".  It returns ``(masks, probs)``:
``masks`` is the (s, n) bool table of the sets, one row per set, and
``probs`` their (s,) probabilities -- ``None`` under a ``weight_fn`` hook,
whose weights follow history, and for ``markov`` the (s, s)
column-stochastic law of the move from tick k to tick k+1 over the state
masks.  Tick k + ``period`` has the law of tick k; ``period`` is None for
a ``matrix_fn`` law, which need not repeat.  Independent clocks enumerate
their 2^free sets (up to ``MAX_ENUM_NODES`` agents, ``NotEnumerableError``
above), and an empty script gives a (0, n) table.

``check_conditions`` evaluates the almost-sure-consensus conditions for a
scheduler/matrix pair as reductions over the laws of ticks 1 .. period:
rootedness, a positive lower bound on nonzero transition probabilities,
history independence of the support sets, joint coverage of all agents
within a window of q ticks, and the quasi-singleton property of the root
component (for each root-component member j, every tick offers a set
containing j, and the intersection of all such sets meets the root
component exactly in {j}).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .graphs import build_graph, roots
from .matrices import ColumnStochasticMatrix, StochasticMatrix, _integer

PROB_TOL = 1e-12
MAX_SUPPORT_PERIOD = 64
MAX_ENUM_NODES = 16
DEFAULT_Q_MAX = 16
UNIFORM_BUFFER_BYTES = 1 << 17  # the buffer a block's uniforms are drawn into


class NotEnumerableError(ValidationError):
    """The scheduler's law of a tick cannot be enumerated."""


def normalize_update_set(sigma, n: int) -> frozenset:
    """Coerce an agent index or an iterable of indices to a frozenset.

    A bare integer j and the one-element set {j} are the same update set.
    """
    if isinstance(sigma, (int, np.integer)):
        members = frozenset({int(sigma)})
    else:
        members = frozenset(_integer(j, "update-set member") for j in sigma)
    for j in members:
        if not 1 <= j <= n:
            raise ValidationError(f"update-set member {j} out of range 1..{n}")
    return members


def _cumulative(probs) -> np.ndarray:
    """The cumulative sums of ``probs`` along the last axis, with the last
    entry inf: the count of entries <= u then picks an outcome for every u,
    however the sum rounds."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = np.inf
    return cum


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome each uniform ``u[t]`` picks from its row ``cum[t]`` of
    ``_cumulative``: the count of the row's entries <= u."""
    return (cum <= u[:, None]).sum(axis=1)


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
    """Shared interface; subclasses set ``kind`` and ``period`` and implement
    ``sample_masks`` and ``law``."""

    kind = "abstract"
    n: int
    # tick k + period has the law of tick k; None when the law need not repeat
    period: int | None = 1
    # whether the tick-k support set is fixed regardless of history
    history_independent = True

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

    def law(self, k: int) -> tuple:
        """``(masks, probs)`` of tick k (see the module docstring)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


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

    def law(self, k: int) -> tuple:
        """The 2^f sets of the f agents with a coin in (0, 1), each with the
        sure agents, fewest members first and then lexicographically."""
        if self.n > MAX_ENUM_NODES:
            raise NotEnumerableError(
                f"2^{self.n} update sets exceed the enumeration cap of 2^{MAX_ENUM_NODES}"
            )
        free = np.flatnonzero((self.p > 0) & (self.p < 1))
        codes = np.arange(1 << free.size)
        # free agent i joins when bit f - 1 - i of the code is set, so among
        # sets of one size a larger code is a lexicographically earlier set
        bits = ((codes[:, None] >> np.arange(free.size)[::-1]) & 1).astype(bool)
        bits = bits[np.lexsort((-codes, bits.sum(axis=1)))]
        masks = np.repeat((self.p == 1.0)[None], len(bits), axis=0)
        masks[:, free] = bits
        return masks, np.where(bits, self.p[free], 1.0 - self.p[free]).prod(axis=1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {"p": [float(v) for v in self.p]}}


class SupportSequenceScheduler(Scheduler):
    """Periodic per-tick lists of candidate update sets with probabilities.

    ``ticks`` is a list (one entry per tick of the period) of
    ``[(update_set, probability), ...]``.  All listed probabilities must be
    strictly positive, so the declared supports are exactly the possible
    draws.  An optional ``weight_fn(k, state, picked) -> (weights, state)``
    reweights the tick's candidates based on history.  It is called once
    per tick k for all T trials: ``picked`` is the (T,) indices of the
    candidates tick k - 1 drew (-1 at tick 1), ``state`` what the hook
    returned at tick k - 1 (None at tick 1), and ``weights`` the (T,
    candidates) weights of tick k.  They must keep every candidate's
    probability positive, which preserves history independence of the
    support sets themselves.
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
        norm_ticks, tick_probs = [], []
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
            tick_probs.append(probs)
        self.ticks = norm_ticks
        self.period = len(norm_ticks)
        self.weight_fn = weight_fn
        self._probs = tick_probs
        self._cums = [_cumulative(p) for p in tick_probs]
        self._masks = [_mask_table([s for s, _ in options], self.n) for options in norm_ticks]

    def law(self, k: int) -> tuple:
        """The tick's declared sets and probabilities; ``probs`` is None
        under a ``weight_fn`` hook, whose weights the draws follow and no
        declared probability bounds."""
        t = (k - 1) % self.period
        return self._masks[t], None if self.weight_fn is not None else self._probs[t]

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        """Masks of ticks ``start + 1 ..``; a ``weight_fn`` hook is called
        once per tick for all trials, and ``carry["hook"]`` holds its state
        and the (trials,) picks of tick ``start``."""
        masks = np.empty((steps, trials, self.n), dtype=bool)
        P = self.period
        if self.weight_fn is None:
            for i, u in _uniform_groups(rng, steps, (trials,)):
                # the ticks of one phase of the period share their law
                for r in range(min(P, len(u))):
                    tick = (start + i + r) % P
                    np.take(self._masks[tick],
                            np.searchsorted(self._cums[tick], u[r::P], side="right"),
                            axis=0, out=masks[i + r:i + len(u):P], mode="clip")
            return masks
        carry = {} if carry is None else carry
        state, picked = carry.get("hook", (None, np.full(trials, -1)))
        for i, u in _uniform_groups(rng, steps, (trials,)):
            for r, row in enumerate(u):
                k = start + i + r + 1
                tick = (k - 1) % P
                w, state = self.weight_fn(k, state, picked)
                w = np.asarray(w, dtype=np.float64)
                if (w.shape != (trials, len(self._probs[tick])) or not (w > 0).all()
                        or not (np.abs(w.sum(axis=1) - 1.0) <= 1e-9).all()):
                    raise ValidationError(
                        "weight_fn must return (trials, candidates) positive weights "
                        "over the tick's declared supports, each row summing to 1"
                    )
                picked = _pick(_cumulative(w), row)
                np.take(self._masks[tick], picked, axis=0, out=masks[i + r], mode="clip")
        carry["hook"] = (state, picked)
        return masks

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


class GlobalClockScheduler(SupportSequenceScheduler):
    """One uniform draw per tick selects a single updating agent: the
    period-1 support sequence of the singletons {j} with ``p[j] > 0``."""

    kind = "global_clock"

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("global_clock needs a 1-d probability vector")
        if not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > PROB_TOL:
            raise ValidationError("global_clock probabilities must be >= 0 and sum to 1")
        self.p = p
        super().__init__(p.size, [[({j + 1}, p[j]) for j in np.flatnonzero(p > 0)]])

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {"p": [float(v) for v in self.p]}}


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
    history_independent = False

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
        self.period = None if self.matrices is None else len(self.matrices)
        self._masks = _mask_table(self.states, self.n)
        self._cums = (None if self.matrices is None
                      else [_cumulative(M.entries.T) for M in self.matrices])

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

    def law(self, k: int) -> tuple:
        """The state masks and the column-stochastic law of the move from
        tick k to tick k+1: ``probs[i, j]`` is the probability of state i
        following state j."""
        return self._masks, self.transition_matrix(k).entries

    def _cumulative_law(self, k: int) -> np.ndarray:
        """Row s: ``_cumulative`` of the law of the state that follows state
        s in the move from tick k to tick k+1."""
        if self._cums is not None:
            return self._cums[(k - 1) % len(self._cums)]
        return _cumulative(self.transition_matrix(k).entries.T)

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
                law = self._cumulative_law(start + first + i + r)
                state = path[r] = _pick(law[state], row)
            np.take(self._masks, path, axis=0, out=masks[first + i:first + i + len(u)],
                    mode="clip")
        carry["state"] = state
        return masks

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
        self.period = max(len(self.sets), 1)
        self._masks = _mask_table(self.sets, self.n)

    def sample_masks(self, steps: int, rng, trials: int = 1, start: int = 0,
                     carry=None) -> np.ndarray:
        self.check_horizon(start + steps)
        rows = self._masks[np.arange(start, start + steps) % len(self.sets)]
        return np.repeat(rows[:, None], trials, axis=1)

    def check_horizon(self, steps: int) -> None:
        if steps > len(self.sets) and not (self.repeat and self.sets):
            raise ValidationError(f"script of length {len(self.sets)} exhausted")

    def law(self, k: int) -> tuple:
        """The set of tick k with probability 1; no row for an empty script."""
        rows = self._masks[(k - 1) % self.period:][:1]
        return rows, np.ones(len(rows))

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
    if not isinstance(kind, str) or kind not in _KINDS:
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
            return SupportSequenceScheduler(_integer(params["n"], "n"), ticks)
        if kind == "markov":
            return MarkovScheduler(
                _integer(params["n"], "n"),
                params["states"],
                params["initial"],
                matrix=params.get("matrix"),
                matrices=params.get("matrices"),
            )
        return ScriptScheduler(
            _integer(params["n"], "n"), params["sets"], repeat=bool(params.get("repeat", False))
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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


def _supports(law: tuple) -> np.ndarray:
    """The rows of a law that can be drawn: those with a positive entry (for
    a Markov law, the states some state moves to)."""
    masks, probs = law
    if probs is None:
        return masks
    live = probs > 0
    return masks[live.any(axis=1) if live.ndim == 2 else live]


def check_conditions(scheduler: Scheduler, A: StochasticMatrix,
                     q_max: int = DEFAULT_Q_MAX) -> ConditionReport:
    """Evaluate the five almost-sure-consensus conditions for the pair.

    Markov schedulers are reported as failing history independence (their
    supports genuinely depend on the previous state); their coverage and
    quasi-singleton checks run on the union of supports over source states
    and are flagged as approximate in the notes.
    """
    if q_max < 1:
        raise ValidationError(f"q_max must be >= 1, got {q_max}")
    if scheduler.n != A.n:
        raise DimensionError(f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}")
    n = A.n
    checks = []

    report = roots(build_graph(A))
    checks.append(ConditionCheck("rooted", report.rooted, report.to_json()))

    try:
        if scheduler.period is None:
            raise NotEnumerableError("time-varying matrix_fn supports cannot be enumerated")
        laws = [scheduler.law(k) for k in range(1, scheduler.period + 1)]
    except NotEnumerableError as exc:
        laws, unavailable = None, str(exc)
    if laws is None or any(probs is None for _, probs in laws):
        checks.append(ConditionCheck(
            "positive_probability", False, {},
            note="no uniform lower bound on transition probabilities is available",
        ))
    else:
        alpha = min(float(np.min(probs, initial=1.0, where=probs > 0)) for _, probs in laws)
        checks.append(ConditionCheck("positive_probability", True, {"alpha": alpha}))

    hist_free = scheduler.history_independent
    note = "" if hist_free else "supports depend on the previous state"
    checks.append(ConditionCheck("history_independent", hist_free,
                                 {"kind": scheduler.kind}, note=note))

    if laws is None:
        checks.append(ConditionCheck("joint_coverage", False, {}, note=unavailable))
        checks.append(ConditionCheck("quasi_singleton", False, {}, note=unavailable))
        return ConditionReport(checks)
    approx_note = "" if hist_free else "supports approximated by the union over source states"
    supports = [_supports(law) for law in laws]
    period = len(supports)

    # covered[k]: the agents drawable within q ticks of window start k + 1;
    # a window has seen every tick of the period by q = period
    unions = np.array([masks.any(axis=0) for masks in supports])
    covered = np.zeros_like(unions)
    q_at = np.zeros(period, dtype=int)
    for q in range(1, min(q_max, period) + 1):
        covered |= np.roll(unions, 1 - q, axis=0)
        q_at[(q_at == 0) & covered.all(axis=1)] = q
    short = np.flatnonzero(q_at == 0)
    if short.size:
        k = int(short[0])
        checks.append(ConditionCheck("joint_coverage", False, {
            "window_start": k + 1, "covered": (np.flatnonzero(covered[k]) + 1).tolist(),
            "q_max": q_max}, note=approx_note))
    else:
        checks.append(ConditionCheck("joint_coverage", True,
                                     {"q": int(q_at.max()), "period": period}, note=approx_note))

    if not report.rooted:
        checks.append(ConditionCheck(
            "quasi_singleton", False, {},
            note="graph is not rooted, so there is no root component to check",
        ))
        return ConditionReport(checks)
    chi = report.chi
    in_chi = np.isin(np.arange(1, n + 1), sorted(chi))
    violations = []
    for j in sorted(chi):
        for k, masks in enumerate(supports, start=1):
            containing = masks[masks[:, j - 1]]
            if not len(containing):
                violations.append({"k": k, "j": j, "kind": "no_support"})
                continue
            inter = (np.flatnonzero(containing.all(axis=0) & in_chi) + 1).tolist()
            if inter != [j]:
                violations.append({"k": k, "j": j, "kind": "intersection",
                                   "intersection": inter})
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
    """Compare the two expectations exactly over the law of tick k."""
    if scheduler.n != A.n:
        raise DimensionError(f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}")
    if not (1 <= i <= A.n and 1 <= j <= A.n) or i == j:
        raise ValidationError(f"need distinct agents in 1..{A.n}, got i={i}, j={j}")
    masks, probs = scheduler.law(k)
    if probs is None or probs.ndim != 1 or not probs.size:
        raise NotEnumerableError(
            f"tick {k} of the {scheduler.kind} scheduler has no history-free law")
    a_ii = float(A.entries[i - 1, i - 1])
    a_ij = float(A.entries[i - 1, j - 1])
    # only the sets with i add: row i of A_sigma is e_i otherwise, so its
    # (i, j) entry is 0; the sums add the rows left to right, where np.sum
    # would add pairwise and round differently
    p = probs[masks[:, i - 1]]
    lhs, rhs = (float(np.cumsum(x)[-1]) if x.size else 0.0 for x in (p * a_ii * a_ij, p * a_ij))
    return StrongAperiodicityCheck(i=i, j=j, lhs=lhs, rhs=rhs)
