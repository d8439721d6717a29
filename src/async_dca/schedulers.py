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
script: none), in groups of ticks that ``rng._uniform_groups`` draws into
one buffer of about ``rng.UNIFORM_BUFFER_BYTES``, the doubles that scalar
calls would give.  So a horizon drawn in blocks, with ``start`` and
``carry`` passed on, is the horizon drawn at once and equals the scalar
reference draws in ``tests/_oracles.py``; one trial draws what seed
contract 1 drew.  ``carry`` is a dict, empty at tick 0: a Markov chain
keeps its (trials,) last states there, a ``weight_fn`` hook its state and
the (trials,) picks of the last tick.  Every pick is
``_pick``: the count of the finite entries of a cumulative row
(``_cumulative``, last entry inf) at or below the uniform, one ``add`` per
candidate into the least unsigned dtype that holds the outcomes.  A fixed
law picks a whole group of ticks against its one row; a ``weight_fn`` hook
and a Markov chain pick against one row per trial.  The count is the
insertion point a binary search would find; it costs O(candidates) a draw,
less than the kernel's O(n^2) work a trial-step.

Support contract: ``supports(k)`` is each kind's one answer to "which sets
can tick k draw".  It returns ``(meet, floor)``: ``meet`` is the (n, n)
bool matrix whose row j is the intersection of the drawable sets that
contain agent j, all False when no set contains j, so its diagonal is their
union; ``floor`` is the least probability of a drawable set -- ``None``
under a ``weight_fn`` hook, whose weights follow history, and for
``markov`` the least positive probability of the move from tick k to tick
k+1.  Tick k + ``period`` has the supports of tick k; ``period`` is None
for a ``matrix_fn`` law, which need not repeat.  The table kinds count the
sets that hold each pair of agents (``_meet``); independent clocks answer
in closed form at any n.

``check_conditions`` evaluates the almost-sure-consensus conditions for a
scheduler/matrix pair as reductions over the supports of ticks 1 ..
period: rootedness, a positive lower bound on nonzero transition
probabilities, history independence of the support sets, joint coverage of
all agents within a window of q ticks (decided exactly, since a window of
``period`` ticks sees every tick), and the quasi-singleton property of the
root component (for each root-component member j, every tick offers a set
containing j, and the meet of those sets meets the root component exactly
in {j}).  ``check_strongly_aperiodic`` decides strong aperiodicity for
every pair of agents from the same answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .graphs import build_graph, roots
from .matrices import ROW_SUM_TOL, ColumnStochasticMatrix, StochasticMatrix, _integer, _reals
from .rng import _uniform_groups

MAX_SUPPORT_PERIOD = 64


def normalize_update_set(sigma, n: int) -> frozenset:
    """Coerce an agent index or an iterable of indices to a frozenset.

    A bare integer j and the one-element set {j} are the same update set.
    """
    if isinstance(sigma, (int, np.integer)):
        members = frozenset({_integer(sigma, "update-set member")})
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
    """The outcome each uniform picks from ``_cumulative`` rows: the count
    of the finite entries <= u, in the least unsigned dtype that holds the
    last outcome.

    ``cum`` is one (K,) row for every uniform of ``u`` (a fixed law) or one
    (T, K) row per trial for the (T,) uniforms ``u``.  One ``add`` per
    finite entry counts it for every uniform at once; the last entry is
    inf, which no uniform reaches.
    """
    K = cum.shape[-1]
    acc = np.zeros(u.shape, dtype=np.min_scalar_type(K - 1))
    for j in range(K - 1):
        np.add(acc, u >= cum[..., j], out=acc)
    return acc


def _mask_table(sets, n: int) -> np.ndarray:
    """(len(sets), n) update masks, one row per set."""
    masks = np.zeros((len(sets), n), dtype=bool)
    for row, s in zip(masks, sets):
        row[[j - 1 for j in s]] = True
    return masks


def _meet(masks: np.ndarray) -> np.ndarray:
    """The meet of the (s, n) ``masks`` (see the module docstring): agent i
    is in row j when every set holding j holds i.  The pair counts are
    exact in float64 below 2^53 sets, and the product runs in BLAS."""
    M = masks.astype(np.float64)
    both = M.T @ M
    d = both.diagonal()
    return (both == d[:, None]) & (d > 0)[:, None]


class Scheduler:
    """Shared interface; subclasses set ``kind`` and ``period`` and implement
    ``sample_masks`` and ``supports``."""

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

    def supports(self, k: int) -> tuple:
        """``(meet, floor)`` of tick k (see the module docstring)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _check_sizes(scheduler: Scheduler, A: StochasticMatrix) -> None:
    """Raise DimensionError unless the scheduler draws for the matrix's agents."""
    if scheduler.n != A.n:
        raise DimensionError(f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}")


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

    def supports(self, k: int) -> tuple:
        """In closed form at any n: the sets holding an agent with ``p[j] >
        0`` meet in {j} and the sure agents, and the least likely set takes
        the less likely side of every coin in (0, 1)."""
        p = self.p
        meet = (np.eye(self.n, dtype=bool) | (p == 1.0)) & (p > 0)[:, None]
        free = p[(p > 0) & (p < 1)]
        return meet, float(np.prod(np.minimum(free, 1.0 - free)))

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {"p": [float(v) for v in self.p]}}


class SupportSequenceScheduler(Scheduler):
    """Periodic per-tick lists of candidate update sets with probabilities.

    ``ticks`` is a list (one entry per tick of the period) of
    ``[(update_set, probability), ...]``.  All listed probabilities must be
    strictly positive, so the declared supports are exactly the possible
    draws.  An optional ``weight_fn(k, state, picked) -> (weights, state)``
    reweights the tick's candidates based on history.  It is called once
    per tick k for all T trials: ``picked`` is the (T,) intp indices of
    the candidates tick k - 1 drew (-1 at tick 1), ``state`` what the hook
    returned at tick k - 1 (None at tick 1), and ``weights`` the (T,
    candidates) weights of tick k, each row summing to 1 within 1e-9 (the
    declared probabilities: within ``ROW_SUM_TOL``).  They must keep every
    candidate's probability positive, which preserves history independence
    of the support sets themselves.
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
            if abs(probs.sum() - 1.0) > ROW_SUM_TOL:
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

    def supports(self, k: int) -> tuple:
        """The meet of the tick's declared sets and their least probability,
        None under a ``weight_fn`` hook, whose weights the draws follow and
        no declared probability bounds."""
        t = (k - 1) % self.period
        floor = None if self.weight_fn is not None else float(np.min(self._probs[t], initial=1.0))
        return _meet(self._masks[t]), floor

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
                    np.take(self._masks[tick], _pick(self._cums[tick], u[r::P]),
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
                # the hook reads signed indices, as the -1 of tick 1
                picked = _pick(_cumulative(w), row).astype(np.intp)
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
        if not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > ROW_SUM_TOL:
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

    def supports(self, k: int) -> tuple:
        """The meet of the states some state moves to from tick k to tick
        k+1, and the least positive probability of that move."""
        P = self.transition_matrix(k).entries
        live = P > 0
        return _meet(self._masks[live.any(axis=1)]), float(np.min(P, initial=1.0, where=live))

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
            path = np.empty(u.shape, dtype=np.min_scalar_type(len(self.states) - 1))
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
        try:
            self.sets = tuple(normalize_update_set(s, self.n) for s in sets)
        except TypeError as exc:
            raise ValidationError(f"a script is a list of update sets: {exc}") from exc
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

    def supports(self, k: int) -> tuple:
        """The set of tick k, drawn surely; no set for an empty script."""
        return _meet(self._masks[(k - 1) % self.period:][:1]), 1.0

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
            return GlobalClockScheduler(_reals(params["p"], "'p'"))
        if kind == "independent_clocks":
            return IndependentClocksScheduler(_reals(params["p"], "'p'"))
        if kind == "support_sequence":
            ticks = [[(opt["set"], _reals(opt["prob"], "'prob'")) for opt in options]
                     for options in params["ticks"]]
            return SupportSequenceScheduler(_integer(params["n"], "n"), ticks)
        if kind == "markov":
            laws = {key: _reals(params[key], f"'{key}'") for key in ("matrix", "matrices")
                    if params.get(key) is not None}
            return MarkovScheduler(_integer(params["n"], "n"), params["states"],
                                   params["initial"], **laws)
        repeat = params.get("repeat", False)
        if not isinstance(repeat, bool):
            raise ValidationError(f"script 'repeat' must be true or false, got {repeat!r}")
        return ScriptScheduler(_integer(params["n"], "n"), params["sets"], repeat=repeat)
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

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {c.name: c.to_json() for c in self.checks},
        }


_NO_PERIOD = "time-varying matrix_fn supports cannot be enumerated"
_UNION_NOTE = "supports approximated by the union over source states"


def _period_supports(scheduler: Scheduler) -> tuple:
    """``(meets, floors)`` of ticks 1 .. period: the (period, n, n) meets and
    the list of floors; ``(None, None)`` for a law that need not repeat."""
    if scheduler.period is None:
        return None, None
    answers = [scheduler.supports(k) for k in range(1, scheduler.period + 1)]
    return np.array([meet for meet, _ in answers]), [floor for _, floor in answers]


def check_conditions(scheduler: Scheduler, A: StochasticMatrix) -> ConditionReport:
    """Evaluate the five almost-sure-consensus conditions for the pair.

    Joint coverage passes with witness ``{"q", "period"}``, q the least
    window length after which every window covers every agent, or fails
    with ``{"covered"}``, the agents some tick can draw.  Markov schedulers
    are reported as failing history independence (their supports genuinely
    depend on the previous state); their coverage and quasi-singleton
    checks run on the union of supports over source states and are flagged
    as approximate in the notes.
    """
    _check_sizes(scheduler, A)
    n = A.n
    checks = []

    chi = roots(build_graph(A))
    checks.append(ConditionCheck("rooted", bool(chi), {
        "rooted": bool(chi), "roots": sorted(chi), "chi": sorted(chi)}))

    meets, floors = _period_supports(scheduler)
    if floors is None or None in floors:
        checks.append(ConditionCheck(
            "positive_probability", False, {},
            note="no uniform lower bound on transition probabilities is available",
        ))
    else:
        # every floor is the probability of a drawable set, positive but
        # for a product of clock coins that rounds to 0
        alpha = min(floors)
        note = "" if alpha > 0 else "the least set probability underflows float64"
        checks.append(ConditionCheck("positive_probability", True, {"alpha": alpha}, note=note))

    hist_free = scheduler.history_independent
    note = "" if hist_free else "supports depend on the previous state"
    checks.append(ConditionCheck("history_independent", hist_free,
                                 {"kind": scheduler.kind}, note=note))

    if meets is None:
        checks.append(ConditionCheck("joint_coverage", False, {}, note=_NO_PERIOD))
        checks.append(ConditionCheck("quasi_singleton", False, {}, note=_NO_PERIOD))
        return ConditionReport(checks)
    approx_note = "" if hist_free else _UNION_NOTE

    unions = meets.diagonal(axis1=1, axis2=2)
    drawable = unions.any(axis=0)
    if not drawable.all():
        checks.append(ConditionCheck("joint_coverage", False, {
            "covered": (np.flatnonzero(drawable) + 1).tolist()}, note=approx_note))
    else:
        # covered[k]: the agents drawable within q ticks of window start k + 1;
        # every window covers every agent by q = period
        covered = np.zeros_like(unions)
        q = 0
        while not covered.all():
            q += 1
            covered |= np.roll(unions, 1 - q, axis=0)
        checks.append(ConditionCheck("joint_coverage", True,
                                     {"q": q, "period": len(meets)}, note=approx_note))

    if not chi:
        checks.append(ConditionCheck(
            "quasi_singleton", False, {},
            note="graph is not rooted, so there is no root component to check",
        ))
        return ConditionReport(checks)
    in_chi = np.isin(np.arange(1, n + 1), sorted(chi))
    violations = []
    for j in sorted(chi):
        for k, meet in enumerate(meets, start=1):
            if not meet[j - 1, j - 1]:
                violations.append({"k": k, "j": j, "kind": "no_support"})
                continue
            inter = (np.flatnonzero(meet[j - 1] & in_chi) + 1).tolist()
            if inter != [j]:
                violations.append({"k": k, "j": j, "kind": "intersection",
                                   "intersection": inter})
    checks.append(ConditionCheck(
        "quasi_singleton", not violations,
        {"chi": sorted(chi), "violations": violations[:20]}, note=approx_note,
    ))
    return ConditionReport(checks)


def check_strongly_aperiodic(scheduler: Scheduler, A: StochasticMatrix) -> ConditionCheck:
    """Strong aperiodicity for every pair at once: one gamma > 0 with
    E[A_sigma(i,i) A_sigma(i,j)] >= gamma E[A_sigma(i,j)] for all i != j.

    Row i of A_sigma is row i of A when i updates and e_i otherwise, so the
    left side is a_ii times the right, and the best gamma is the least a_ii
    over the agents some tick of the period can draw that have an a_ij > 0,
    j != i (1.0 when none has).  Passes with witness ``{"gamma"}``, or fails
    with ``{"pairs"}``, the first 20 such [i, j] with a_ii = 0.
    """
    _check_sizes(scheduler, A)
    meets, _ = _period_supports(scheduler)
    if meets is None:
        return ConditionCheck("strongly_aperiodic", False, {}, note=_NO_PERIOD)
    note = "" if scheduler.history_independent else _UNION_NOTE
    a = A.entries
    drawable = meets.diagonal(axis1=1, axis2=2).any(axis=0)
    pairs = (a > 0) & ~np.eye(A.n, dtype=bool) & drawable[:, None]
    diag = a.diagonal()
    gamma = float(np.min(diag, initial=1.0, where=pairs.any(axis=1)))
    if gamma > 0:
        return ConditionCheck("strongly_aperiodic", True, {"gamma": gamma}, note=note)
    failing = np.argwhere(pairs & (diag == 0)[:, None])[:20] + 1
    return ConditionCheck("strongly_aperiodic", False, {"pairs": failing.tolist()}, note=note)
