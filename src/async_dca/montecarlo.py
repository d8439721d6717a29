"""Monte Carlo experiment harness and canned qualitative replays.

An experiment runs T independent trials of K asynchronous updates and
aggregates, per step count k, the empirical tail probabilities
``P(Delta(x) >= eps)`` and ``P(lambda(product) >= eps)``.  Consensus is
declared at the horizon when the discrepancy drops below ``eps``
(default 1e-6).  Non-convergence claims in the replays use a coarser
threshold, 0.05 on the median final discrepancy (``NONCONSENSUS_DELTA``).
Both are desk-scale stand-ins for asymptotic statements, chosen so each
canned experiment finishes in seconds; replay reports carry a note saying
which threshold they operationalise.

All trials draw from the one stream ``stream(seed, 0)`` (seed contract 3,
see ``rng``): first the initial states of every trial (when random), then
the schedule, tick by tick and, within a tick, trial by trial.
``trajectory_blocks``, the one way into the trajectory kernel, runs the
trials as one streamed pipeline (``simulate`` and a replay's script run one
trial of it).  It yields step 0, the initial values, as a block of its
own, then draws the schedule of every trial in blocks of B ticks, B set
by ``MASK_BLOCK_BYTES``, with one ``sample_masks`` call per block,
advances the resumable kernel by one block and hands the block to the
caller to reduce before drawing the next.  The stream is consumed tick by
tick, so splitting it into blocks of ticks keeps every draw and no output
depends on B; and a run of one trial draws what trial 0 drew under seed
contract 1, so ``simulate`` equals ``mc --trials 1`` and both equal their
contract-1 outputs.  ``run_experiment`` reports the product only through
its lambda tail and the maxima of three checks, so it drops the product
once every trial's lambda is provably below ``eps`` for the rest of the
horizon (``_lambda_rise``): the tails are bitwise those of tracking every
step, and the maxima cover the steps up to ``product_steps``.  Once the
kernel stops at an exact fixed point, of the states and of any tracked
product, nothing more is drawn, and hooks such as ``matrix_fn`` and
``weight_fn`` are not called for the later ticks.  Memory is O(T (n^2 +
B n) + K), plus the state a ``weight_fn`` hook keeps: a block holds about
``MASK_BLOCK_BYTES`` (256 KiB) of masks and, 8 / n times that each, its
(B, T) float64 series of discrepancies and, with lambda, coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import expm1, log1p

import numpy as np

from . import _kernels
from .datasets import bundled_matrix
from .errors import DimensionError, ValidationError
from .graphs import is_sia
from .matrices import PRODUCT_ROW_SUM_TOL, StochasticMatrix, max_discrepancy
from .rng import DEFAULT_SEED, SEED_CONTRACT, stream
from .schedulers import (
    GlobalClockScheduler,
    MarkovScheduler,
    Scheduler,
    ScriptScheduler,
    SupportSequenceScheduler,
    _check_sizes,
    check_conditions,
    check_strongly_aperiodic,
)

CONSENSUS_EPSILON = 1e-6
NONCONSENSUS_DELTA = 0.05
MASK_BLOCK_BYTES = 1 << 18  # update masks drawn per block of the pipeline

_THRESHOLD_NOTE = (
    "desk-scale operationalisation: the asymptotic claim is replaced by "
    f"'median final discrepancy > {NONCONSENSUS_DELTA}' at the given horizon"
)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """T trials of K steps from ``init``, "uniform" on [-1, 1) or one
    vector; at horizon K = 0 the pipeline yields the initial row alone."""

    matrix: StochasticMatrix
    scheduler: Scheduler
    trials: int
    horizon: int
    epsilon: float = CONSENSUS_EPSILON
    seed: int = DEFAULT_SEED
    init: object = "uniform"
    track_lambda: bool = True

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 0:
            raise ValidationError("need trials >= 1 and horizon >= 0")
        if not 0 < self.epsilon < np.inf:
            raise ValidationError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        _check_sizes(self.scheduler, self.matrix)
        if not isinstance(self.init, str):
            arr = np.asarray(self.init, dtype=np.float64)
            if arr.shape != (self.matrix.n,):
                raise DimensionError(f"fixed init must have length {self.matrix.n}")
            if not np.isfinite(arr).all():
                raise ValidationError("fixed init has a non-finite entry")
            object.__setattr__(self, "init", arr)
        elif self.init != "uniform":
            raise ValidationError(f"init must be 'uniform' or a vector, got {self.init!r}")
        # checked against the whole horizon, before any block is drawn
        self.scheduler.check_horizon(self.horizon)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Tails, final discrepancies and the maxima of the kernel's checks:
    ``delta_k - lambda_k delta_0``, ``lambda_k - lambda_{k-1}`` and the
    product's row-sum error over steps 1..``product_steps``, the last step
    the product was tracked (the horizon unless it was dropped early; None
    and all zeros without lambda).  ``delta_quantiles`` are the min,
    quartiles and max of ``final_deltas`` under numpy's default
    ``'linear'`` rule (Hyndman & Fan's type 7), bitwise ``np.quantile``'s
    (``_quantiles``)."""

    trials: int
    horizon: int
    epsilon: float
    seed: int
    backend: str
    delta_tail: np.ndarray
    lambda_tail: np.ndarray
    consensus_fraction: float
    final_deltas: np.ndarray
    delta_quantiles: dict
    max_contraction_violation: float
    max_lambda_increase: float
    max_product_row_error: float
    product_steps: int | None = None

    def to_json(self) -> dict:
        """Summary dict; the per-k tail series go to the CSV output."""
        return {
            "trials": self.trials,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "backend": self.backend,
            "seed_contract": SEED_CONTRACT,
            "consensus_fraction": self.consensus_fraction,
            "delta_quantiles": self.delta_quantiles,
            "max_contraction_violation": self.max_contraction_violation,
            "max_lambda_increase": self.max_lambda_increase,
            "max_product_row_error": self.max_product_row_error,
            **({} if self.product_steps is None else {"product_steps": self.product_steps}),
        }


def trajectory_blocks(cfg: ExperimentConfig):
    """Run the trials of ``cfg`` as a streamed pipeline, one block at a time.

    Yields ``(k, deltas, lams, carry)`` per block: (R, T) rows for steps
    ``k .. k + R - 1`` and the run's ``_kernels.Carry``.  Step 0, the
    initial values, comes first as a block of its own, before any mask is
    drawn.  When the last block ends before the horizon, ``carry.fixed`` is
    True and every later row repeats its last one.  A block after which a
    product's row sum is off by more than ``PRODUCT_ROW_SUM_TOL`` plus
    ``(1 + d)^k - 1``, the drift of k steps whose rows miss 1 by up to d,
    raises ValidationError instead.
    """
    A, n, T, K = cfg.matrix.entries, cfg.matrix.n, cfg.trials, cfg.horizon
    B = max(1, min(K, MASK_BLOCK_BYTES // (T * n)))
    rng = stream(cfg.seed, 0)
    if isinstance(cfg.init, str):
        x0 = rng.uniform(-1.0, 1.0, (T, n))
    else:
        x0 = np.tile(cfg.init, (T, 1))
    carry = _kernels.Carry(x0, cfg.track_lambda)
    yield 0, carry.d0[None], carry.lam[None], carry
    # A_sigma's rows are rows of A or of I: k steps drift by (1 + d)^k - 1
    drift = log1p(float(np.abs(A.sum(axis=1) - 1.0).max()))
    draws = {}  # what the scheduler carries from block to block
    for k0 in range(0, K, B):
        masks = cfg.scheduler.sample_masks(min(B, K - k0), rng, T, k0, draws)
        # the kernel reads the tick-major block as a (T, b, n) view
        deltas, lams, carry = _kernels.trajectory_batch(
            A, masks.transpose(1, 0, 2), carry, carry.track_lambda)
        del masks
        err = float(carry.row_err.max())
        tol = PRODUCT_ROW_SUM_TOL + expm1((k0 + len(deltas)) * drift)
        if err > tol:
            raise ValidationError(f"accumulated product has a row sum off by {err!r}, "
                                  f"more than {tol}")
        if carry.fixed or k0 + B >= K:
            carry.buffers = None  # the last block: free the kernel's chunk buffers
        yield k0 + 1, deltas, lams, carry
        if carry.fixed:
            return
        # the caller has reduced this block: free its rows before the next
        del deltas, lams


def _lambda_rise(A: StochasticMatrix) -> float:
    """``rho = 6 (2 gamma_n + d)``, a bound on how far one step can raise
    the kernel's computed lambda once its gap to the row-sum error is paid,
    with ``gamma_n = n u / (1 - n u)``, u = 2^-53, and d the largest
    computed row-sum error of ``A``.

    ``run_experiment`` drops the product after step k < K once every
    trial's computed lambda is ``< eps - 2 e - (N + 1) rho``, with N = K -
    k steps left and e the largest computed row-sum error so far.  Then no
    computed lambda of a later step reaches eps.  Let P be a step's
    computed product, e* the largest error of its exact row sums, ``tau =
    max_{a,b} ||P_a - P_b||_1 / 2`` (Dobrushin's ``tau_1``) and ``g =
    gamma_n + d*``, d* the exact row-sum error of ``A``: ``d <= d* +
    1.01 gamma_n``, so ``g <= 2 gamma_n + d``.

    1. For real rows ``sum_c min(u_c, v_c) = (sum u + sum v - ||u - v||_1)
       / 2``, so 1 minus the least exact pair mass is within e* of tau.
       The entries are >= 0, and the kernel's left-to-right sums of n
       terms, the pair masses and the row sums alike, are off by at most
       ``gamma_n (1 + e*)``.  So ``e* <= e + 1.52 gamma_n``, ``tau <=
       lambda + e* + 3 gamma_n`` at step k and, later, ``lambda <= (1 + u)
       (tau + e* + gamma_n (1 + e*))`` (n >= 2; one agent's lambda is 0).
    2. ``tau(A_sigma P) <= tau(P)`` for a stochastic ``A_sigma`` and any
       real P: each row difference of ``A_sigma P`` is a convex
       combination of P's.  Rows that miss 1 by d* give ``(1 + d*) tau
       + d* (1 + e*)``.
    3. A step's gemm rounds each updated row by at most ``gamma_n (1 +
       d*)(1 + e*)`` in 1-norm, and the kept rows are copied.  So a step
       takes ``1 + e*`` to at most ``(1 + g)(1 + e*)`` and tau to ``(1 +
       d*) tau + g (1 + d*)(1 + e*)``.

    A switch with eps > 1 is safe, since lambda <= 1; with eps <= 1 it
    needs the margin below 1, so ``e < 1 / 2`` and ``N g < 1 / 6``, where
    ``exp(N g) - 1 <= 1.09 N g``.  Then over N steps e* rises by at most
    ``1.65 N g`` and tau by ``3.75 N g``, and every later computed lambda
    is at most ``lambda + 2 e + 5.4 N g + 9.4 gamma_n``, below ``lambda
    + 2 e + (N + 1) rho``.  At n = 6 and K = 5000 the margin is below
    4e-11.
    """
    n, unit = A.n, 2.0 ** -53
    d = float(np.abs(A.entries.sum(axis=1) - 1.0).max())
    return 6 * (2 * n * unit / (1 - n * unit) + d)


_QUANTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _quantiles(x: np.ndarray) -> np.ndarray:
    """``np.quantile(x, _QUANTILES)`` bit for bit, without the import of
    ``numpy.ma`` (about 10 ms) that its first call in a process makes.

    numpy's default ``'linear'`` rule (Hyndman & Fan's type 7): virtual
    index ``v = (n - 1) q``, neighbours ``floor(v)`` and the next index,
    both the last where ``v >= n - 1`` (numpy indexes it as -1, so its
    weight is ``v + 1``), and ``_lerp``'s two-sided interpolation; every
    quantile is the last value when that is NaN.  The values come from one
    partition at numpy's own sorted indices: ``np.sort`` may order -0.0
    and 0.0 otherwise.
    """
    n = len(x)
    v = (n - 1) * _QUANTILES
    i = np.floor(v)
    top = v >= n - 1
    i[top] = -1
    lo = i.astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    s = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    g = v - i
    a, b = s[lo], s[hi]
    d = b - a
    q = np.add(a, d * g)
    np.subtract(b, d * (1 - g), out=q, where=g >= 0.5)
    if np.isnan(s[-1]):
        q[:] = s[-1]
    return q


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """T seeded trials of K updates; all statistics deterministic in the seed.

    Each block is reduced to per-step counts of trials at or above
    epsilon; ``count / T`` equals the mean of the 0/1 indicators bit for
    bit, since a float sum of 0/1 values is exact.  With lambda tracked,
    the product is dropped after the first block at whose end every
    trial's lambda is provably below epsilon for the rest of the horizon
    (see ``_lambda_rise``; a NaN never is): later blocks step the states
    alone, their lambda counts are 0, as they would be with the product,
    and the three maxima cover steps up to ``product_steps``.  The
    quantiles of the final discrepancies come from one partition of them
    (``_quantiles``), not from ``np.quantile``, which imports ``numpy.ma``.
    """
    K, eps = cfg.horizon, cfg.epsilon
    delta_count = np.zeros(K + 1, dtype=np.int64)
    lambda_count = np.zeros(K + 1, dtype=np.int64)
    rho = _lambda_rise(cfg.matrix)
    product_steps = K if cfg.track_lambda else None
    for k, deltas, lams, carry in trajectory_blocks(cfg):
        k1 = k + len(deltas)
        (deltas >= eps).sum(axis=1, out=delta_count[k:k1])
        last = k1 - 1  # the step of carry.lam
        if carry.track_lambda:
            (lams >= eps).sum(axis=1, out=lambda_count[k:k1])
            margin = 2 * carry.row_err.max() + (K - last + 1) * rho
            if 0 < last < K and not carry.fixed and (carry.lam < eps - margin).all():
                carry.drop_product()
                product_steps = last
        elif not cfg.track_lambda:  # all-ones rows; a dropped product's counts stay 0
            (lams >= eps).sum(axis=1, out=lambda_count[k:k1])
        final = deltas[-1].copy()
        del deltas, lams  # before the next block's rows are allocated
    delta_count[k1:] = delta_count[k1 - 1]
    lambda_count[k1:] = lambda_count[k1 - 1]
    qs = _quantiles(final)
    return ExperimentResult(
        trials=cfg.trials,
        horizon=cfg.horizon,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
        backend=_kernels.backend_name(),
        delta_tail=delta_count / cfg.trials,
        lambda_tail=lambda_count / cfg.trials,
        consensus_fraction=float((final < cfg.epsilon).mean()),
        final_deltas=final,
        delta_quantiles={
            "min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
            "q75": float(qs[3]), "max": float(qs[4]),
        },
        max_contraction_violation=float(carry.viol_contract.max()),
        max_lambda_increase=float(carry.viol_mono.max()),
        max_product_row_error=float(carry.row_err.max()),
        product_steps=product_steps,
    )


# ---------------------------------------------------------------------------
# canned replays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayReport:
    case: str
    ok: bool
    failures: tuple
    details: dict

    def to_json(self) -> dict:
        return {"case": self.case, "ok": self.ok,
                "failures": list(self.failures), "details": self.details}


def _given(value, default):
    """A replay's trials or horizon; only None takes the default."""
    return default if value is None else value


class _Checks:
    def __init__(self):
        self.failures = []

    def expect(self, name: str, condition: bool) -> None:
        if not condition:
            self.failures.append(name)


def _median_stays_above(checks: _Checks, A, scheduler, report, trials, horizon, seed,
                        **details) -> dict:
    """Run the Monte Carlo part of a non-consensus replay and expect its
    median final discrepancy above ``NONCONSENSUS_DELTA``; returns
    ``details`` followed by the median, ``report`` and the threshold note."""
    cfg = ExperimentConfig(A, scheduler, trials=trials, horizon=horizon, seed=seed,
                           track_lambda=False)
    median = run_experiment(cfg).delta_quantiles["median"]
    checks.expect(f"median final discrepancy stays above {NONCONSENSUS_DELTA}",
                  median > NONCONSENSUS_DELTA)
    return {**details, "median_final_delta": median, "conditions": report.to_json(),
            "threshold_note": _THRESHOLD_NOTE}


def _run_script(A: StochasticMatrix, sets, x1):
    """Final state and accumulated product of one run over the update sets
    ``sets`` from ``x1``: one pipeline trial, with its row sums checked."""
    script = ScriptScheduler(A.n, sets)
    cfg = ExperimentConfig(A, script, trials=1, horizon=len(script.sets), init=x1)
    for *_, carry in trajectory_blocks(cfg):
        pass
    return carry.x[:, 0].copy(), StochasticMatrix(carry.Q[:, 1:, 0], tol=PRODUCT_ROW_SUM_TOL)


def _replay_example2(trials, horizon, seed):
    A = bundled_matrix("five_node_shift")
    checks = _Checks()
    checks.expect("base matrix is SIA", is_sia(A))
    _, product = _run_script(A, [5, 4, 1, 2, 3], np.arange(5, dtype=float))
    expected = np.array([
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ], dtype=float)
    checks.expect("five-factor product matches the expected matrix",
                  np.array_equal(product.entries, expected))
    checks.expect("five-factor product is not SIA", not is_sia(product))
    details = {"product": product.entries.tolist()}
    return checks, details


def _replay_example3(trials, horizon, seed):
    A = bundled_matrix("two_node_swap")
    checks = _Checks()
    checks.expect("base matrix is not SIA", not is_sia(A))
    x, product = _run_script(A, [2, 1], np.array([0.25, -0.75]))
    checks.expect("two-step product is the rank-one copier",
                  np.array_equal(product.entries, np.array([[1.0, 0.0], [1.0, 0.0]])))
    checks.expect("two-step product is SIA", is_sia(product))
    checks.expect("consensus after two steps", max_discrepancy(x) == 0.0)
    details = {"product": product.entries.tolist(), "delta": max_discrepancy(x)}
    return checks, details


def _vanishing_alpha_scheduler() -> MarkovScheduler:
    def law(k):
        return np.array([[1.0 - 1.0 / k, 0.0, 1.0],
                         [1.0 / k, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])

    return MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=law)


def _replay_markov_vanishing_alpha(trials, horizon, seed):
    A = bundled_matrix("three_node_lazy_cycle")
    scheduler = _vanishing_alpha_scheduler()
    checks = _Checks()
    report = check_conditions(scheduler, A)
    checks.expect("no positive probability floor exists",
                  not report["positive_probability"].passed)
    return checks, _median_stays_above(checks, A, scheduler, report, _given(trials, 200),
                                       _given(horizon, 300), seed)


def _coverage_violation_scheduler() -> SupportSequenceScheduler:
    return SupportSequenceScheduler(4, [
        [({1, 3}, 1.0)],
        [({1}, 0.5), ({3}, 0.5)],
        [({2, 4}, 1.0)],
        [({2}, 0.5), ({4}, 0.5)],
    ])


def _replay_coverage_violation(trials, horizon, seed):
    A = bundled_matrix("four_node_ring")
    checks = _Checks()
    _, product = _run_script(A, [{1, 3}, {2, 4}], np.arange(4, dtype=float))
    expected = np.array([
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float)
    checks.expect("pair product matches the expected matrix",
                  np.array_equal(product.entries, expected))
    checks.expect("pair product is not SIA", not is_sia(product))
    scheduler = _coverage_violation_scheduler()
    report = check_conditions(scheduler, A)
    for name in ("rooted", "positive_probability", "history_independent", "joint_coverage"):
        checks.expect(f"condition {name} passes", report[name].passed)
    qs = report["quasi_singleton"]
    checks.expect("quasi-singleton condition fails", not qs.passed)
    violations = qs.witness.get("violations", [])
    checks.expect("first witness intersection is {1, 3}",
                  bool(violations) and violations[0].get("intersection") == [1, 3])
    return checks, _median_stays_above(checks, A, scheduler, report, _given(trials, 50),
                                       _given(horizon, 201), seed,
                                       product=product.entries.tolist())


def _replay_period3_markov(trials, horizon, seed):
    A = bundled_matrix("three_node_cycle")
    checks = _Checks()
    _, product = _run_script(A, [3, 2, 1], np.arange(3, dtype=float))
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    checks.expect("period product matches the expected matrix",
                  np.array_equal(product.entries, expected))
    checks.expect("period product is not SIA", not is_sia(product))
    scheduler = MarkovScheduler(
        3, states=[{1}, {2}, {3}], initial={3},
        matrix=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
    )
    report = check_conditions(scheduler, A)
    checks.expect("history independence fails for the markov law",
                  not report["history_independent"].passed)
    return checks, _median_stays_above(checks, A, scheduler, report, _given(trials, 50),
                                       _given(horizon, 300), seed,
                                       period_product=product.entries.tolist())


def _replay_strongly_aperiodic(trials, horizon, seed):
    A = bundled_matrix("four_node_rooted")
    scheduler = GlobalClockScheduler([0.25, 0.25, 0.25, 0.25])
    checks = _Checks()
    report = check_conditions(scheduler, A)
    checks.expect("all consensus conditions pass", report.passed)
    apc = check_strongly_aperiodic(scheduler, A)
    checks.expect("strong aperiodicity fails", not apc.passed)
    checks.expect("pair [1, 2] is a witness", [1, 2] in apc.witness.get("pairs", []))
    details = {"check": apc.to_json(), "conditions": report.to_json()}
    return checks, details


_CASES = {
    "example2": _replay_example2,
    "example3": _replay_example3,
    "markov_vanishing_alpha": _replay_markov_vanishing_alpha,
    "coverage_violation": _replay_coverage_violation,
    "period3_markov": _replay_period3_markov,
    "strongly_aperiodic": _replay_strongly_aperiodic,
}

REPLAY_CASES = tuple(_CASES)


def replay(case_id: str, trials: int | None = None, horizon: int | None = None,
           seed: int = DEFAULT_SEED) -> ReplayReport:
    """Run one canned scenario and assert its qualitative conclusion.

    Exact matrix identities are asserted bitwise; statistical conclusions
    use the documented desk-scale thresholds and the given seed.  Trial
    counts and horizons can be overridden by values >= 1, which every case
    checks, also the ones that run no Monte Carlo and ignore them, as it
    checks the seed through ``stream``.
    """
    if case_id not in _CASES:
        raise ValidationError(
            f"unknown replay case {case_id!r}; available: {', '.join(REPLAY_CASES)}"
        )
    if any(v is not None and v < 1 for v in (trials, horizon)):
        raise ValidationError("need trials >= 1 and horizon >= 1")
    stream(seed)
    checks, details = _CASES[case_id](trials, horizon, seed)
    return ReplayReport(
        case=case_id,
        ok=not checks.failures,
        failures=tuple(checks.failures),
        details=details,
    )
