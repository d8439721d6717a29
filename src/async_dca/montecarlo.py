"""Monte Carlo experiment harness and canned qualitative replays.

An experiment runs T independent trials of K asynchronous updates and
aggregates, per step count k, the empirical tail probabilities
``P(Delta(x) >= eps)`` and ``P(lambda(product) >= eps)``.  Consensus is
declared at the horizon when the discrepancy drops below ``eps``
(default 1e-6).  Non-convergence claims use coarser thresholds: 1e-3 on
per-trial discrepancies (``NONCONVERGENCE_EPSILON``) and 0.05 on the
median final discrepancy in the replays (``NONCONSENSUS_DELTA``).  All of
these are desk-scale stand-ins for asymptotic statements, chosen so each
canned experiment finishes in seconds; replay reports carry a note saying
which threshold they operationalise.

All trials draw from the one stream ``stream(seed, 0)`` (seed contract 3,
see ``rng``): first the initial states of every trial (when random), then
the schedule, tick by tick and, within a tick, trial by trial.
``trajectory_blocks`` runs the trials as one streamed pipeline.  It draws
the schedule of every trial in blocks of B ticks, B set by
``MASK_BLOCK_BYTES``, with one ``sample_masks`` call per block, advances
the resumable kernel by one block and hands the block to the caller to
reduce before drawing the next.  The stream is consumed tick by tick, so
splitting it into blocks of ticks keeps every draw and no output depends
on B; and a run of one trial draws what trial 0 drew under seed contract
1, so ``simulate`` equals ``mc --trials 1`` and both equal their contract-1
outputs.  Once the kernel stops at an exact fixed point nothing more is
drawn, and hooks such as ``matrix_fn`` and ``weight_fn`` are not called
for the later ticks.  Memory is O(T (n^2 + B n) + K), plus the state a
``weight_fn`` hook keeps: a block holds about ``MASK_BLOCK_BYTES`` (256
KiB) of masks and, 8 / n times that each, its (B + 1, T) float64 series of
discrepancies and, with lambda, coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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
    check_conditions,
    check_strongly_aperiodic,
)

CONSENSUS_EPSILON = 1e-6
NONCONVERGENCE_EPSILON = 1e-3
NONCONSENSUS_DELTA = 0.05
MASK_BLOCK_BYTES = 1 << 18  # update masks drawn per block of the pipeline

_THRESHOLD_NOTE = (
    "desk-scale operationalisation: the asymptotic claim is replaced by "
    f"'median final discrepancy > {NONCONSENSUS_DELTA}' at the given horizon"
)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    matrix: StochasticMatrix
    scheduler: Scheduler
    trials: int
    horizon: int
    epsilon: float = CONSENSUS_EPSILON
    seed: int = DEFAULT_SEED
    init: object = "uniform"
    track_lambda: bool = True

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 1:
            raise ValidationError("need trials >= 1 and horizon >= 1")
        if not 0 < self.epsilon < np.inf:
            raise ValidationError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.scheduler.n != self.matrix.n:
            raise DimensionError(
                f"scheduler has n={self.scheduler.n} but matrix is {self.matrix.n}x{self.matrix.n}"
            )
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

    def to_json(self, include_series: bool = False) -> dict:
        """Summary dict; the per-k tail series are included only on request
        (they are what the CSV output carries)."""
        out = {
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
        }
        if include_series:
            out["delta_tail"] = [float(v) for v in self.delta_tail]
            out["lambda_tail"] = [float(v) for v in self.lambda_tail]
        return out


def trajectory_blocks(cfg: ExperimentConfig):
    """Run the trials of ``cfg`` as a streamed pipeline, one block at a time.

    Yields ``(k, deltas, lams, carry)`` per block, where ``deltas`` and
    ``lams`` are the kernel's (R, T) rows for steps ``k .. k + R - 1`` (the
    first block starts with step 0, the initial values) and ``carry`` is
    its ``_kernels.Carry``.  When the last block ends before the horizon,
    ``carry.fixed`` is True and every later row repeats its last one.
    """
    n, T, K = cfg.matrix.n, cfg.trials, cfg.horizon
    B = max(1, min(K, MASK_BLOCK_BYTES // (T * n)))
    rng = stream(cfg.seed, 0)
    if isinstance(cfg.init, str):
        carry = rng.uniform(-1.0, 1.0, (T, n))
    else:
        carry = np.tile(cfg.init, (T, 1))
    draws = {}  # what the scheduler carries from block to block
    k = 0
    for k0 in range(0, K, B):
        masks = cfg.scheduler.sample_masks(min(B, K - k0), rng, T, k0, draws)
        # the kernel reads the tick-major block as a (T, b, n) view
        deltas, lams, carry = _kernels.trajectory_batch(
            cfg.matrix.entries, masks.transpose(1, 0, 2), carry, cfg.track_lambda)
        del masks
        if carry.fixed or k0 + B >= K:
            carry.buffers = None  # the last block: free the kernel's chunk buffers
        yield k, deltas, lams, carry
        k += len(deltas)
        if carry.fixed:
            return
        # the caller has reduced this block: free its rows before the next
        del deltas, lams


def check_product_rows(carry) -> None:
    """Raise ValidationError when a trial's accumulated product has drifted
    from row-stochastic by more than ``PRODUCT_ROW_SUM_TOL``."""
    err = float(carry.row_err.max())
    if err > PRODUCT_ROW_SUM_TOL:
        raise ValidationError(f"accumulated product has a row sum off by {err!r}, "
                              f"more than {PRODUCT_ROW_SUM_TOL}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """T seeded trials of K updates; all statistics deterministic in the seed.

    Each block is reduced to per-step counts of trials at or above
    epsilon; ``count / T`` equals the mean of the 0/1 indicators bit for
    bit, since a float sum of 0/1 values is exact.
    """
    delta_count = np.zeros(cfg.horizon + 1, dtype=np.int64)
    lambda_count = np.zeros(cfg.horizon + 1, dtype=np.int64)
    for k, deltas, lams, carry in trajectory_blocks(cfg):
        k1 = k + len(deltas)
        (deltas >= cfg.epsilon).sum(axis=1, out=delta_count[k:k1])
        (lams >= cfg.epsilon).sum(axis=1, out=lambda_count[k:k1])
        final = deltas[-1].copy()
        del deltas, lams  # before the next block's rows are allocated
    delta_count[k1:] = delta_count[k1 - 1]
    lambda_count[k1:] = lambda_count[k1 - 1]
    qs = np.quantile(final, [0.0, 0.25, 0.5, 0.75, 1.0])
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
    )


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion.

    At the boundaries the interval endpoints are exactly 0 and 1; they are
    pinned to avoid returning 1 - ulp.
    """
    if n < 1:
        raise ValidationError("need at least one observation")
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == n else min(1.0, centre + half)
    return (lo, hi)


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
    ``sets``, as a one-trial kernel call with the product tracked.

    A script draws no uniforms, so no stream is made.  The row sums of
    every step's product are checked, as ``engine.step`` checks them.
    """
    masks = ScriptScheduler(A.n, sets).sample_masks(len(sets), None)
    x0 = np.asarray(x1, dtype=np.float64)[None]
    _, _, carry = _kernels.trajectory_batch(A.entries, masks.transpose(1, 0, 2), x0, True)
    check_product_rows(carry)
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
    apc = check_strongly_aperiodic(scheduler, A, 1, 2)
    checks.expect("lhs expectation is exactly 0", apc.lhs == 0.0)
    checks.expect("rhs expectation is exactly 1/4", apc.rhs == 0.25)
    checks.expect("strong aperiodicity fails", not apc.holds)
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
    checks, also the ones that run no Monte Carlo and ignore them.
    """
    if case_id not in _CASES:
        raise ValidationError(
            f"unknown replay case {case_id!r}; available: {', '.join(REPLAY_CASES)}"
        )
    if any(v is not None and v < 1 for v in (trials, horizon)):
        raise ValidationError("need trials >= 1 and horizon >= 1")
    checks, details = _CASES[case_id](trials, horizon, seed)
    return ReplayReport(
        case=case_id,
        ok=not checks.failures,
        failures=tuple(checks.failures),
        details=details,
    )
