import dataclasses

import numpy as np
import pytest

from async_dca import (
    IndependentClocksScheduler,
    MarkovScheduler,
    REPLAY_CASES,
    ExperimentConfig,
    GlobalClockScheduler,
    ScriptScheduler,
    StochasticMatrix,
    SupportSequenceScheduler,
    ValidationError,
    bundled_matrix,
    bundled_scheduler,
    ergodic_coefficient,
    replay,
    run_experiment,
)
from async_dca import _kernels, montecarlo
from async_dca.matrices import SCRAMBLING_TOL
from async_dca.rng import stream
from _oracles import wilson_interval

# at this epsilon lambda_tail[m] is the share of trials whose accumulated
# product is not scrambling at step m
SCRAMBLING_EPSILON = 1.0 - SCRAMBLING_TOL


def small_cfg(**overrides):
    base = dict(
        matrix=bundled_matrix("six_node_coupled"),
        scheduler=bundled_scheduler("uniform_clock6"),
        trials=25,
        horizon=400,
        seed=555,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_seed_determinism():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert np.array_equal(a.delta_tail, b.delta_tail)
    assert np.array_equal(a.lambda_tail, b.lambda_tail)
    assert np.array_equal(a.final_deltas, b.final_deltas)
    c = run_experiment(small_cfg(seed=556))
    assert not np.array_equal(a.final_deltas, c.final_deltas)


def test_result_statistics_are_probabilities():
    res = run_experiment(small_cfg())
    for series in (res.delta_tail, res.lambda_tail):
        assert series.shape == (res.horizon + 1,)
        assert ((series >= 0) & (series <= 1)).all()
    assert 0.0 <= res.consensus_fraction <= 1.0
    assert res.delta_quantiles["min"] <= res.delta_quantiles["median"]
    assert res.delta_quantiles["median"] <= res.delta_quantiles["max"]


def test_lambda_tail_is_non_increasing():
    res = run_experiment(small_cfg(epsilon=0.5))
    assert (np.diff(res.lambda_tail) <= 1e-12).all()


def test_inline_coherence_stats_are_small():
    res = run_experiment(small_cfg())
    assert res.max_contraction_violation <= 1e-9
    assert res.max_lambda_increase <= 1e-10
    assert res.max_product_row_error <= 1e-10


def test_fixed_init_vector():
    x0 = np.array([1.0, -1.0, 0.5, 0.25, 0.0, -0.5])
    res = run_experiment(small_cfg(init=x0, trials=5, horizon=50))
    assert res.delta_tail[0] in (0.0, 1.0)  # all trials share the same start
    with pytest.raises(Exception):
        ExperimentConfig(
            matrix=bundled_matrix("six_node_coupled"),
            scheduler=bundled_scheduler("uniform_clock6"),
            trials=2, horizon=10, init=np.zeros(3),
        )


def test_config_validation():
    with pytest.raises(ValidationError):
        small_cfg(trials=0)
    with pytest.raises(ValidationError):
        small_cfg(epsilon=0.0)
    with pytest.raises(Exception):
        ExperimentConfig(
            matrix=bundled_matrix("three_node_chain"),
            scheduler=bundled_scheduler("uniform_clock6"),
            trials=2, horizon=10,
        )


def test_config_rejects_non_finite_epsilon():
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="epsilon"):
            small_cfg(epsilon=eps)


def test_config_rejects_non_finite_init():
    with pytest.raises(ValidationError, match="non-finite"):
        small_cfg(init=[0.0, np.nan, 0.0, 0.0, 0.0, 0.0])


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert lo > 0.95 and hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)


def test_scrambling_hit_rate_trivial_cases():
    # a single synchronous step of a scrambling matrix is already scrambling
    A = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    cfg = ExperimentConfig(
        matrix=A, scheduler=ScriptScheduler(2, [[1, 2]], repeat=True),
        trials=10, horizon=5, seed=1, epsilon=SCRAMBLING_EPSILON,
    )
    assert run_experiment(cfg).lambda_tail[1] == 0.0

    # agent 1 is an influence sink; if it never updates, its product row
    # stays elementary and nobody else ever weighs column 1, so no product
    # is ever scrambling
    sink = StochasticMatrix(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ]))
    cfg = ExperimentConfig(
        matrix=sink, scheduler=GlobalClockScheduler([0.0, 0.5, 0.5]),
        trials=40, horizon=60, seed=2, epsilon=SCRAMBLING_EPSILON,
    )
    assert (run_experiment(cfg).lambda_tail == 1.0).all()


def test_scrambling_hit_rate_positive_on_six_node():
    cfg = ExperimentConfig(
        matrix=bundled_matrix("six_node_coupled"),
        scheduler=bundled_scheduler("uniform_clock6"),
        trials=100, horizon=90, seed=3, epsilon=SCRAMBLING_EPSILON,
    )
    hits = cfg.trials - round(run_experiment(cfg).lambda_tail[90] * cfg.trials)
    assert hits > 0
    lo, hi = wilson_interval(hits, cfg.trials)
    assert lo <= hits / cfg.trials <= hi


def test_lambda_tail_decay_in_the_positive_regime():
    # rooted 4-node matrix driven by the three-support specification: the
    # probability that the accumulated product keeps coefficient >= 0.5
    # collapses well before k = 400
    scheduler = SupportSequenceScheduler(4, [[
        ({1, 2, 4}, 1 / 3), ({1, 3, 4}, 1 / 3), ({2, 3}, 1 / 3),
    ]])
    cfg = ExperimentConfig(
        matrix=bundled_matrix("four_node_rooted"),
        scheduler=scheduler,
        trials=500, horizon=400, epsilon=0.5, seed=4,
    )
    res = run_experiment(cfg)
    assert (np.diff(res.lambda_tail) <= 1e-12).all()
    assert res.lambda_tail[400] < 0.05


@pytest.mark.parametrize("case", [
    "example2", "example3", "markov_vanishing_alpha",
    "coverage_violation", "period3_markov", "strongly_aperiodic",
])
def test_replay_cases_pass(case):
    report = replay(case, trials=60, seed=11)
    assert report.ok, report.failures


def test_replay_unknown_case():
    with pytest.raises(ValidationError):
        replay("example9")


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_replay_rejects_counts_below_one(case):
    # also the cases that run no Monte Carlo and ignore both values
    for kwargs in ({"trials": 0}, {"horizon": -5}):
        with pytest.raises(ValidationError, match="trials >= 1"):
            replay(case, **kwargs)


def test_replay_reports_are_json_ready():
    import json

    payload = replay("strongly_aperiodic").to_json()
    text = json.dumps(payload)
    assert '"pairs"' in text


def test_track_lambda_off_skips_product_stats():
    res = run_experiment(small_cfg(track_lambda=False, trials=5, horizon=50))
    assert (res.lambda_tail == 1.0).all()
    assert res.max_product_row_error == 0.0
    assert res.product_steps is None and "product_steps" not in res.to_json()


def test_config_rejects_an_unknown_init():
    with pytest.raises(ValidationError, match="'uniform' or a vector"):
        small_cfg(init="gaussian")


@pytest.mark.parametrize("scheduler", [
    bundled_scheduler("uniform_clock6"),
    IndependentClocksScheduler([0.5] * 6),
    MarkovScheduler(6, states=[{1}, {2}], initial={1}, matrix=[[0.5, 0.5], [0.5, 0.5]]),
    ScriptScheduler(6, []),
], ids=["global_clock", "independent_clocks", "markov", "empty_script"])
@pytest.mark.parametrize("track_lambda", [True, False])
def test_horizon_zero_returns_the_initial_row(scheduler, track_lambda):
    # the initial states are the first draws of stream(seed, 0)
    res = run_experiment(small_cfg(scheduler=scheduler, horizon=0, trials=7,
                                   track_lambda=track_lambda))
    x0 = stream(555, 0).uniform(-1.0, 1.0, (7, 6))
    d0 = x0.max(axis=1) - x0.min(axis=1)
    assert np.array_equal(res.final_deltas, d0)
    assert res.delta_tail.tolist() == [float((d0 >= res.epsilon).mean())]
    assert res.lambda_tail.tolist() == [1.0]
    assert res.max_product_row_error == res.max_contraction_violation == 0.0
    longer = run_experiment(small_cfg(horizon=20, trials=7, track_lambda=track_lambda))
    assert res.delta_tail[0] == longer.delta_tail[0]
    assert res.lambda_tail[0] == longer.lambda_tail[0]


def test_run_experiment_rejects_product_row_error(monkeypatch):
    real = _kernels.trajectory_batch

    def drifting(*args):
        deltas, lams, carry = real(*args)
        carry.row_err[:] = 1e-9
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", drifting)
    with pytest.raises(ValidationError, match="row sum"):
        run_experiment(small_cfg(trials=3, horizon=30))


def test_one_agent_lambda_is_zero_at_every_step(monkeypatch):
    # every step of a 1x1 product below 1 reaches the pair masses, whose
    # one-agent answer is a shared mass of 1: lambda 0, as at step 0 and as
    # ergodic_coefficient says
    A = StochasticMatrix([[1 - 5e-13]])
    real, agents = _kernels._shared_mass, []

    def shared_mass(Q, *args):
        agents.append(Q.shape[1])
        return real(Q, *args)

    monkeypatch.setattr(_kernels, "_shared_mass", shared_mass)
    res = run_experiment(ExperimentConfig(A, GlobalClockScheduler([1.0]), trials=3,
                                          horizon=5000, seed=3))
    assert agents and set(agents) == {1}
    assert res.lambda_tail.tolist() == [0.0] * 5001
    assert ergodic_coefficient(A.entries) == 0.0


def test_replay_reports_its_own_failed_check(monkeypatch):
    monkeypatch.setattr(montecarlo, "NONCONSENSUS_DELTA", 10.0)
    report = replay("period3_markov")
    assert not report.ok
    assert report.failures == ("median final discrepancy stays above 10.0",)


# --- dropping the product once every lambda tail is decided ---------------

SWITCH_LAWS = {
    **{name: lambda name=name: (bundled_matrix("six_node_coupled"), bundled_scheduler(name))
       for name in ("uniform_clock6", "half_clocks6", "synchronous6")},
    # the mc-markov and mc-period3 laws of tests/test_golden_outputs.py
    "markov": lambda: (bundled_matrix("six_node_coupled"), MarkovScheduler(
        6, states=[{1, 2}, {3, 4}, {5, 6}], initial={3, 4},
        matrix=[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])),
    "period3": lambda: (bundled_matrix("six_node_coupled"), SupportSequenceScheduler(6, [
        [({1, 2, 3}, 0.5), ({4, 5, 6}, 0.5)],
        [({1, 4}, 0.25), ({2, 5}, 0.25), ({3, 6}, 0.5)],
        [({1, 2, 3, 4, 5, 6}, 1.0)]])),
    "one_agent": lambda: (StochasticMatrix([[1 - 5e-13]]), GlobalClockScheduler([1.0])),
    # the coverage_violation replay's law: its products never scramble
    "no_consensus": lambda: (bundled_matrix("four_node_ring"),
                             montecarlo._coverage_violation_scheduler()),
}
SWITCH_BLOCK = 40  # ticks per block, so that every trial count has many block ends


def _switch_cfg(monkeypatch, law, seed, T, horizon=600):
    A, scheduler = SWITCH_LAWS[law]()
    monkeypatch.setattr(montecarlo, "MASK_BLOCK_BYTES", SWITCH_BLOCK * T * A.n)
    return ExperimentConfig(A, scheduler, trials=T, horizon=horizon, seed=seed)


def _fully_tracked(cfg):
    """Tails, final discrepancies and carry of ``cfg`` with the product
    tracked at every step, counted from ``trajectory_blocks``; also the
    lambda rows and the largest row-sum error at each block's end."""
    K, eps = cfg.horizon, cfg.epsilon
    counts = np.zeros((2, K + 1), dtype=np.int64)
    lams_all, ends = [], []
    for k, deltas, lams, carry in montecarlo.trajectory_blocks(cfg):
        k1 = k + len(deltas)
        (deltas >= eps).sum(axis=1, out=counts[0, k:k1])
        (lams >= eps).sum(axis=1, out=counts[1, k:k1])
        lams_all.append(np.array(lams))
        ends.append((k1 - 1, float(carry.row_err.max())))
        final = deltas[-1].copy()
    counts[:, k1:] = counts[:, k1 - 1:k1]
    lams_all = np.concatenate(lams_all)
    lams_all = np.concatenate([lams_all, np.repeat(lams_all[-1:], K + 1 - len(lams_all), 0)])
    return counts / cfg.trials, final, carry, lams_all, ends


@pytest.mark.parametrize("T", [1, 2, 37, 200])
@pytest.mark.parametrize("seed", [1729, 5])
@pytest.mark.parametrize("law", sorted(SWITCH_LAWS))
def test_dropping_the_product_keeps_every_tail_bit_for_bit(monkeypatch, law, seed, T):
    cfg = _switch_cfg(monkeypatch, law, seed, T)
    (delta_tail, lambda_tail), final, carry, lams, ends = _fully_tracked(cfg)
    res = run_experiment(cfg)
    assert np.array_equal(res.delta_tail, delta_tail)
    assert np.array_equal(res.lambda_tail, lambda_tail)
    assert np.array_equal(res.final_deltas, final)
    assert res.to_json()["product_steps"] == res.product_steps
    # the synchronous schedule of six_node_coupled never scrambles either
    undecided = law in ("no_consensus", "synchronous6")
    assert (lambda_tail[-1] > 0) == undecided
    if undecided:
        # no switch: the maxima are those of every step
        assert res.product_steps == cfg.horizon
        assert (res.max_contraction_violation, res.max_lambda_increase,
                res.max_product_row_error) == tuple(
            float(a.max()) for a in (carry.viol_contract, carry.viol_mono, carry.row_err))
    else:
        assert res.product_steps < cfg.horizon
        assert lambda_tail[res.product_steps:].max() == 0.0


@pytest.mark.parametrize("T", [1, 2, 37, 200])
@pytest.mark.parametrize("seed", [1729, 5])
@pytest.mark.parametrize("law", sorted(SWITCH_LAWS))
def test_the_switch_margin_bounds_every_later_lambda(monkeypatch, law, seed, T):
    cfg = _switch_cfg(monkeypatch, law, seed, T)
    rho, K, eps = montecarlo._lambda_rise(cfg.matrix), cfg.horizon, cfg.epsilon
    _, _, carry, lams, ends = _fully_tracked(cfg)
    # every step's rise of the computed lambda is within rho
    assert float(carry.viol_mono.max()) <= rho
    # at no block end where the switch would fire does a later lambda reach eps
    for last, row_err in ends:
        if 0 < last < K and (lams[last] < eps - 2 * row_err - (K - last + 1) * rho).all():
            assert (lams[last:] < eps).all()
    assert run_experiment(cfg).product_steps in [K] + [last for last, _ in ends]


def test_canonical_run_drops_the_product_and_stops_at_the_states_fixed_point(monkeypatch):
    real, calls = _kernels.trajectory_batch, []

    def kernel(*args, **kwargs):
        deltas, lams, carry = real(*args, **kwargs)
        # the benchmark tracer reads track_lambda as the 4th positional argument
        calls.append((len(args), kwargs, args[3], len(deltas), carry.fixed))
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", kernel)
    res = run_experiment(ExperimentConfig(
        bundled_matrix("six_node_coupled"), bundled_scheduler("uniform_clock6"),
        trials=200, horizon=5000, seed=1729))
    assert res.product_steps == 436
    assert res.lambda_tail[436:].max() == 0.0
    first = 1
    for nargs, kwargs, track, ran, fixed in calls:
        assert (nargs, kwargs) == (4, {})
        assert track is (first <= 436)
        first += ran
    assert calls[-1][-1] and first - 1 < 1000


def test_drop_product_narrows_the_carry_to_its_states():
    rng = np.random.default_rng(4)
    for T in (1, 3):
        carry = _kernels.Carry(rng.random((T, 4)), True)
        carry.lam[:], carry.row_err[:] = 0.25, 1e-16
        x, kept = carry.x.copy(), (carry.lam.copy(), carry.d0.copy(), carry.lone)
        carry.buffers = []
        carry.drop_product()
        assert carry.Q.shape == (4, 1 + (T == 1), T) and not carry.Q[:, 1:].any()
        assert np.array_equal(carry.x, x) and np.shares_memory(carry.x, carry.Q)
        assert carry.buffers is None and carry.track_lambda is False
        assert np.array_equal(carry.lam, kept[0]) and np.array_equal(carry.d0, kept[1])
        assert carry.lone == kept[2] and (carry.row_err == 1e-16).all()


def test_a_nan_lambda_never_drops_the_product(monkeypatch):
    real = _kernels.trajectory_batch

    def nan_lambda(*args):
        deltas, lams, carry = real(*args)
        carry.lam[0] = np.nan
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", nan_lambda)
    cfg = _switch_cfg(monkeypatch, "uniform_clock6", 5, 37)
    assert run_experiment(cfg).product_steps == cfg.horizon
