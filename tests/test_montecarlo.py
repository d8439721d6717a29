import dataclasses

import numpy as np
import pytest

from async_dca import (
    REPLAY_CASES,
    ExperimentConfig,
    GlobalClockScheduler,
    ScriptScheduler,
    StochasticMatrix,
    SupportSequenceScheduler,
    ValidationError,
    bundled_matrix,
    bundled_scheduler,
    replay,
    run_experiment,
    wilson_interval,
)
from async_dca.matrices import SCRAMBLING_TOL

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
    assert "lhs" in text


def test_track_lambda_off_skips_product_stats():
    res = run_experiment(small_cfg(track_lambda=False, trials=5, horizon=50))
    assert (res.lambda_tail == 1.0).all()
    assert res.max_product_row_error == 0.0
