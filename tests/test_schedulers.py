import numpy as np
import pytest

from async_dca import (
    DimensionError,
    ExperimentConfig,
    GlobalClockScheduler,
    IndependentClocksScheduler,
    MarkovScheduler,
    ScriptScheduler,
    StochasticMatrix,
    SupportSequenceScheduler,
    ValidationError,
    bundled_matrix,
    check_conditions,
    check_strongly_aperiodic,
    run_experiment,
    scheduler_from_json,
    schedulers,
    stream,
)
from _oracles import draw_sets_per_tick
from _samplers import random_rooted_stochastic


def example1_scheduler():
    return SupportSequenceScheduler(4, [[
        ({1, 2, 4}, 1 / 3),
        ({1, 3, 4}, 1 / 3),
        ({2, 3}, 1 / 3),
    ]])


def coverage_violation_scheduler():
    return SupportSequenceScheduler(4, [
        [({1, 3}, 1.0)],
        [({1}, 0.5), ({3}, 0.5)],
        [({2, 4}, 1.0)],
        [({2}, 0.5), ({4}, 0.5)],
    ])


def vanishing_law(k):
    return np.array([[1.0 - 1.0 / k, 0.0, 1.0],
                     [1.0 / k, 0.0, 0.0],
                     [0.0, 1.0, 0.0]])


def parity_weights(k, history):
    # reads every set drawn so far: the parity of the count of {1}
    ones = sum(1 for s in history if s == frozenset({1}))
    return [0.7, 0.3] if ones % 2 == 0 else [0.2, 0.8]


ALL_SCHEDULERS = {
    "global_clock": lambda: GlobalClockScheduler([0.25, 0.25, 0.25, 0.25]),
    "independent_clocks": lambda: IndependentClocksScheduler([0.3, 0.5, 0.7, 0.2]),
    "support_sequence": coverage_violation_scheduler,
    "markov": lambda: MarkovScheduler(
        3, states=[{1}, {2}, {3}], initial={3},
        matrix=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
    ),
    "script": lambda: ScriptScheduler(3, [[1, 2], [3], [2]], repeat=True),
}

# the laws that read past ticks or vary with k, besides the five kinds
HISTORY_SCHEDULERS = {
    "support_weight_fn": lambda: SupportSequenceScheduler(
        3, [[({1}, 0.5), ({2, 3}, 0.5)], [({1}, 0.25), ({3}, 0.75)]],
        weight_fn=parity_weights,
    ),
    "markov_matrix_fn": lambda: MarkovScheduler(
        3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=vanishing_law,
    ),
    "markov_periodic": lambda: MarkovScheduler(
        3, states=[{1}, {2, 3}, {3}], initial={2, 3},
        matrices=[[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
                  [[0.25, 0.0, 1.0], [0.75, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    ),
}
DRAWN = {**ALL_SCHEDULERS, **HISTORY_SCHEDULERS}


def _sets(scheduler, steps, rng):
    """The update sets, 1-based, of one trial's ``scheduler.sample_masks(steps, rng)``."""
    return [frozenset(int(j) + 1 for j in np.flatnonzero(row))
            for row in scheduler.sample_masks(steps, rng)[:, 0]]


def _tick_major(ticks, n):
    """(steps, trials, n) masks of the per-tick lists of sets of
    ``draw_sets_per_tick``."""
    masks = np.zeros((len(ticks), len(ticks[0]) if ticks else 0, n), dtype=bool)
    for k, sets in enumerate(ticks):
        for t, members in enumerate(sets):
            masks[k, t, [j - 1 for j in members]] = True
    return masks


@pytest.mark.parametrize("kind", sorted(ALL_SCHEDULERS))
def test_draw_is_deterministic_given_seed(kind):
    make = ALL_SCHEDULERS[kind]
    a = _sets(make(), 200, stream(42, 0))
    b = _sets(make(), 200, stream(42, 0))
    assert a == b
    c = _sets(make(), 200, stream(43, 0))
    if kind != "script":
        assert a != c


@pytest.mark.parametrize("kind", sorted(DRAWN))
def test_sample_masks_matches_sequential_draws(kind):
    # for 1, 3 and 17 trials, whole and in blocks of 1, 2 and 7 ticks with
    # the tick offset and the carry passed on, the masks are the scalar
    # reference's sets, drawn tick by tick and trial by trial, and the
    # stream is left where the reference leaves it
    make = DRAWN[kind]
    steps = 150
    for trials in (1, 3, 17):
        want_rng = stream(7, 3)
        ticks = draw_sets_per_tick(make(), steps, want_rng, trials)
        expected = _tick_major(ticks, make().n)
        after = want_rng.random()
        for block in (steps, 1, 2, 7):
            scheduler, rng, carry = make(), stream(7, 3), {}
            masks = np.concatenate([
                scheduler.sample_masks(min(block, steps - k), rng, trials, k, carry)
                for k in range(0, steps, block)
            ])
            assert masks.shape == (steps, trials, scheduler.n) and masks.dtype == bool
            assert np.array_equal(masks, expected), (trials, block)
            assert rng.random() == after, (trials, block)


def test_uniforms_are_drawn_in_groups_of_ticks(monkeypatch):
    # a buffer of two ticks of 17 x 4 uniforms: 75 groups, the same masks
    make = ALL_SCHEDULERS["independent_clocks"]
    whole = make().sample_masks(150, stream(7, 3), 17)
    monkeypatch.setattr(schedulers, "UNIFORM_BUFFER_BYTES", 2 * 17 * 4 * 8)
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *args, **kwargs):
            calls.append(kwargs["out"].shape)
            return self.rng.random(*args, **kwargs)

    assert np.array_equal(make().sample_masks(150, Counting(stream(7, 3)), 17), whole)
    assert calls == [(2, 17, 4)] * 75


@pytest.mark.parametrize("kind", sorted(DRAWN))
def test_zero_steps_draw_nothing(kind):
    make = DRAWN[kind]
    for start in (0, 4):
        scheduler, rng, carry = make(), stream(8, 0), {}
        if start:
            scheduler.sample_masks(start, rng, 3, 0, carry)
        after = stream(8, 0)
        draw_sets_per_tick(make(), start, after, 3)
        masks = scheduler.sample_masks(0, rng, 3, start, carry)
        assert masks.shape == (0, 3, scheduler.n) and masks.dtype == bool
        assert rng.random() == after.random()


def test_markov_carries_only_its_last_set():
    make = ALL_SCHEDULERS["markov"]
    ticks = draw_sets_per_tick(make(), 200, stream(4, 0), 5)
    scheduler, rng, carry, k = make(), stream(4, 0), {}, 0
    for block in (1, 5, 0, 20, 1, 173):
        scheduler.sample_masks(block, rng, 5, k, carry)
        k += block
        assert list(carry) == ["state"]
        assert [scheduler.states[i] for i in carry["state"]] == ticks[k - 1]


def test_matrix_fn_is_called_once_per_tick_of_a_block():
    # the T trials share each tick's law: K - 1 calls, not T (K - 1)
    calls = []

    def law(k):
        calls.append(k)
        return vanishing_law(k)

    scheduler = MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=law)
    run_experiment(ExperimentConfig(bundled_matrix("three_node_lazy_cycle"), scheduler,
                                    trials=50, horizon=40, track_lambda=False))
    assert calls == list(range(1, 40))


def test_matrix_fn_late_non_stochastic_law_is_rejected():
    def law(k):
        M = vanishing_law(k)
        M[0, 0] += 0.5 if k == 30 else 0.0
        return M

    scheduler = MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=law)
    scheduler.sample_masks(30, stream(1, 0))
    with pytest.raises(ValidationError):
        scheduler.sample_masks(31, stream(1, 0))


@pytest.mark.parametrize("kind", sorted(set(ALL_SCHEDULERS) - {"markov"}))
def test_json_round_trip(kind):
    scheduler = ALL_SCHEDULERS[kind]()
    again = scheduler_from_json(scheduler.to_json())
    assert _sets(again, 40, stream(1, 0)) == _sets(scheduler, 40, stream(1, 0))


def test_markov_json_round_trip():
    scheduler = ALL_SCHEDULERS["markov"]()
    again = scheduler_from_json(scheduler.to_json())
    assert _sets(again, 40, stream(1, 0)) == _sets(scheduler, 40, stream(1, 0))


def test_scheduler_from_json_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        scheduler_from_json({"kind": "poisson", "params": {}})


def test_global_clock_uniform_frequencies():
    scheduler = GlobalClockScheduler([1 / 6] * 6)
    masks = scheduler.sample_masks(100_000, stream(11, 0))
    freqs = masks.mean(axis=0)
    assert np.abs(freqs - 1 / 6).max() < 0.01


def test_independent_clocks_mean_set_size():
    scheduler = IndependentClocksScheduler([0.5] * 6)
    masks = scheduler.sample_masks(100_000, stream(12, 0))[:, 0]
    assert masks.sum(axis=1).mean() == pytest.approx(3.0, abs=0.05)


def test_script_replays_verbatim_and_exhausts():
    scheduler = ScriptScheduler(4, [[1, 3], [2, 4]])
    assert _sets(scheduler, 2, stream(0, 0)) == [frozenset({1, 3}), frozenset({2, 4})]
    with pytest.raises(ValidationError):
        scheduler.sample_masks(3, stream(0, 0))
    repeating = ScriptScheduler(4, [[1, 3], [2, 4]], repeat=True)
    sets = _sets(repeating, 5, stream(0, 0))
    assert sets[4] == frozenset({1, 3})
    # an empty script has nothing to repeat
    empty = ScriptScheduler(4, [], repeat=True)
    assert empty.sample_masks(0, stream(0, 0)).shape == (0, 1, 4)
    with pytest.raises(ValidationError):
        empty.sample_masks(1, stream(0, 0))


def test_support_sequence_draws_stay_in_declared_supports():
    scheduler = coverage_violation_scheduler()
    declared = [
        {frozenset({1, 3})},
        {frozenset({1}), frozenset({3})},
        {frozenset({2, 4})},
        {frozenset({2}), frozenset({4})},
    ]
    sets = _sets(scheduler, 10_000, stream(13, 0))
    for k, members in enumerate(sets):
        assert members in declared[k % 4]


def test_support_sequence_validation():
    with pytest.raises(ValidationError):
        SupportSequenceScheduler(3, [[({1}, 0.5), ({2}, 0.6)]])
    with pytest.raises(ValidationError):
        SupportSequenceScheduler(3, [[({1}, 0.0), ({2}, 1.0)]])
    with pytest.raises(ValidationError):
        SupportSequenceScheduler(3, [[]])
    with pytest.raises(ValidationError):
        SupportSequenceScheduler(3, [[({1}, 1.0)]] * 65)


# NaN fails every comparison, so no sign or sum test of a probability
# vector catches it

def test_global_clock_rejects_nan():
    with pytest.raises(ValidationError):
        GlobalClockScheduler([np.nan, 1.0])
    with pytest.raises(ValidationError):
        scheduler_from_json({"kind": "global_clock", "params": {"p": [float("nan"), 1.0]}})


def test_independent_clocks_rejects_nan():
    with pytest.raises(ValidationError):
        IndependentClocksScheduler([0.5, np.nan])


def test_support_sequence_rejects_nan():
    with pytest.raises(ValidationError):
        SupportSequenceScheduler(2, [[({1}, np.nan), ({2}, 1.0)]])


def test_weight_hook_rejects_nan_weights():
    scheduler = SupportSequenceScheduler(2, [[({1}, 0.5), ({2}, 0.5)]],
                                         weight_fn=lambda k, history: [np.nan, 1.0])
    with pytest.raises(ValidationError):
        scheduler.sample_masks(1, stream(5, 0))


def test_support_sequence_history_hook():
    # history-dependent weights over fixed supports: after drawing {1} the
    # next tick prefers {2}, but both stay possible
    def weights(k, history):
        if history and history[-1] == frozenset({1}):
            return [0.1, 0.9]
        return [0.6, 0.4]

    scheduler = SupportSequenceScheduler(
        2, [[({1}, 0.5), ({2}, 0.5)]], weight_fn=weights
    )
    sets = _sets(scheduler, 2000, stream(5, 0))
    assert set(sets) == {frozenset({1}), frozenset({2})}
    after_one = [b for a, b in zip(sets, sets[1:]) if a == frozenset({1})]
    frac2 = sum(1 for s in after_one if s == frozenset({2})) / len(after_one)
    assert frac2 > 0.8

    def bad_weights(k, history):
        return [1.0, 0.0]

    bad = SupportSequenceScheduler(2, [[({1}, 0.5), ({2}, 0.5)]], weight_fn=bad_weights)
    with pytest.raises(ValidationError):
        bad.sample_masks(1, stream(5, 0))


def test_markov_trajectory_structure_and_errors():
    scheduler = ALL_SCHEDULERS["markov"]()
    sets = _sets(scheduler, 500, stream(21, 0))
    assert sets[0] == frozenset({3})
    allowed = {
        frozenset({1}): {frozenset({1}), frozenset({3})},
        frozenset({2}): {frozenset({1}), frozenset({2})},
        frozenset({3}): {frozenset({2}), frozenset({3})},
    }
    for prev, nxt in zip(sets, sets[1:]):
        assert nxt in allowed[prev]


def test_markov_time_varying_law():
    scheduler = MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=vanishing_law)
    sets = _sets(scheduler, 200, stream(22, 0))
    # at k=1 the law forces 1 -> 2 -> 3 -> 1
    assert sets[:4] == [frozenset({1}), frozenset({2}), frozenset({3}), frozenset({1})]
    assert scheduler.alpha() is None


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

def test_conditions_example_spec_passes():
    report = check_conditions(example1_scheduler(), bundled_matrix("four_node_rooted"))
    assert report.passed
    assert report.q == 1
    assert report.chi == [1, 2, 3]
    assert report["positive_probability"].witness["alpha"] == pytest.approx(1 / 3)


def test_conditions_coverage_violation_fails_only_quasi_singleton():
    report = check_conditions(coverage_violation_scheduler(), bundled_matrix("four_node_ring"))
    assert report["rooted"].passed
    assert report["positive_probability"].passed
    assert report["history_independent"].passed
    assert report["joint_coverage"].passed
    assert report.q == 3
    qs = report["quasi_singleton"]
    assert not qs.passed
    assert qs.witness["chi"] == [1, 2, 3, 4]
    first = qs.witness["violations"][0]
    assert first["kind"] == "intersection"
    assert first["intersection"] == [1, 3]
    assert (first["k"], first["j"]) == (1, 1)


def test_conditions_global_clock_passes_on_random_rooted():
    rng = np.random.default_rng(2024_30)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = StochasticMatrix(random_rooted_stochastic(rng, n))
        report = check_conditions(GlobalClockScheduler(np.full(n, 1.0 / n)), A)
        assert report.passed, report.to_json()
        assert report.q == 1


def test_conditions_independent_clocks_pass_on_random_rooted():
    rng = np.random.default_rng(2024_31)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = StochasticMatrix(random_rooted_stochastic(rng, n))
        p = rng.uniform(0.2, 0.8, n)
        report = check_conditions(IndependentClocksScheduler(p), A)
        assert report.passed, report.to_json()


def test_conditions_always_on_clock_breaks_quasi_singleton():
    # an agent that updates surely appears in every support, so intersections
    # over another root agent's supports can never be a singleton
    A = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    report = check_conditions(IndependentClocksScheduler([1.0, 0.5]), A)
    assert not report["quasi_singleton"].passed


def test_conditions_global_clock_with_silent_node_fails_coverage():
    A = bundled_matrix("three_node_chain")
    report = check_conditions(GlobalClockScheduler([0.0, 0.5, 0.5]), A)
    cov = report["joint_coverage"]
    assert not cov.passed
    assert cov.witness["covered"] == [2, 3]


def test_conditions_markov_reports_history_dependence():
    report = check_conditions(ALL_SCHEDULERS["markov"](), bundled_matrix("three_node_cycle"))
    hist = report["history_independent"]
    assert not hist.passed
    assert "previous state" in hist.note


def test_conditions_markov_matrix_fn_unknown_alpha():
    scheduler = MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=vanishing_law)
    report = check_conditions(scheduler, bundled_matrix("three_node_lazy_cycle"))
    assert not report["positive_probability"].passed
    assert not report["joint_coverage"].passed


def test_conditions_synchronous_script_fails_quasi_singleton():
    A = bundled_matrix("six_node_coupled")
    scheduler = ScriptScheduler(6, [[1, 2, 3, 4, 5, 6]], repeat=True)
    report = check_conditions(scheduler, A)
    assert report["rooted"].passed
    assert not report["quasi_singleton"].passed


def test_conditions_dimension_mismatch():
    with pytest.raises(DimensionError):
        check_conditions(GlobalClockScheduler([0.5, 0.5]), bundled_matrix("three_node_chain"))


def test_conditions_unrooted_graph():
    A = StochasticMatrix(np.eye(3))
    report = check_conditions(GlobalClockScheduler([1 / 3] * 3), A)
    assert not report["rooted"].passed
    assert not report["quasi_singleton"].passed


# ---------------------------------------------------------------------------
# strong aperiodicity
# ---------------------------------------------------------------------------

def test_strongly_aperiodic_exact_counts():
    A = bundled_matrix("four_node_rooted")
    chk = check_strongly_aperiodic(GlobalClockScheduler([0.25] * 4), A, 1, 2)
    assert chk.lhs == 0.0
    assert chk.rhs == 0.25
    assert not chk.holds


def test_strongly_aperiodic_identity_diagonal():
    A = StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
    # lift the diagonal to 1 by updating nobody relevant: use a matrix with
    # unit diagonal instead
    lazy = StochasticMatrix(np.eye(2))
    chk = check_strongly_aperiodic(GlobalClockScheduler([0.5, 0.5]), lazy, 1, 2)
    assert chk.lhs == chk.rhs == 0.0
    assert chk.holds
    chk2 = check_strongly_aperiodic(GlobalClockScheduler([0.5, 0.5]), A, 1, 2)
    assert chk2.lhs == 0.5 * 0.5 * 0.5
    assert chk2.rhs == 0.5 * 0.5
    assert chk2.holds


def test_strongly_aperiodic_never_selected_agent():
    A = bundled_matrix("three_node_chain")
    chk = check_strongly_aperiodic(GlobalClockScheduler([0.0, 0.5, 0.5]), A, 1, 2)
    assert chk.lhs == 0.0 and chk.rhs == 0.0
    assert chk.holds


def test_strongly_aperiodic_errors():
    A = bundled_matrix("three_node_cycle")
    with pytest.raises(ValidationError):
        check_strongly_aperiodic(ALL_SCHEDULERS["markov"](), A, 1, 2)
    with pytest.raises(ValidationError):
        check_strongly_aperiodic(GlobalClockScheduler([1 / 3] * 3), A, 1, 1)
    hooked = SupportSequenceScheduler(
        3, [[({1}, 0.5), ({2}, 0.5)]],
        weight_fn=lambda k, history: [0.5, 0.5],
    )
    with pytest.raises(ValidationError):
        check_strongly_aperiodic(hooked, A, 1, 2)


def test_conditions_large_independent_clocks_hit_enumeration_cap():
    n = 17
    A = StochasticMatrix(np.full((n, n), 1.0 / n))
    report = check_conditions(IndependentClocksScheduler([0.5] * n), A)
    assert not report["joint_coverage"].passed
    assert "enumeration cap" in report["joint_coverage"].note


def test_analysis_of_single_agent():
    from async_dca import analysis_report

    report = analysis_report(StochasticMatrix(np.array([[1.0]])))
    assert report["rooted"] is True
    assert report["sia"] is True
    assert report["lambda"] == 0.0
    assert report["cycle_length"] == 1
