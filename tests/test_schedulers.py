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
    stream,
)
from async_dca.matrices import ROW_SUM_TOL
from async_dca.schedulers import _cumulative, _pick
from _oracles import (
    _clock_sets,
    draw_sets_per_tick,
    reference_alpha,
    reference_check_conditions,
    reference_meet,
    reference_one_step_distribution,
    reference_strongly_aperiodic,
    reference_support_sets,
    searchsorted_pick,
    wilson_interval,
)
from _samplers import random_rooted_stochastic, random_stochastic


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


def parity_state(k, state, picked):
    # parity_weights as a one-bit state: {1} is candidate 0 at both ticks
    odd = (picked == 0) if state is None else state ^ (picked == 0)
    return np.where(odd[:, None], [0.2, 0.8], [0.7, 0.3]), odd


PARITY_TICKS = [[({1}, 0.5), ({2, 3}, 0.5)], [({1}, 0.25), ({3}, 0.75)]]


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
    "support_weight_fn": lambda: SupportSequenceScheduler(3, PARITY_TICKS,
                                                          weight_fn=parity_state),
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
# what the scalar reference draws in place of a kind: the history-form hook
REFERENCE = {
    "support_weight_fn": lambda: SupportSequenceScheduler(3, PARITY_TICKS,
                                                          weight_fn=parity_weights),
}


def _reference(kind):
    return REFERENCE.get(kind, DRAWN[kind])()


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
        ticks = draw_sets_per_tick(_reference(kind), steps, want_rng, trials)
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
    monkeypatch.setattr("async_dca.rng.UNIFORM_BUFFER_BYTES", 2 * 17 * 4 * 8)
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *args, **kwargs):
            calls.append(kwargs["out"].shape)
            return self.rng.random(*args, **kwargs)

    assert np.array_equal(make().sample_masks(150, Counting(stream(7, 3)), 17), whole)
    assert calls == [(2, 17, 4)] * 75


@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_clock_coins_compare_each_agent_with_its_own_probability(trials):
    # distinct probabilities, a sure agent and an idle one: a threshold row
    # repeated agent by agent instead of tiled trial by trial would pair
    # uniforms with the wrong agents' p.  Whole and in blocks of 7 ticks,
    # the masks are the scalar reference's sets
    scheduler = IndependentClocksScheduler([0.1, 1.0, 0.35, 0.0, 0.8])
    steps = 30
    expected = _tick_major(draw_sets_per_tick(scheduler, steps, stream(12, 4), trials), 5)
    assert expected[..., 1].all() and not expected[..., 3].any()
    for block in (steps, 7):
        rng = stream(12, 4)
        masks = np.concatenate([scheduler.sample_masks(min(block, steps - k), rng, trials, k)
                                for k in range(0, steps, block)])
        assert np.array_equal(masks, expected), block


def _cumulative_laws(rng, K, rows):
    """``_cumulative`` of ``rows`` random laws over K outcomes."""
    w = rng.uniform(0.01, 1.0, (rows, K))
    return _cumulative(w / w.sum(axis=1, keepdims=True))


def _hit_thresholds(rng, u, cum):
    """Set about a fifth of the uniforms ``u`` to a finite entry of their
    row of ``cum`` (broadcast against u), so a pick lands on a threshold."""
    if cum.shape[-1] > 1:
        hit = rng.random(u.shape) < 0.2
        j = rng.integers(0, cum.shape[-1] - 1, u.shape)
        rows = np.broadcast_to(cum, (*u.shape, cum.shape[-1]))
        u[hit] = np.take_along_axis(rows, j[..., None], axis=-1)[..., 0][hit]
    return u


@pytest.mark.parametrize("K", [1, 2, 6, 255, 256, 257, 300])
def test_pick_counts_what_searchsorted_picks(K):
    # the count of thresholds <= u is the binary search's insertion point,
    # bit for bit, in uint8 up to 256 outcomes and uint16 beyond
    rng = np.random.default_rng(2300 + K)
    dtype = np.uint8 if K <= 256 else np.uint16
    for P in (1, 3):
        # the fixed-law groups of a period-P law: (g, T) uniforms of one phase
        laws = _cumulative_laws(rng, K, P)
        u = rng.random((12, 50))
        for r in range(P):
            group = _hit_thresholds(rng, u[r::P].copy(), laws[r])
            got = _pick(laws[r], group)
            assert got.dtype == dtype and got.shape == group.shape
            assert np.array_equal(got, searchsorted_pick(laws[r], group))
    # per-trial rows, as the weight_fn and Markov paths pick
    cum = _cumulative_laws(rng, K, 50)
    u = _hit_thresholds(rng, rng.random(50), cum)
    got = _pick(cum, u)
    assert got.dtype == dtype
    assert np.array_equal(got, searchsorted_pick(cum, u))
    if K > 1:
        assert np.isin(u, cum).any()


@pytest.mark.parametrize("kind", sorted(DRAWN))
def test_zero_steps_draw_nothing(kind):
    make = DRAWN[kind]
    for start in (0, 4):
        scheduler, rng, carry = make(), stream(8, 0), {}
        if start:
            scheduler.sample_masks(start, rng, 3, 0, carry)
        after = stream(8, 0)
        draw_sets_per_tick(_reference(kind), start, after, 3)
        masks = scheduler.sample_masks(0, rng, 3, start, carry)
        assert masks.shape == (0, 3, scheduler.n) and masks.dtype == bool
        assert rng.random() == after.random()


@pytest.mark.parametrize("trials", [1, 7, 50])
@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_bounded_state_hook_draws_the_history_hook_sets(seed, trials):
    # the one-bit parity state draws, from the same stream, the sets the
    # history-form parity_weights draws trial by trial in the reference
    want_rng = stream(seed, 0)
    ticks = draw_sets_per_tick(_reference("support_weight_fn"), 300, want_rng, trials)
    rng = stream(seed, 0)
    masks = DRAWN["support_weight_fn"]().sample_masks(300, rng, trials)
    assert np.array_equal(masks, _tick_major(ticks, 3))
    assert rng.random() == want_rng.random()


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


def test_periodic_markov_json_round_trip():
    # a law of two matrices serialises as "matrices", not "matrix"
    scheduler = HISTORY_SCHEDULERS["markov_periodic"]()
    obj = scheduler.to_json()
    assert "matrix" not in obj["params"] and len(obj["params"]["matrices"]) == 2
    again = scheduler_from_json(obj)
    assert again.period == 2 and again.to_json() == obj
    assert _sets(again, 40, stream(1, 0)) == _sets(scheduler, 40, stream(1, 0))


def test_scheduler_from_json_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        scheduler_from_json({"kind": "poisson", "params": {}})


def test_global_clock_uniform_frequencies():
    scheduler = GlobalClockScheduler([1 / 6] * 6)
    masks = scheduler.sample_masks(100_000, stream(11, 0))
    freqs = masks.mean(axis=0)
    assert np.abs(freqs - 1 / 6).max() < 0.01


P_WITH_ZERO = [0.1, 0.0, 0.45, 0.2, 0.25]


@pytest.mark.parametrize("trials", [1, 3, 200])
def test_global_clock_is_its_singleton_support_sequence(trials):
    # block for block, with the tick offset and the carry passed on, the
    # global clock draws the masks of the period-1 support sequence of the
    # singletons {j} with p[j] > 0; 218 ticks is a block of mc at 200 trials
    p = np.array(P_WITH_ZERO)
    singletons = [[({j + 1}, p[j]) for j in np.flatnonzero(p > 0)]]
    steps = 436
    for block in (1, 7, 218):
        masks = []
        for scheduler in (GlobalClockScheduler(p), SupportSequenceScheduler(p.size, singletons)):
            rng, carry = stream(9, 1), {}
            masks.append(np.concatenate([
                scheduler.sample_masks(min(block, steps - k), rng, trials, k, carry)
                for k in range(0, steps, block)
            ]))
        assert np.array_equal(masks[0], masks[1]), block
        assert (masks[0].sum(axis=2) == 1).all() and not masks[0][..., 1].any()


def test_global_clock_with_a_zero_entry_matches_the_scalar_draws():
    scheduler = GlobalClockScheduler(P_WITH_ZERO)
    rng = stream(4, 2)
    expected = _tick_major(draw_sets_per_tick(scheduler, 60, rng, 3), 5)
    assert np.array_equal(scheduler.sample_masks(60, stream(4, 2), 3), expected)


def test_global_clock_json_keeps_the_zero_entries():
    scheduler = GlobalClockScheduler(P_WITH_ZERO)
    obj = scheduler.to_json()
    assert obj == {"kind": "global_clock", "params": {"p": P_WITH_ZERO}}
    again = scheduler_from_json(obj)
    assert isinstance(again, GlobalClockScheduler)
    assert again.p.tolist() == P_WITH_ZERO and again.to_json() == obj


def test_global_clock_supports_are_its_positive_entries():
    scheduler = GlobalClockScheduler(P_WITH_ZERO)
    assert scheduler.period == 1
    meet, floor = scheduler.supports(7)
    # each agent with p > 0 is its own one set; agent 2 is in none
    assert np.array_equal(meet, np.diag(np.array(P_WITH_ZERO) > 0))
    assert floor == 0.1
    _, ticks, _ = reference_support_sets(scheduler)
    assert np.array_equal(meet, reference_meet(ticks[0], 5))
    assert floor == reference_alpha(scheduler)


def test_independent_clocks_supports_match_the_enumerated_sets():
    # random coins with silent and sure agents: the closed-form meet and
    # floor are those of the 2^free enumerated sets, to the bit
    rng = np.random.default_rng(2024_33)
    for trial in range(200):
        n = int(rng.integers(1, 13))
        p = np.choose(rng.integers(0, 4, n), [np.zeros(n), np.ones(n), rng.random(n),
                                               rng.random(n)])
        scheduler = IndependentClocksScheduler(p)
        sets = _clock_sets(scheduler)
        meet, floor = scheduler.supports(1)
        assert np.array_equal(meet, reference_meet([s for s, _ in sets], n)), trial
        assert floor == min(prob for _, prob in sets) == reference_alpha(scheduler), trial


@pytest.mark.parametrize("kind", sorted(k for k in DRAWN if DRAWN[k]().period is not None))
def test_supports_match_the_reference_sets(kind):
    # over two periods: each tick's meet is that of its reference sets, and
    # the least floor is the reference alpha (None under the hook)
    scheduler = DRAWN[kind]()
    period, ticks, _ = reference_support_sets(scheduler)
    floors = []
    for k in range(1, 2 * period + 1):
        meet, floor = scheduler.supports(k)
        assert np.array_equal(meet, reference_meet(ticks[(k - 1) % period], scheduler.n)), k
        floors.append(floor)
    assert (None if None in floors else min(floors)) == reference_alpha(scheduler)


@pytest.mark.parametrize("kind", sorted(k for k in DRAWN if DRAWN[k]().history_independent))
def test_law_rows_are_the_drawn_frequencies(kind):
    # every drawn set is one of its tick's reference sets, and each set is
    # drawn with a frequency whose Wilson interval holds its probability
    scheduler = DRAWN[kind]()
    hooked = getattr(scheduler, "weight_fn", None) is not None  # its draws follow history
    period, ticks, _ = reference_support_sets(scheduler)
    masks = scheduler.sample_masks(12_000, stream(11, 0))[:, 0]
    for t in range(period):
        law = ([(s, None) for s in ticks[t]] if hooked
               else reference_one_step_distribution(scheduler, t + 1))
        rows = np.array([[j + 1 in s for j in range(scheduler.n)] for s, _ in law])
        assert len(np.unique(rows, axis=0)) == len(rows)
        drawn = masks[t::period]
        hits = (drawn[:, None, :] == rows[None]).all(axis=2)
        assert hits.any(axis=1).all()
        if hooked:
            continue
        probs = [prob for _, prob in law]
        assert abs(sum(probs) - 1.0) <= ROW_SUM_TOL
        for count, prob in zip(hits.sum(axis=0), probs):
            lo, hi = wilson_interval(int(count), len(drawn), z=4.0)
            assert lo <= prob <= hi, (t, count, prob)


@pytest.mark.parametrize("kind", sorted(k for k in DRAWN if k.startswith("markov")))
def test_markov_supports_are_its_reachable_states(kind):
    # the states some state moves to from tick k, and the least positive
    # probability of the move, by loops over the transition matrix
    scheduler = DRAWN[kind]()
    for k in range(1, 6):
        P = scheduler.transition_matrix(k).entries
        reachable = [scheduler.states[i] for i in range(len(P)) if any(P[i] > 0)]
        meet, floor = scheduler.supports(k)
        assert np.array_equal(meet, reference_meet(reachable, scheduler.n)), k
        assert floor == min(v for row in P for v in row if v > 0), k


@pytest.mark.parametrize("kind, expected", [
    ("global_clock", True), ("independent_clocks", True), ("support_sequence", True),
    ("support_weight_fn", True), ("script", True), ("markov", False),
    ("markov_matrix_fn", False), ("markov_periodic", False),
])
def test_history_independence_by_kind(kind, expected):
    scheduler = DRAWN[kind]()
    assert scheduler.history_independent is expected
    # a plain class attribute, not a property
    assert type(scheduler).history_independent is expected


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
    scheduler = SupportSequenceScheduler(
        2, [[({1}, 0.5), ({2}, 0.5)]],
        weight_fn=lambda k, state, picked: (np.tile([np.nan, 1.0], (len(picked), 1)), state))
    with pytest.raises(ValidationError):
        scheduler.sample_masks(1, stream(5, 0))


def test_support_sequence_history_hook():
    # history-dependent weights over fixed supports: after drawing {1} the
    # next tick prefers {2}, but both stay possible
    def weights(k, state, picked):
        return np.where((picked == 0)[:, None], [0.1, 0.9], [0.6, 0.4]), state

    scheduler = SupportSequenceScheduler(
        2, [[({1}, 0.5), ({2}, 0.5)]], weight_fn=weights
    )
    sets = _sets(scheduler, 2000, stream(5, 0))
    assert set(sets) == {frozenset({1}), frozenset({2})}
    after_one = [b for a, b in zip(sets, sets[1:]) if a == frozenset({1})]
    frac2 = sum(1 for s in after_one if s == frozenset({2})) / len(after_one)
    assert frac2 > 0.8

    def bad_weights(k, state, picked):
        return np.tile([1.0, 0.0], (len(picked), 1)), state

    def one_row(k, state, picked):
        return [0.5, 0.5], state

    for hook in (bad_weights, one_row):
        bad = SupportSequenceScheduler(2, [[({1}, 0.5), ({2}, 0.5)]], weight_fn=hook)
        with pytest.raises(ValidationError):
            bad.sample_masks(1, stream(5, 0), 3)


def test_weight_hook_rows_must_sum_to_one():
    # positive, finite, well-shaped weights whose rows sum to 1.2 from tick
    # 3 on: the first two ticks draw, and the third raises
    def heavy_from_tick_3(k, state, picked):
        return np.tile([0.6, 0.6] if k >= 3 else [0.5, 0.5], (len(picked), 1)), state

    scheduler = SupportSequenceScheduler(2, [[({1}, 0.5), ({2}, 0.5)]],
                                         weight_fn=heavy_from_tick_3)
    assert scheduler.sample_masks(2, stream(5, 0), 3).shape == (2, 3, 2)
    with pytest.raises(ValidationError, match="each row summing to 1"):
        scheduler.sample_masks(3, stream(5, 0), 3)


@pytest.mark.parametrize("miss", [-1e-12, 1e-12])
def test_weight_hook_rows_within_the_tolerance_draw(miss):
    # rows that miss 1 by 1e-12, inside the hook's 1e-9, draw the masks of
    # exact rows: the picks read only the first cumulative entry, 0.5
    def hook_of(last):
        return lambda k, state, picked: (np.tile([0.5, last], (len(picked), 1)), state)

    ticks = [[({1}, 0.5), ({2}, 0.5)]]
    want = SupportSequenceScheduler(2, ticks, weight_fn=hook_of(0.5)).sample_masks(
        50, stream(5, 0), 3)
    got = SupportSequenceScheduler(2, ticks, weight_fn=hook_of(0.5 + miss)).sample_masks(
        50, stream(5, 0), 3)
    assert np.array_equal(got, want)


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
    assert scheduler.period is None


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

def test_conditions_example_spec_passes():
    report = check_conditions(example1_scheduler(), bundled_matrix("four_node_rooted"))
    assert report.passed
    assert report["joint_coverage"].witness["q"] == 1
    assert report["quasi_singleton"].witness["chi"] == [1, 2, 3]
    assert report["positive_probability"].witness["alpha"] == pytest.approx(1 / 3)


def test_conditions_coverage_violation_fails_only_quasi_singleton():
    report = check_conditions(coverage_violation_scheduler(), bundled_matrix("four_node_ring"))
    assert report["rooted"].passed
    assert report["positive_probability"].passed
    assert report["history_independent"].passed
    assert report["joint_coverage"].passed
    assert report["joint_coverage"].witness["q"] == 3
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
        assert report["joint_coverage"].witness["q"] == 1


def test_conditions_search_windows_up_to_the_period():
    # agent 6 is drawable only at tick 20, so the window that starts at
    # tick 1 first covers every agent at q = 20
    ticks = [[({(k - 1) % 5 + 1}, 1.0)] for k in range(1, 20)] + [[({6}, 1.0)]]
    report = check_conditions(SupportSequenceScheduler(6, ticks),
                              bundled_matrix("six_node_coupled"))
    cov = report["joint_coverage"]
    assert cov.passed and cov.witness == {"q": 20, "period": 20}


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


def test_conditions_weight_hook_has_no_probability_floor():
    # the draws follow the hook's weights, not the declared 0.5 each
    hooked = SupportSequenceScheduler(4, [[({1, 2}, 0.5), ({3, 4}, 0.5)]],
                                      weight_fn=lambda k, state, picked: (
                                          np.tile([1e-300, 1 - 1e-300], (len(picked), 1)), state))
    assert hooked.supports(1)[1] is None
    check = check_conditions(hooked, bundled_matrix("four_node_ring"))["positive_probability"]
    assert not check.passed
    assert "no uniform lower bound" in check.note


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


def test_conditions_empty_script_has_no_support():
    empty = ScriptScheduler(3, [], repeat=True)
    report = check_conditions(empty, bundled_matrix("three_node_cycle"))
    assert report["positive_probability"].witness == {"alpha": 1.0}
    cov = report["joint_coverage"]
    assert not cov.passed and cov.witness == {"covered": []}
    qs = report["quasi_singleton"]
    assert not qs.passed
    assert qs.witness["violations"] == [{"k": 1, "j": j, "kind": "no_support"} for j in (1, 2, 3)]


def _random_sets(rng, n, count):
    """``count`` distinct random subsets of 1..n (at most 2^n), empty ones too."""
    codes = rng.choice(1 << n, size=min(count, 1 << n), replace=False)
    return [{j + 1 for j in range(n) if code >> j & 1} for code in codes]


def _random_probs(rng, m):
    w = rng.uniform(0.05, 1.0, m)
    return w / w.sum()


def _random_column_stochastic(rng, m):
    M = rng.uniform(0.05, 1.0, (m, m)) * (rng.random((m, m)) < 0.6)
    M[rng.integers(0, m, m), np.arange(m)] += 0.5  # no column is all zero
    return M / M.sum(axis=0)


def _random_instance(rng, kind):
    """A scheduler of ``kind`` on n <= 6 agents: clocks with sure and silent
    agents, support periods up to 3, markov laws of 1 or 2 matrices (a few
    with hooks instead), and empty or repeating scripts."""
    n = int(rng.integers(1, 7))
    if kind == "global_clock":
        w = _random_probs(rng, n) * (rng.random(n) < 0.8) + np.eye(n)[0]
        return GlobalClockScheduler(w / w.sum())
    if kind == "independent_clocks":
        return IndependentClocksScheduler(
            np.choose(rng.integers(0, 3, n), [np.zeros(n), np.ones(n), rng.random(n)]))
    if kind == "support_sequence":
        ticks = []
        for _ in range(int(rng.integers(1, 4))):
            sets = _random_sets(rng, n, int(rng.integers(1, 5)))
            ticks.append(list(zip(sets, _random_probs(rng, len(sets)))))
        hook = (lambda k, state, picked: (None, state)) if rng.random() < 0.1 else None
        return SupportSequenceScheduler(n, ticks, weight_fn=hook)
    if kind == "markov":
        states = _random_sets(rng, n, int(rng.integers(1, 5)))
        m = len(states)
        initial = states[int(rng.integers(0, m))]
        if rng.random() < 0.1:
            return MarkovScheduler(n, states, initial,
                                   matrix_fn=lambda k: np.full((m, m), 1.0 / m))
        mats = [_random_column_stochastic(rng, m) for _ in range(int(rng.integers(1, 3)))]
        return MarkovScheduler(n, states, initial, matrices=mats)
    sets = [_random_sets(rng, n, 1)[0] for _ in range(int(rng.integers(0, 5)))]
    return ScriptScheduler(n, sets, repeat=bool(rng.integers(0, 2)))


def test_conditions_match_the_set_loop_reference():
    # 600 random scheduler/matrix pairs: the reports and the
    # strong-aperiodicity verdicts are those of the frozenset loops to the bit
    rng = np.random.default_rng(2024_32)
    verdicts = set()
    for trial in range(600):
        kind = sorted(ALL_SCHEDULERS)[trial % 5]
        scheduler = _random_instance(rng, kind)
        n = scheduler.n
        A = StochasticMatrix(random_stochastic(rng, n, density=rng.uniform(0.2, 1.0)))
        rng.integers(1, 6)  # the draw of a retired option, kept so the instances stay the same
        report = check_conditions(scheduler, A)
        assert report.to_json() == reference_check_conditions(scheduler, A).to_json(), trial
        verdicts.add((kind, report.passed))
        if n >= 2:
            # the draws of a retired pair and tick, kept so the instances stay the same
            rng.choice(n, size=2, replace=False)
            rng.integers(1, 4)
        assert (check_strongly_aperiodic(scheduler, A).to_json()
                == reference_strongly_aperiodic(scheduler, A).to_json()), trial
    both = {(kind, ok) for kind in ALL_SCHEDULERS for ok in (True, False)}
    assert verdicts == both - {("markov", True)}


def test_conditions_unrooted_graph():
    A = StochasticMatrix(np.eye(3))
    report = check_conditions(GlobalClockScheduler([1 / 3] * 3), A)
    assert not report["rooted"].passed
    assert not report["quasi_singleton"].passed


# ---------------------------------------------------------------------------
# strong aperiodicity
# ---------------------------------------------------------------------------

def test_strongly_aperiodic_fails_on_a_zero_diagonal():
    # every agent of four_node_rooted has a_ii = 0 and one a_ij = 1, and a
    # uniform clock draws each: E[A_sigma(i,i) A_sigma(i,j)] = 0 < 1/4
    A = bundled_matrix("four_node_rooted")
    chk = check_strongly_aperiodic(GlobalClockScheduler([0.25] * 4), A)
    assert chk.name == "strongly_aperiodic"
    assert not chk.passed
    assert [1, 2] in chk.witness["pairs"]
    assert chk.witness == {"pairs": [[1, 2], [2, 3], [3, 1], [4, 3]]}


def test_strongly_aperiodic_identity_diagonal():
    # no off-diagonal entry: nothing to bound, gamma 1
    lazy = StochasticMatrix(np.eye(2))
    chk = check_strongly_aperiodic(GlobalClockScheduler([0.5, 0.5]), lazy)
    assert chk.passed and chk.witness == {"gamma": 1.0}
    A = StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
    chk2 = check_strongly_aperiodic(GlobalClockScheduler([0.5, 0.5]), A)
    assert chk2.passed and chk2.witness == {"gamma": 0.5}


def test_strongly_aperiodic_never_selected_agent():
    # agents 2 and 3 have a zero diagonal but never update
    A = bundled_matrix("three_node_lazy_cycle")
    chk = check_strongly_aperiodic(GlobalClockScheduler([1.0, 0.0, 0.0]), A)
    assert chk.passed and chk.witness == {"gamma": 0.5}


def test_strongly_aperiodic_decides_markov_and_hooked_laws():
    A = bundled_matrix("three_node_lazy_cycle")
    chk = check_strongly_aperiodic(ALL_SCHEDULERS["markov"](), A)
    assert not chk.passed
    assert chk.witness == {"pairs": [[2, 3], [3, 1]]}
    assert "union over source states" in chk.note
    hooked = SupportSequenceScheduler(
        3, [[({1}, 0.5), ({3}, 0.5)]],
        weight_fn=lambda k, state, picked: (np.full((len(picked), 2), 0.5), state),
    )
    chk = check_strongly_aperiodic(hooked, A)
    assert not chk.passed and chk.witness == {"pairs": [[3, 1]]} and not chk.note
    lone = SupportSequenceScheduler(3, [[({1}, 1.0)]], weight_fn=hooked.weight_fn)
    assert check_strongly_aperiodic(lone, A).witness == {"gamma": 0.5}
    # a time-varying law has no period to read
    vanishing = MarkovScheduler(3, states=[{1}, {2}, {3}], initial={1}, matrix_fn=vanishing_law)
    chk = check_strongly_aperiodic(vanishing, A)
    assert not chk.passed and "matrix_fn" in chk.note


def test_strongly_aperiodic_errors():
    with pytest.raises(DimensionError):
        check_strongly_aperiodic(GlobalClockScheduler([0.5, 0.5]),
                                 bundled_matrix("three_node_cycle"))


def test_conditions_clock_floor_underflow_keeps_every_set():
    # the sets {1, 2} and {1, 2, 3} have probabilities 1e-400 and 5e-401:
    # drawable, though their products round to 0.0
    scheduler = IndependentClocksScheduler([1e-200, 1e-200, 0.5])
    A = bundled_matrix("three_node_cycle")
    report = check_conditions(scheduler, A)
    pos = report["positive_probability"]
    assert pos.passed and pos.witness == {"alpha": 0.0}
    assert "underflows float64" in pos.note
    assert report.to_json() == reference_check_conditions(scheduler, A).to_json()
    sets = [s for s, _ in _clock_sets(scheduler)]
    assert {frozenset({1, 2}), frozenset({1, 2, 3})} <= set(sets)
    assert np.array_equal(scheduler.supports(1)[0], reference_meet(sets, 3))


def test_conditions_large_independent_clocks_in_closed_form():
    # past the oracle's enumeration cap the closed forms decide every check
    rng = np.random.default_rng(2024_34)
    for n in (17, 64):
        A = StochasticMatrix(np.full((n, n), 1.0 / n))
        p = rng.uniform(0.05, 0.95, n)
        scheduler = IndependentClocksScheduler(p)
        report = check_conditions(scheduler, A)
        assert report.passed, n
        assert report["positive_probability"].witness["alpha"] == reference_alpha(scheduler)
        assert report["joint_coverage"].witness["q"] == 1
        assert check_strongly_aperiodic(scheduler, A).witness == {"gamma": 1.0 / n}
        # a sure agent inside chi joins every set, so the sets that hold
        # agent 1 meet in {1, 4}
        p[3] = 1.0
        qs = check_conditions(IndependentClocksScheduler(p), A)["quasi_singleton"]
        assert not qs.passed
        assert qs.witness["violations"][0] == {"k": 1, "j": 1, "kind": "intersection",
                                               "intersection": [1, 4]}


def test_analysis_of_single_agent():
    from async_dca import analysis_report

    report = analysis_report(StochasticMatrix(np.array([[1.0]])))
    assert report["rooted"] is True
    assert report["sia"] is True
    assert report["lambda"] == 0.0
    assert report["cycle_length"] == 1


@pytest.mark.parametrize("kind", ["support_weight_fn", "markov_matrix_fn"])
def test_to_json_refuses_a_hook(kind):
    with pytest.raises(ValidationError, match="cannot be serialised to JSON"):
        HISTORY_SCHEDULERS[kind]().to_json()


def test_condition_report_rejects_an_unknown_name():
    report = check_conditions(example1_scheduler(), bundled_matrix("four_node_rooted"))
    with pytest.raises(KeyError, match="unknown"):
        report["unknown"]
