import tracemalloc

import numpy as np
import pytest

from async_dca import (
    DistanceChain,
    LabelledCycle,
    ValidationError,
    build_graph,
    cycle_distance,
    default_move_probabilities,
    lower_bound_matrix,
    match_probability_curve,
    product_convergence_rate,
    roots,
    stream,
    uniform_completion,
    wilson_interval,
)
from async_dca import _kernels
from async_dca.walk import WALK_BLOCK
from _oracles import simulate_backward_walk, walk_hits_v2, walk_match_exact

SIX_CYCLE = LabelledCycle(6, (1, 2, 4, 3, 2, 4))


def test_cycle_distance_examples():
    assert cycle_distance(SIX_CYCLE, 1, 2) == 1
    assert cycle_distance(SIX_CYCLE, 2, 1) == 5
    for i in range(1, 7):
        assert cycle_distance(SIX_CYCLE, i, i) == 0


def test_cycle_distance_complement_property_exhaustive():
    for l in range(2, 13):
        cyc = LabelledCycle(l, tuple(range(1, l + 1)))
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                d = cycle_distance(cyc, i, j)
                assert 0 <= d <= l - 1
                if i != j:
                    assert d + cycle_distance(cyc, j, i) == l


def test_lower_bound_matrix_small_cases():
    W3 = lower_bound_matrix(3, 0.2)
    assert np.array_equal(W3, np.array([
        [1.0, 0.2, 0.2],
        [0.0, 0.2, 0.2],
        [0.0, 0.2, 0.2],
    ]))
    W2 = lower_bound_matrix(2, 0.3)
    assert np.array_equal(W2, np.array([[1.0, 0.3], [0.0, 0.3]]))


def test_lower_bound_matrix_row_one_pattern():
    for l in range(3, 11):
        W = lower_bound_matrix(l, 0.25)
        assert W[0, 0] == 1.0 and W[0, 1] == 0.25 and W[0, l - 1] == 0.25
        assert np.count_nonzero(W[0]) == 3


def test_lower_bound_matrix_transpose_graph_rooted_at_one():
    for l in range(3, 11):
        W = lower_bound_matrix(l, 0.2)
        rep = roots(build_graph(W.T))
        assert rep.rooted and rep.roots == frozenset({1})
        assert (1, 1) in build_graph(W.T).edges


def test_lower_bound_matrix_validation():
    with pytest.raises(ValidationError):
        lower_bound_matrix(1, 0.2)
    with pytest.raises(ValidationError):
        lower_bound_matrix(4, 0.5)
    with pytest.raises(ValidationError):
        lower_bound_matrix(4, 0.0)


def test_uniform_completion_is_admissible():
    for l in (2, 3, 6, 9):
        W = lower_bound_matrix(l, 0.15)
        P = uniform_completion(W)
        assert np.abs(P.entries.sum(axis=0) - 1.0).max() <= 1e-12
        assert (P.entries >= W - 1e-15).all()
        assert ((P.entries > 0) == (W > 0)).all()


def test_rate_certificate_uniform_completion_l6():
    # direct multiplication oracle: the max-entry error of P^k against the
    # absorbing target first drops below 1e-6 at k = 150 for this chain
    W = lower_bound_matrix(6, 0.15)
    P = uniform_completion(W)
    cert = product_convergence_rate([P] * 200, W)
    errors = cert.errors
    assert errors[149] < 1e-6
    assert errors[148] >= 1e-6
    ks = np.arange(1, 201)
    assert cert.beta < 1.0
    assert (errors <= cert.c0 * cert.beta ** ks + 1e-12).all()


@pytest.mark.parametrize("k", range(1, 7))
def test_rate_certificate_holds_on_short_prefixes(k):
    # a two-matrix prefix has errors [1, 1], too few to fit a decay; like
    # the one-matrix prefix it takes beta = 1/2, and every envelope holds
    # without a tolerance
    W = lower_bound_matrix(6, 0.2)
    cert = product_convergence_rate([uniform_completion(W)] * k, W)
    assert 0.0 < cert.beta < 1.0
    for j in range(1, k + 1):
        assert cert.errors[j - 1] <= cert.c0 * cert.beta ** j


def test_rate_certificate_l2_matches_scalar_recursion():
    gamma = 0.3
    W = lower_bound_matrix(2, gamma)
    P = uniform_completion(W)  # the transient state keeps mass 1/2 per step
    cert = product_convergence_rate([P] * 60, W)
    expected = 0.5 ** np.arange(1, 61)
    assert np.abs(cert.errors - expected).max() <= 1e-12
    assert cert.beta <= 1.0 - gamma + 1e-9


def test_rate_certificate_absorbing_product():
    target = np.zeros((4, 4))
    target[0, :] = 1.0
    cert = product_convergence_rate([target] * 5, target)
    assert (cert.errors == 0.0).all()
    assert cert.c0 == 0.0


def test_rate_certificate_validation():
    W = lower_bound_matrix(4, 0.2)
    P = uniform_completion(W)
    bad_type = P.entries.copy()
    bad_type[3, 1] = bad_type[2, 1]
    bad_type[2, 1] = 0.0
    with pytest.raises(ValidationError):
        product_convergence_rate([bad_type], W)
    with pytest.raises(ValidationError):
        product_convergence_rate([], W)
    droopy = P.entries.copy()
    droopy[:, 1] = 0.0
    droopy[0, 1], droopy[1, 1], droopy[2, 1] = 0.9, 0.05, 0.05
    with pytest.raises(ValidationError):
        # two entries of column 2 fall below the 0.2 floor
        product_convergence_rate([droopy], W)
    unrooted = np.eye(4)
    with pytest.raises(ValidationError):
        product_convergence_rate([P], unrooted)


def test_rate_certificate_checks_each_distinct_matrix_once(monkeypatch):
    from async_dca import walk

    W = lower_bound_matrix(6, 0.15)
    P = uniform_completion(W)
    # a repeated object is validated once; distinct copies, each validated,
    # are the reference, and the certificate must not change by a bit
    fast = product_convergence_rate([P] * 200, W)
    slow = product_convergence_rate([P.entries.copy() for _ in range(200)], W)
    assert fast.errors.tobytes() == slow.errors.tobytes()
    assert np.float64(fast.c0).tobytes() == np.float64(slow.c0).tobytes()
    assert np.float64(fast.beta).tobytes() == np.float64(slow.beta).tobytes()

    checked = []

    class Counting(walk.ColumnStochasticMatrix):
        def __post_init__(self):
            checked.append(1)
            super().__post_init__()

    monkeypatch.setattr(walk, "ColumnStochasticMatrix", Counting)
    arr = P.entries.copy()
    product_convergence_rate([arr] * 50, W)
    assert len(checked) == 1
    product_convergence_rate([arr] * 3 + [arr.copy()] + [arr] * 2, W)
    assert len(checked) == 1 + 3

    # a bad matrix after a run of repeats is still rejected, on every check
    not_stochastic = arr * 1.5
    bad_type = arr.copy()
    bad_type[0, 1] = 0.0
    bad_type[2, 1] = arr[0, 1] + arr[2, 1]
    droopy = arr.copy()
    droopy[:, 1] = 0.0
    droopy[0, 1], droopy[1, 1] = 0.9, 0.1
    for bad in (not_stochastic, bad_type, droopy, np.eye(5)):
        with pytest.raises((ValidationError, walk.DimensionError)):
            product_convergence_rate([arr] * 4 + [bad] + [arr] * 2, W)
        with pytest.raises((ValidationError, walk.DimensionError)):
            product_convergence_rate([arr] * 4 + [bad] * 3, W)


def test_distance_chain_is_admissible_and_absorbing():
    for l in range(3, 9):
        chain = DistanceChain.for_walk(l, 0.2)
        W = lower_bound_matrix(l, 0.2)
        assert (chain.matrix.entries >= W - 1e-15).all()
        assert ((chain.matrix.entries > 0) == (W > 0)).all()
        cert = chain.rate_certificate(150)
        for start in range(1, l):
            xi1 = np.zeros(l)
            xi1[start] = 1.0
            traj = chain.evolve(xi1, 150)
            # absorbed mass only grows, and it dominates the certificate
            assert (np.diff(traj[:, 0]) >= -1e-15).all()
            ks = np.arange(1, 151)
            assert (traj[1:, 0] >= 1.0 - cert.c0 * cert.beta ** ks - 1e-12).all()


def test_default_move_probabilities():
    p = default_move_probabilities(0.2)
    assert p == (0.2, 0.2, 0.3, 0.3)
    with pytest.raises(ValidationError):
        default_move_probabilities(0.4)


def test_move_probability_validation():
    with pytest.raises(ValidationError):
        DistanceChain.for_walk(6, 0.2, move_probs=(0.1, 0.2, 0.35, 0.35))
    with pytest.raises(ValidationError):
        DistanceChain.for_walk(6, 0.2, move_probs=(0.3, 0.3, 0.3, 0.3))
    with pytest.raises(ValidationError):
        DistanceChain.for_walk(6, 0.3, move_probs=(0.35, 0.35, 0.1, 0.1))


def test_simulate_walk_immediate_matches():
    rng = stream(99, 0)
    same_position = simulate_backward_walk(SIX_CYCLE, 0.2, 100, rng, i1=4, j1=4)
    assert same_position.hit_time == 1
    assert len(same_position.positions) == 1
    # positions 2 and 5 carry the same label
    same_label = simulate_backward_walk(SIX_CYCLE, 0.2, 100, stream(99, 1), i1=2, j1=5)
    assert same_label.hit_time == 1


def test_simulate_walk_freezes_at_match():
    traj = simulate_backward_walk(SIX_CYCLE, 0.2, 500, stream(17, 0), i1=1, j1=4)
    assert traj.matched
    i, j = traj.positions[-1]
    assert SIX_CYCLE.label(int(i)) == SIX_CYCLE.label(int(j))
    assert len(traj.positions) == traj.hit_time
    for i, j in traj.positions[:-1]:
        assert SIX_CYCLE.label(int(i)) != SIX_CYCLE.label(int(j))


def test_simulate_walk_deterministic():
    a = simulate_backward_walk(SIX_CYCLE, 0.2, 300, stream(5, 2))
    b = simulate_backward_walk(SIX_CYCLE, 0.2, 300, stream(5, 2))
    assert a.hit_time == b.hit_time
    assert np.array_equal(a.positions, b.positions)


FIVE_CYCLE = LabelledCycle(5, (1, 2, 3, 2, 4))


@pytest.mark.parametrize("move_probs", [None, (0.2, 0.2, 0.0, 0.6), (0.25, 0.35, 0.3, 0.1)])
@pytest.mark.parametrize("trials", [1, 20, 500])
@pytest.mark.parametrize("k_max", [1, 2, WALK_BLOCK, WALK_BLOCK + 1, 150])
def test_batch_curve_matches_per_trial_oracle(k_max, trials, move_probs):
    # hits do not depend on the certificate
    curve = match_probability_curve(FIVE_CYCLE, 0.2, k_max, trials, seed=31,
                                    move_probs=move_probs)
    oracle = walk_hits_v2(FIVE_CYCLE, 0.2, k_max, trials, seed=31, move_probs=move_probs)
    assert np.array_equal(curve.hits, oracle)


def test_six_cycle_curve_matches_per_trial_oracle():
    curve = match_probability_curve(SIX_CYCLE, 0.2, 150, 500, seed=31)
    assert np.array_equal(curve.hits, walk_hits_v2(SIX_CYCLE, 0.2, 150, 500, seed=31))


def test_seed_contract_2_golden_hits():
    # pins the draw layout itself, WALK_BLOCK included: two trials match in
    # the second block
    curve = match_probability_curve(SIX_CYCLE, 0.2, 60, 24, seed=31)
    assert curve.hits.tolist() == [3, 6, 1, 5, 11, 5, 1, 9, 1, 1, 1, 1,
                                   2, 8, 7, 22, 3, 4, 3, 3, 3, 6, 3, 25]


def test_all_matching_cycle_draws_no_uniforms(monkeypatch):
    drawn = []
    kernel = _kernels.walk_match_batch

    def counting(labels, starts, uniforms, *thresholds):
        drawn.append(uniforms.size)
        return kernel(labels, starts, uniforms, *thresholds)

    monkeypatch.setattr(_kernels, "walk_match_batch", counting)
    cycle = LabelledCycle(3, (2, 2, 2))
    curve = match_probability_curve(cycle, 0.2, 50, 20, seed=3)
    assert (curve.hits == 1).all()
    assert sum(drawn) == 0
    assert np.array_equal(curve.hits, walk_hits_v2(cycle, 0.2, 50, 20, seed=3))


def test_exact_oracle_small_cases():
    # one transition on a 2-cycle with distinct labels: a single move of
    # either token matches, staying or moving both does not
    two = LabelledCycle(2, (1, 2))
    exact = walk_match_exact(two, 0.2, 3, move_probs=(0.2, 0.3, 0.1, 0.4))
    assert np.allclose(exact, [0.5, 0.5 + 0.5 * 0.5, 1.0 - 0.5 * 0.5 ** 2], rtol=0, atol=1e-15)
    assert np.array_equal(walk_match_exact(LabelledCycle(3, (2, 2, 2)), 0.2, 4), np.ones(4))
    # with distinct labels a match is distance 0, so the distance chain from
    # a uniform start distance gives the same curve
    distinct = LabelledCycle(6, (1, 2, 3, 4, 5, 6))
    chain = DistanceChain.for_walk(6, 0.2)
    by_distance = chain.evolve(np.full(6, 1 / 6), 59)[:, 0]
    assert np.allclose(walk_match_exact(distinct, 0.2, 60), by_distance, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed, trials", [(701, 10_000), (77, 2000)])
def test_match_curve_inside_wilson_bands_of_exact_curve(seed, trials):
    # two-sided: z = 4 keeps the 200-point family-wise error near 1e-2
    curve = match_probability_curve(SIX_CYCLE, 0.2, 200, trials, seed=seed)
    exact = walk_match_exact(SIX_CYCLE, 0.2, 200)
    for k, p in enumerate(exact, start=1):
        successes = int(((curve.hits > 0) & (curve.hits <= k)).sum())
        lo, hi = wilson_interval(successes, trials, z=4.0)
        assert lo <= p <= hi, f"k={k}: exact {p} outside [{lo}, {hi}]"


def test_match_curve_memory_is_bounded_by_block():
    # drawing all k_max - 1 uniforms up front would take 50k x 199 x 8 B = 80 MB
    tracemalloc.start()
    try:
        match_probability_curve(SIX_CYCLE, 0.2, 200, 50_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("move_probs", [None, (0.2, 0.3, 0.1, 0.4)])
@pytest.mark.parametrize("l", range(2, 9))
def test_certificate_holds_at_every_short_horizon(l, move_probs):
    # beta is the exact rate of the transient block, so a horizon too short
    # to show decay still yields a certificate: a rate fitted to the errors
    # found none at (l, k_max) = (6, 2), (7, 2), (8, 2) and (8, 3).  With
    # distinct labels a match is an absorbed distance, the tightest case.
    cycle = LabelledCycle(l, tuple(range(1, l + 1)))
    chain = DistanceChain.for_walk(l, 0.2, move_probs)
    for k_max in range(1, 12):
        curve = match_probability_curve(cycle, 0.2, k_max, 50, seed=3, move_probs=move_probs)
        assert 0 < curve.beta < 1
        assert (curve.bound <= walk_match_exact(cycle, 0.2, k_max, move_probs)).all()
        cert = chain.rate_certificate(k_max)
        ks = np.arange(1, k_max + 1)
        assert (cert.errors <= cert.c0 * cert.beta ** ks * (1 + 1e-12)).all()
    radius = np.abs(np.linalg.eigvals(chain.matrix.entries[1:, 1:])).max()
    assert cert.beta == pytest.approx(radius, rel=1e-12)


def test_match_curve_dominates_bound():
    curve = match_probability_curve(SIX_CYCLE, 0.2, 200, 2000, seed=77)
    assert (np.diff(curve.empirical) >= 0).all()
    assert curve.empirical[-1] >= 0.95
    assert (curve.empirical >= curve.bound).all()
    assert 0 < curve.beta < 1
