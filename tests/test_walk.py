import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from async_dca import (
    BUNDLED_MATRICES,
    DistanceChain,
    LabelledCycle,
    ValidationError,
    build_graph,
    build_labelled_cycle,
    bundled_matrix,
    default_move_probabilities,
    match_probability_curve,
    roots,
    stream,
)
from async_dca import _kernels
from async_dca.rng import UNIFORM_BUFFER_BYTES
from async_dca.walk import WALK_BLOCK
from _oracles import (
    all_steps_rate_certificate,
    cycle_label,
    dense_rate_certificate,
    distance_chain_matrix,
    evolve_distance,
    lower_bound_matrix,
    simulate_backward_walk,
    walk_hits_v2,
    walk_match_exact,
    wilson_interval,
)

SIX_CYCLE = LabelledCycle(6, (1, 2, 4, 3, 2, 4))


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
        G = build_graph(W.T)
        assert roots(G) == frozenset({1})
        assert G.adj[0, 0]


def test_lower_bound_matrix_validation():
    with pytest.raises(ValidationError):
        lower_bound_matrix(1, 0.2)
    with pytest.raises(ValidationError):
        lower_bound_matrix(4, 0.5)
    with pytest.raises(ValidationError):
        lower_bound_matrix(4, 0.0)


def _absorbing_errors(P, k_max):
    """max |P^k - e1 1^T| for k = 1..k_max, each power taken afresh."""
    target = np.zeros(P.shape)
    target[0, :] = 1.0
    return np.array([np.abs(np.linalg.matrix_power(P, k) - target).max()
                     for k in range(1, k_max + 1)])


def test_rate_certificate_uniform_completion_l6():
    # at gamma = 1/3 the chain is the uniform completion of W: each column
    # spreads 1/3 over staying, stepping down and stepping up.  Against the
    # power oracle the error of P^k first drops below 1e-6 at k = 150
    chain = DistanceChain(6, 1 / 3)
    cert = chain.rate_certificate(200)
    oracle = _absorbing_errors(distance_chain_matrix(6, 1 / 3), 200)
    assert np.abs(cert.errors - oracle).max() <= 1e-12
    first = int(np.argmax(oracle < 1e-6)) + 1
    assert first == 150
    assert cert.errors[first - 1] < 1e-6 <= cert.errors[first - 2]
    ks = np.arange(1, 201)
    assert 0 < cert.beta < 1.0
    assert (cert.errors <= cert.c0 * cert.beta ** ks).all()


@pytest.mark.parametrize("k", range(1, 7))
def test_rate_certificate_holds_on_short_prefixes(k):
    # the errors of P and P^2 are both 1, too few to show a decay; the exact
    # rate still gives an envelope that holds at every k, without a tolerance
    cert = DistanceChain(6, 0.2).rate_certificate(k)
    assert 0.0 < cert.beta < 1.0
    for j in range(1, k + 1):
        assert cert.errors[j - 1] <= cert.c0 * cert.beta ** j


def test_rate_certificate_l2_matches_scalar_recursion():
    # on two positions the unabsorbed mass keeps 1 - 2 gamma per step,
    # which is also the exact rate
    chain = DistanceChain(2, 0.3)
    cert = chain.rate_certificate(60)
    keep = 1.0 - 2 * 0.3
    assert np.abs(cert.errors - keep ** np.arange(1, 61)).max() <= 1e-12
    assert cert.beta == pytest.approx(keep, rel=1e-12)


def test_rate_certificate_validation():
    # the constructor validates what the certificate is built from
    for l in (0, 1):
        with pytest.raises(ValidationError):
            DistanceChain(l, 0.2)
    for gamma in (0.0, -0.1, 0.34):
        with pytest.raises(ValidationError):
            DistanceChain(6, gamma)
    with pytest.raises(ValidationError):
        DistanceChain(4, 0.2).rate_certificate(0)


def test_distance_chain_is_admissible_and_absorbing():
    for l in range(3, 9):
        chain = DistanceChain(l, 0.2)
        P, W = distance_chain_matrix(l, 0.2), lower_bound_matrix(l, 0.2)
        assert (P >= W - 1e-15).all()
        assert ((P > 0) == (W > 0)).all()
        cert = chain.rate_certificate(150)
        for start in range(1, l):
            xi1 = np.zeros(l)
            xi1[start] = 1.0
            traj = evolve_distance(chain, xi1, 150)
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
    # the curve validates gamma, the move law's one parameter, on every cycle,
    # one position included
    for cycle in (SIX_CYCLE, LabelledCycle(1, (1,))):
        for gamma in (0.0, 0.5):
            with pytest.raises(ValidationError):
                match_probability_curve(cycle, gamma, 10, 5, seed=1)


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
    assert cycle_label(SIX_CYCLE, int(i)) == cycle_label(SIX_CYCLE, int(j))
    assert len(traj.positions) == traj.hit_time
    for i, j in traj.positions[:-1]:
        assert cycle_label(SIX_CYCLE, int(i)) != cycle_label(SIX_CYCLE, int(j))


def test_simulate_walk_deterministic():
    a = simulate_backward_walk(SIX_CYCLE, 0.2, 300, stream(5, 2))
    b = simulate_backward_walk(SIX_CYCLE, 0.2, 300, stream(5, 2))
    assert a.hit_time == b.hit_time
    assert np.array_equal(a.positions, b.positions)


FIVE_CYCLE = LabelledCycle(5, (1, 2, 3, 2, 4))


# the oracles' move law; None is the library's one law, default_move_probabilities
ORACLE_LAWS = [None]


@pytest.mark.parametrize("move_probs", ORACLE_LAWS)
@pytest.mark.parametrize("trials", [1, 20, 500])
@pytest.mark.parametrize("k_max", [1, 2, WALK_BLOCK, WALK_BLOCK + 1, 150])
def test_batch_curve_matches_per_trial_oracle(k_max, trials, move_probs):
    # hits do not depend on the certificate
    curve = match_probability_curve(FIVE_CYCLE, 0.2, k_max, trials, seed=31)
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


def test_one_position_cycle_gives_the_exact_trivial_curve():
    # both tokens sit on the one position, so every walk matches at k = 1
    curve = match_probability_curve(LabelledCycle(1, (1,)), 0.2, 30, 50, seed=8)
    assert (curve.hits == 1).all()
    assert (curve.empirical == 1.0).all() and (curve.bound == 1.0).all()
    assert curve.c0 == 0.0 and curve.beta == 0.0


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
    chain = DistanceChain(6, 0.2)
    by_distance = evolve_distance(chain, np.full(6, 1 / 6), 59)[:, 0]
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
    # drawing all k_max - 1 uniforms up front would take 50k x 199 x 8 B = 80 MB,
    # and one whole 16-column block of the 50k trials 6.4 MB; slabs of about
    # UNIFORM_BUFFER_BYTES leave the O(trials) positions and hits
    tracemalloc.start()
    try:
        match_probability_curve(SIX_CYCLE, 0.2, 200, 50_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _record_kernel_calls(monkeypatch):
    """Wrap the walk kernel; each call appends (rows, columns, hits)."""
    calls, kernel = [], _kernels.walk_match_batch

    def recording(labels, starts, uniforms, *thresholds):
        hits = kernel(labels, starts, uniforms, *thresholds)
        calls.append((*uniforms.shape, hits.copy()))
        return hits

    monkeypatch.setattr(_kernels, "walk_match_batch", recording)
    return calls


def test_walks_matched_at_the_start_take_no_kernel_call(monkeypatch):
    # the starts are compared by label; the kernel walks only the blocks
    # of the walks unmatched at k = 1, one row each
    calls = _record_kernel_calls(monkeypatch)
    curve = match_probability_curve(SIX_CYCLE, 0.2, 10, 1000, seed=1729)
    assert [w for _, w, _ in calls] == [9] and calls[0][0] == (curve.hits != 1).sum()
    assert (curve.hits == 1).any()
    calls.clear()
    curve = match_probability_curve(LabelledCycle(3, (2, 2, 2)), 0.2, 10, 50, seed=3)
    assert calls == [] and (curve.hits == 1).all()


def test_walk_blocks_are_drawn_in_whole_kernel_slabs(monkeypatch):
    # every block is cut into kernel calls of UNIFORM_BUFFER_BYTES // (8 width)
    # rows each, the last one ragged
    calls = _record_kernel_calls(monkeypatch)
    trials, k_max = 20_000, 60
    curve = match_probability_curve(SIX_CYCLE, 0.2, k_max, trials, seed=12)
    # the walks unmatched at k = 1 are the ones the blocks walk
    unmatched, done, slabs = int((curve.hits != 1).sum()), 0, []
    while unmatched and done < k_max - 1:
        width = min(WALK_BLOCK, k_max - 1 - done)
        rows = UNIFORM_BUFFER_BYTES // (8 * width)
        sizes, left = [], 0
        while sum(sizes) < unmatched:
            r, w, h = calls.pop(0)
            assert w == width
            sizes.append(r)
            left += int((h < 0).sum())
        assert sum(sizes) == unmatched and set(sizes[:-1]) <= {rows} and sizes[-1] <= rows
        slabs.append(len(sizes))
        unmatched, done = left, done + width
    assert calls == [] and done == k_max - 1 and (curve.hits < 0).any()
    assert len(slabs) == 4 and slabs[0] > 2


@pytest.mark.parametrize("slab_bytes, rows", [
    (1, 1),                                                    # one row per call
    (8 * WALK_BLOCK * 7, 7),                                   # seven rows
    (UNIFORM_BUFFER_BYTES, UNIFORM_BUFFER_BYTES // (8 * WALK_BLOCK)),  # 1024
    (1 << 40, None),                                           # each block whole
])
def test_walk_outputs_do_not_depend_on_the_slab_size(monkeypatch, slab_bytes, rows):
    trials, k_max = 3000, 40
    calls = _record_kernel_calls(monkeypatch)
    want = match_probability_curve(SIX_CYCLE, 0.2, k_max, trials, seed=19)
    want_uniforms = sum(r * w for r, w, _ in calls)
    calls.clear()
    monkeypatch.setattr("async_dca.rng.UNIFORM_BUFFER_BYTES", slab_bytes)
    got = match_probability_curve(SIX_CYCLE, 0.2, k_max, trials, seed=19)
    assert np.array_equal(got.hits, want.hits)
    assert np.array_equal(got.empirical, want.empirical)
    assert sum(r * w for r, w, _ in calls) == want_uniforms
    # one call per block when blocks are whole; the starts take no call
    sizes = [r for r, w, _ in calls if w == WALK_BLOCK]
    if rows is None:
        assert len(calls) == -(-(k_max - 1) // WALK_BLOCK)
    else:
        assert max(sizes) == rows


def test_walk_does_not_read_the_trajectory_chunk_size(monkeypatch):
    # CHUNK_BYTES sizes the trajectory kernel alone: at 8 bytes the walk
    # makes the same kernel calls, of the same shapes, with the same outputs
    trials, k_max = 3000, 40
    calls = _record_kernel_calls(monkeypatch)
    want = match_probability_curve(SIX_CYCLE, 0.2, k_max, trials, seed=19)
    want_shapes = [(r, w) for r, w, _ in calls]
    calls.clear()
    monkeypatch.setattr(_kernels, "CHUNK_BYTES", 8)
    got = match_probability_curve(SIX_CYCLE, 0.2, k_max, trials, seed=19)
    assert np.array_equal(got.hits, want.hits)
    assert np.array_equal(got.empirical, want.empirical)
    assert [(r, w) for r, w, _ in calls] == want_shapes and max(want_shapes)[0] > 1000


@pytest.mark.parametrize("move_probs", ORACLE_LAWS)
@pytest.mark.parametrize("l", range(2, 9))
def test_certificate_holds_at_every_short_horizon(l, move_probs):
    # beta is the exact rate of the transient block, so a horizon too short
    # to show decay, such as (l, k_max) = (6, 2), (7, 2), (8, 2) or (8, 3),
    # still yields a certificate.  With distinct labels a match is an
    # absorbed distance, the tightest case.
    cycle = LabelledCycle(l, tuple(range(1, l + 1)))
    chain = DistanceChain(l, 0.2)
    for k_max in range(1, 12):
        curve = match_probability_curve(cycle, 0.2, k_max, 50, seed=3)
        assert 0 < curve.beta < 1
        assert (curve.bound <= walk_match_exact(cycle, 0.2, k_max, move_probs)).all()
        cert = chain.rate_certificate(k_max)
        ks = np.arange(1, k_max + 1)
        assert (cert.errors <= cert.c0 * cert.beta ** ks).all()
    radius = np.abs(np.linalg.eigvals(distance_chain_matrix(l, 0.2)[1:, 1:])).max()
    assert cert.beta == pytest.approx(radius, rel=1e-12)


def test_match_curve_dominates_bound():
    curve = match_probability_curve(SIX_CYCLE, 0.2, 200, 2000, seed=77)
    assert (np.diff(curve.empirical) >= 0).all()
    assert curve.empirical[-1] >= 0.95
    assert (curve.empirical >= curve.bound).all()
    assert 0 < curve.beta < 1


@pytest.mark.parametrize("l", range(2, 9))
def test_certificate_c0_does_not_grow_with_the_horizon(l):
    # the unabsorbed mass is carried at the exact rate, so neither the
    # rounding floor of 1 - P^k[0, d] nor a drift of the unit Perron mode
    # can set c0 at k = k_max
    chain = DistanceChain(l, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certs = [chain.rate_certificate(k_max) for k_max in (200, 1000, 5000, 100_000)]
    assert len({cert.c0 for cert in certs}) == 1
    for cert in certs:
        ks = np.arange(1, len(cert.errors) + 1)
        assert (cert.errors <= cert.c0 * cert.beta ** ks).all()
    oracle = _absorbing_errors(distance_chain_matrix(l, 0.2), 200)
    assert np.abs(certs[0].errors - oracle).max() <= 1e-12


def _bundled_cycles():
    for name in BUNDLED_MATRICES:
        G = build_graph(bundled_matrix(name))
        chi = roots(G)
        if chi:
            cycle = build_labelled_cycle(G, chi)
            if cycle.length > 1:
                yield name, cycle


@pytest.mark.parametrize("move_probs", ORACLE_LAWS)
@pytest.mark.parametrize("name, cycle", list(_bundled_cycles()))
def test_envelope_dominates_the_exact_unmatched_mass(name, cycle, move_probs):
    # c0 beta^k against P(no match by k) summed over the unmatched position
    # pairs, with no tolerance.  One minus the exact matched mass is not
    # compared: it rounds at 1 long before the envelope does.
    k_max = 1000
    curve = match_probability_curve(cycle, 0.2, k_max, 10, seed=3)
    unmatched = walk_match_exact(cycle, 0.2, k_max, move_probs, unmatched=True)
    envelope = curve.c0 * curve.beta ** curve.k
    assert (envelope >= unmatched).all()


@pytest.mark.parametrize("gamma", [0.05, 0.2, 1 / 3])
@pytest.mark.parametrize("l", [20, 100, 200, 500, 1000])
def test_long_cycle_errors_match_the_unabsorbed_mass(l, gamma):
    # errors against the nonnegative recursion ones @ J^k, which has no
    # cancellation: the symmetric split keeps c0 near 4 / pi, so the
    # deflated remainder loses nothing; the early masses are 1 exactly, and
    # the split, which rounds them up to about 1.3e-13 above, is clipped at 1
    k_max = 2000
    chain = DistanceChain(l, gamma)
    cert = chain.rate_certificate(k_max)
    J = distance_chain_matrix(l, gamma)[1:, 1:]
    mass, oracle = np.ones(l - 1), np.empty(k_max)
    for k in range(k_max):
        mass = mass @ J
        oracle[k] = mass.max()
    assert (np.abs(cert.errors - oracle) <= 1e-12 * oracle).all()
    assert (cert.errors <= 1.0).all()
    assert 1.0 < cert.c0 < 4 / np.pi


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 1 / 3])
def test_banded_certificate_matches_the_dense_recursion(gamma):
    # the band step and the dense deflated product are the same recursion
    # rounded differently; c0 and beta come out bit for bit, errors to 1e-11
    for l in [*range(2, 80), *range(100, 501, 100)]:
        chain = DistanceChain(l, gamma)
        for k_max in (1, 2, 5, 50, 200, 1000):
            cert = chain.rate_certificate(k_max)
            c0, beta, errors = dense_rate_certificate(l, gamma, k_max)
            assert cert.c0 == c0 and cert.beta == beta, (l, k_max)
            assert (np.abs(cert.errors - errors) <= 1e-11 * errors).all(), (l, k_max)


@pytest.mark.parametrize("gamma", [0.01, 0.2, 1 / 3])
@pytest.mark.parametrize("l", [2, 3, 4, 6, 12, 50, 300, 1000])
def test_certificate_stop_matches_the_all_steps_loop(l, gamma):
    # the certificate stops once the scaled masses settle; the all-steps
    # loop must give the same c0, beta and errors bit for bit.  The 100 000
    # step horizons pass the late stops of small gamma (step 7472 at l = 12,
    # gamma = 0.01) and the l = 6, gamma = 0.2 stop near step 80
    chain = DistanceChain(l, gamma)
    horizons = [1, 2, 80, 200, 5000]
    if (l, gamma) in ((6, 0.2), (12, 0.01)):
        horizons.append(100_000)
    for k_max in horizons:
        cert = chain.rate_certificate(k_max)
        c0, beta, errors = all_steps_rate_certificate(l, gamma, k_max)
        assert cert.c0 == c0 and cert.beta == beta, k_max
        assert np.array_equal(cert.errors.view(np.uint64), errors.view(np.uint64)), k_max


def test_distance_chain_holds_only_its_length_and_rate():
    assert [f.name for f in dataclasses.fields(DistanceChain)] == ["l", "gamma"]
    assert type(DistanceChain(5, np.float32(0.25)).gamma) is float


def test_certificate_memory_is_linear_in_the_cycle_length():
    # the dense transient block at l = 4000 alone is 128 MB; the band step
    # keeps O(l) vectors and the k_max scaled masses
    DistanceChain(40, 0.2).rate_certificate(5)
    tracemalloc.start()
    try:
        cert = DistanceChain(4000, 0.2).rate_certificate(200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert 1.0 < cert.c0 < 4 / np.pi and (cert.errors == 1.0).all()
