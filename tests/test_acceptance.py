"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <criterion>: PASS|FAIL` line.  Wall-clock
budgets exclude the first call of each kernel (an autouse fixture makes it,
so one-time imports and allocator growth are not timed) but include
everything else.
"""
import functools
import time

import numpy as np
import pytest

from async_dca import (
    ExperimentConfig,
    GlobalClockScheduler,
    IndependentClocksScheduler,
    LabelledCycle,
    ScriptScheduler,
    StochasticMatrix,
    SupportSequenceScheduler,
    bundled_matrix,
    build_graph,
    build_labelled_cycle,
    check_conditions,
    check_strongly_aperiodic,
    ergodic_coefficient,
    is_sia,
    match_probability_curve,
    max_discrepancy,
    roots,
    run_experiment,
)
from async_dca import _kernels
from async_dca.montecarlo import _run_script
from _oracles import (
    bfs_roots,
    cycle_successor,
    graph_of,
    half_l1_coefficient,
    make_async_matrix,
    matrix_edges,
    power_sia_oracle,
)
from _samplers import (
    random_rooted_stochastic,
    random_stochastic,
    random_strongly_connected_edges,
    random_structured,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {name}: PASS", flush=True)
        return wrapper
    return decorate


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Call each kernel once so budget timings measure the work, not first-call setup."""
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    masks = np.ones((1, 2, 2), dtype=bool)
    x0 = np.array([[1.0, -1.0]])
    _kernels.trajectory_batch(A, masks, _kernels.Carry(x0, True), True)
    _kernels.walk_match_batch(
        np.array([1, 2]), np.array([[0, 1]]), np.full((1, 4), 0.99), 0.2, 0.4, 0.7
    )


@pytest.fixture(scope="module")
def synchronous_run():
    cfg = ExperimentConfig(
        matrix=bundled_matrix("six_node_coupled"),
        scheduler=ScriptScheduler(6, [[1, 2, 3, 4, 5, 6]], repeat=True),
        trials=100,
        horizon=1000,
        epsilon=1e-3,
        seed=301,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def global_clock_run():
    cfg = ExperimentConfig(
        matrix=bundled_matrix("six_node_coupled"),
        scheduler=GlobalClockScheduler([1 / 6] * 6),
        trials=200,
        horizon=5000,
        epsilon=1e-6,
        seed=401,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def independent_clocks_run():
    cfg = ExperimentConfig(
        matrix=bundled_matrix("six_node_coupled"),
        scheduler=IndependentClocksScheduler([0.5] * 6),
        trials=200,
        horizon=5000,
        epsilon=1e-6,
        seed=402,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


@criterion("1 exact replays")
def test_criterion_1_exact_replays():
    start = time.perf_counter()

    chain = bundled_matrix("three_node_chain")
    assert np.array_equal(
        make_async_matrix(chain, 2).entries,
        np.array([[1, 0, 0], [0.2, 0.8, 0], [0, 0, 1]]),
    )
    assert np.array_equal(
        make_async_matrix(chain, {1, 3}).entries,
        np.array([[0, 1, 0], [0, 1, 0], [0, 0.7, 0.3]]),
    )

    five = bundled_matrix("five_node_shift")
    _, product5 = _run_script(five, [5, 4, 1, 2, 3], np.zeros(5))
    assert np.array_equal(product5.entries, np.array([
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ], dtype=float))
    assert not is_sia(product5)

    swap = bundled_matrix("two_node_swap")
    _, product2 = _run_script(swap, [2, 1], np.zeros(2))
    assert np.array_equal(product2.entries, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert is_sia(product2)

    cycle3 = bundled_matrix("three_node_cycle")
    _, product3 = _run_script(cycle3, [3, 2, 1], np.zeros(3))
    assert np.array_equal(product3.entries,
                          np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    assert not is_sia(product3)

    ring = bundled_matrix("four_node_ring")
    _, product4 = _run_script(ring, [{1, 3}, {2, 4}], np.zeros(4))
    assert np.array_equal(product4.entries, np.array([
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exact replays took {elapsed:.3f}s"


@criterion("2 property suites")
def test_criterion_2_property_suites():
    start = time.perf_counter()

    rng = np.random.default_rng(3001)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        A1 = random_stochastic(rng, n)
        A2 = random_stochastic(rng, n)
        assert ergodic_coefficient(A1 @ A2) <= (
            ergodic_coefficient(A1) * ergodic_coefficient(A2) + 1e-10
        )

    rng = np.random.default_rng(3002)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        A = random_structured(rng, n)
        x = rng.uniform(-4.0, 4.0, n)
        assert max_discrepancy(A @ x) <= ergodic_coefficient(A) * max_discrepancy(x) + 1e-10
        assert abs(ergodic_coefficient(A) - half_l1_coefficient(A)) <= 1e-12

    rng = np.random.default_rng(3003)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = random_structured(rng, n)
        assert is_sia(A) == power_sia_oracle(A)

    rng = np.random.default_rng(3004)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = random_structured(rng, n)
        assert set(roots(build_graph(A))) == bfs_roots(n, matrix_edges(A))

    rng = np.random.default_rng(3005)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        edges = random_strongly_connected_edges(rng, n)
        cyc = build_labelled_cycle(graph_of(n, edges), set(range(1, n + 1)))
        assert set(cyc.labels) == set(range(1, n + 1))
        for pos in range(1, cyc.length + 1):
            u = cyc.labels[pos - 1]
            v = cyc.labels[cycle_successor(cyc, pos) - 1]
            assert (u, v) in edges
        assert cyc.length <= n * (n - 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"


@criterion("3 synchronous non-convergence")
def test_criterion_3_synchronous(synchronous_run):
    result, elapsed = synchronous_run
    # oracle: the matrix keeps two unit-modulus eigenvalues, so its powers
    # cannot converge to a rank-one matrix; power iteration agrees
    A = bundled_matrix("six_node_coupled")
    moduli = np.abs(np.linalg.eigvals(A.entries))
    assert (moduli > 1.0 - 1e-9).sum() >= 2
    assert not power_sia_oracle(A.entries)
    assert result.consensus_fraction == 0.0
    assert elapsed < 5.0, f"synchronous run took {elapsed:.1f}s"


@criterion("4a global-clock consensus")
def test_criterion_4a_global_clock(global_clock_run):
    result, elapsed = global_clock_run
    assert result.consensus_fraction >= 0.99
    assert elapsed < 60.0, f"global-clock run took {elapsed:.1f}s"


@criterion("4b independent-clocks consensus")
def test_criterion_4b_independent_clocks(independent_clocks_run):
    result, elapsed = independent_clocks_run
    assert result.consensus_fraction >= 0.99
    assert elapsed < 60.0, f"independent-clocks run took {elapsed:.1f}s"


@criterion("5 condition checker")
def test_criterion_5_condition_checker():
    start = time.perf_counter()

    example_spec = SupportSequenceScheduler(4, [[
        ({1, 2, 4}, 1 / 3), ({1, 3, 4}, 1 / 3), ({2, 3}, 1 / 3),
    ]])
    report = check_conditions(example_spec, bundled_matrix("four_node_rooted"))
    assert report.passed
    assert report["joint_coverage"].witness["q"] == 1
    assert report["quasi_singleton"].witness["chi"] == [1, 2, 3]

    violating_spec = SupportSequenceScheduler(4, [
        [({1, 3}, 1.0)],
        [({1}, 0.5), ({3}, 0.5)],
        [({2, 4}, 1.0)],
        [({2}, 0.5), ({4}, 0.5)],
    ])
    report = check_conditions(violating_spec, bundled_matrix("four_node_ring"))
    for name in ("rooted", "positive_probability", "history_independent", "joint_coverage"):
        assert report[name].passed, name
    assert not report["quasi_singleton"].passed
    assert report["quasi_singleton"].witness["violations"][0]["intersection"] == [1, 3]

    rng = np.random.default_rng(3050)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = StochasticMatrix(random_rooted_stochastic(rng, n))
        assert check_conditions(GlobalClockScheduler(np.full(n, 1.0 / n)), A).passed
        p = rng.uniform(0.2, 0.8, n)
        assert check_conditions(IndependentClocksScheduler(p), A).passed

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"condition checks took {elapsed:.1f}s"


@criterion("6 strong-aperiodicity verdict")
def test_criterion_6_strongly_aperiodic():
    spec = GlobalClockScheduler([0.25, 0.25, 0.25, 0.25])
    chk = check_strongly_aperiodic(spec, bundled_matrix("four_node_rooted"))
    # a_11 = 0 and a_12 = 1: E[A_sigma(1,1) A_sigma(1,2)] = 0 < E[A_sigma(1,2)] = 1/4
    assert not chk.passed
    assert [1, 2] in chk.witness["pairs"]


@criterion("7 cycle-walk absorption bound")
def test_criterion_7_walk_bound():
    start = time.perf_counter()
    cycle = LabelledCycle(6, (1, 2, 4, 3, 2, 4))
    curve = match_probability_curve(cycle, gamma=0.2, k_max=200, trials=10_000, seed=701)
    assert (np.diff(curve.empirical) >= 0).all()
    assert curve.empirical[199] >= 0.95
    assert (curve.empirical >= curve.bound).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"walk experiment took {elapsed:.1f}s"


@criterion("8 contraction coherence and tail monotonicity")
def test_criterion_8_inline_coherence(synchronous_run, global_clock_run,
                                      independent_clocks_run):
    for result, _ in (synchronous_run, global_clock_run, independent_clocks_run):
        assert result.max_contraction_violation <= 1e-9
        assert result.max_lambda_increase <= 1e-10
        assert result.max_product_row_error <= 1e-10
        assert (np.diff(result.lambda_tail) <= 1e-12).all()
