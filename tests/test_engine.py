"""The per-step reference ``engine.step`` and the kernel's script runs.

The replays run a fixed script as one kernel call
(``montecarlo._run_script``); ``_oracles.run_script_steps`` folds
``engine.step`` over the same script, and the two must reach the same
state and product.
"""
import numpy as np
import pytest

from async_dca import (
    BUNDLED_MATRICES,
    DimensionError,
    StochasticMatrix,
    ValidationError,
    bundled_matrix,
    ergodic_coefficient,
    initial_state,
    max_discrepancy,
    normalize_update_set,
    step,
)
from async_dca import _kernels
from async_dca.montecarlo import _run_script
from _oracles import make_async_matrix, run_script_steps
from _samplers import random_stochastic

# the scripts of the example2, example3, coverage_violation and
# period3_markov replays, with their initial states
REPLAY_SCRIPTS = [
    ("five_node_shift", [5, 4, 1, 2, 3], np.arange(5, dtype=float)),
    ("two_node_swap", [2, 1], np.array([0.25, -0.75])),
    ("four_node_ring", [{1, 3}, {2, 4}], np.arange(4, dtype=float)),
    ("three_node_cycle", [3, 2, 1], np.arange(3, dtype=float)),
]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _dyadic(A):
    return bool((np.mod(A.entries * 2.0 ** 10, 1.0) == 0.0).all())


def test_normalize_update_set():
    assert normalize_update_set(2, 3) == frozenset({2})
    assert normalize_update_set({2}, 3) == frozenset({2})
    assert normalize_update_set([3, 1], 3) == frozenset({1, 3})
    with pytest.raises(ValidationError):
        normalize_update_set({4}, 3)
    with pytest.raises(ValidationError):
        normalize_update_set(0, 3)


def test_make_async_matrix_single_and_pair():
    A = bundled_matrix("three_node_chain")
    A2 = make_async_matrix(A, 2)
    assert np.array_equal(A2.entries, np.array([[1, 0, 0], [0.2, 0.8, 0], [0, 0, 1]]))
    A13 = make_async_matrix(A, {1, 3})
    assert np.array_equal(A13.entries, np.array([[0, 1, 0], [0, 1, 0], [0, 0.7, 0.3]]))


def test_make_async_matrix_boundary_sets():
    A = bundled_matrix("three_node_chain")
    assert np.array_equal(make_async_matrix(A, frozenset()).entries, np.eye(3))
    assert np.array_equal(make_async_matrix(A, {1, 2, 3}).entries, A.entries)


def test_step_empty_set_is_identity():
    A = bundled_matrix("three_node_chain")
    state = initial_state([1.0, -1.0, 0.5])
    after = step(state, A, frozenset())
    assert np.array_equal(after.x, state.x)
    assert np.array_equal(after.product.entries, np.eye(3))
    assert after.k == 2


def test_step_dimension_mismatch():
    A = bundled_matrix("three_node_chain")
    with pytest.raises(DimensionError):
        step(initial_state([1.0, 2.0]), A, 1)


@pytest.mark.parametrize("name, sets, x1", REPLAY_SCRIPTS, ids=[s[0] for s in REPLAY_SCRIPTS])
def test_run_script_matches_step_reference_on_replay_scripts(name, sets, x1):
    A = bundled_matrix(name)
    x, product = _run_script(A, sets, x1)
    ref = run_script_steps(A, sets, x1)
    assert np.array_equal(_bits(x), _bits(ref.x))
    assert np.array_equal(_bits(product.entries), _bits(ref.product.entries))


@pytest.mark.parametrize("name", BUNDLED_MATRICES)
def test_run_script_matches_step_reference_on_bundled(name):
    # Products match bit for bit on every matrix.  The reference updates the
    # state with a matrix-vector product of the updating rows, the kernel as
    # one column of a matrix-matrix product, so with the non-dyadic weights
    # of three_node_chain the states may differ in the last bit.
    A = bundled_matrix(name)
    rng = np.random.default_rng(2026_11)
    for _ in range(40):
        sets = [frozenset(int(j) + 1 for j in np.nonzero(rng.random(A.n) < 0.5)[0])
                for _ in range(int(rng.integers(0, 60)))]
        x1 = rng.uniform(-1.0, 1.0, A.n)
        x, product = _run_script(A, sets, x1)
        ref = run_script_steps(A, sets, x1)
        assert np.array_equal(_bits(product.entries), _bits(ref.product.entries))
        if _dyadic(A):
            assert np.array_equal(_bits(x), _bits(ref.x))
        else:
            assert np.abs(x - ref.x).max() <= 1e-15


def test_script_product_is_left_product_of_async_factors():
    # the later factor stands on the left
    A = bundled_matrix("three_node_chain")
    _, product = _run_script(A, [{1}, {2, 3}], np.zeros(3))
    expected = make_async_matrix(A, {2, 3}).entries @ make_async_matrix(A, {1}).entries
    assert np.allclose(product.entries, expected, rtol=0.0, atol=1e-15)
    swap = bundled_matrix("two_node_swap")
    _, product = _run_script(swap, [2, 1], np.zeros(2))
    assert np.array_equal(product.entries,
                          make_async_matrix(swap, 1).entries @ make_async_matrix(swap, 2).entries)


def test_run_script_rejects_product_row_error(monkeypatch):
    real = _kernels.trajectory_batch

    def drifting(*args):
        deltas, lams, carry = real(*args)
        carry.row_err[:] = 1e-9
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", drifting)
    with pytest.raises(ValidationError, match="row sum"):
        _run_script(bundled_matrix("two_node_swap"), [2, 1], np.zeros(2))


def test_swap_script_reaches_consensus():
    swap = bundled_matrix("two_node_swap")
    x1 = np.array([0.3, -0.9])
    x, product = _run_script(swap, [2, 1], x1)
    assert np.array_equal(product.entries, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(x, np.array([x1[0], x1[0]]))
    assert max_discrepancy(x) == 0.0


def test_five_node_script_product():
    five = bundled_matrix("five_node_shift")
    _, product = _run_script(five, [5, 4, 1, 2, 3], np.arange(5, dtype=float))
    expected = np.array([
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(product.entries, expected)


def test_pair_script_product_on_ring():
    ring = bundled_matrix("four_node_ring")
    _, product = _run_script(ring, [{1, 3}, {2, 4}], np.arange(4, dtype=float))
    expected = np.array([
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float)
    assert np.array_equal(product.entries, expected)


def test_empty_schedule():
    A = bundled_matrix("three_node_chain")
    x, product = _run_script(A, [], [0.0, 1.0, 2.0])
    assert np.array_equal(x, [0.0, 1.0, 2.0])
    assert np.array_equal(product.entries, np.eye(3))
    state = run_script_steps(A, [], [0.0, 1.0, 2.0])
    assert state.k == 1
    assert np.array_equal(state.product.entries, np.eye(3))


def test_repeated_single_agent_update_closed_form():
    # row 1 averages itself with row 2, so k repeats leave exactly 2^-k mass
    # on the first column; every entry is a dyadic rational, so equality is
    # exact in binary floating point
    A = bundled_matrix("three_node_lazy_cycle")
    for k in (1, 2, 5, 12, 20):
        expected = np.array([
            [0.5 ** k, 1.0 - 0.5 ** k, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        _, product = _run_script(A, [{1}] * k, np.zeros(3))
        assert np.array_equal(product.entries, expected)
        assert np.array_equal(run_script_steps(A, [{1}] * k, np.zeros(3)).product.entries,
                              expected)


def test_track_product_off():
    A = bundled_matrix("three_node_chain")
    state = run_script_steps(A, [1, 2, 3], [0.5, 1.5, -2.0], track_product=False)
    assert state.product is None
    assert state.k == 4


def test_trajectory_invariants_random_runs():
    rng = np.random.default_rng(2024_20)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = StochasticMatrix(random_stochastic(rng, n))
        x1 = rng.uniform(-2.0, 2.0, n)
        state = initial_state(x1)
        prev_delta = max_discrepancy(x1)
        prev_lam = ergodic_coefficient(state.product)
        for _ in range(30):
            members = frozenset(
                int(j) + 1 for j in np.nonzero(rng.random(n) < 0.5)[0]
            )
            state = step(state, A, members)
            # row stochasticity preserved at every step
            assert np.abs(state.product.entries.sum(axis=1) - 1.0).max() <= 1e-10
            # discrepancy never grows: each update is a convex combination
            delta = max_discrepancy(state.x)
            assert delta <= prev_delta + 1e-12
            prev_delta = delta
            # coefficient of the running product never grows
            lam = ergodic_coefficient(state.product)
            assert lam <= prev_lam + 1e-10
            prev_lam = lam
            # the product reproduces the state from the initial condition
            assert np.abs(state.product.entries @ x1 - state.x).max() <= 1e-9
