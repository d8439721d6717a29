import json

import numpy as np
import pytest

from async_dca import (
    ColumnStochasticMatrix,
    StochasticMatrix,
    ValidationError,
    DimensionError,
    bundled_matrix,
    ergodic_coefficient,
    is_scrambling,
    max_discrepancy,
)
from _oracles import (
    half_l1_coefficient,
    pairwise_min_coefficient,
    rows_share_support,
    zero_one_discrepancy_sup,
)
from _samplers import random_stochastic, random_structured


def test_max_discrepancy_basics():
    assert max_discrepancy([3.5, 3.5, 3.5]) == 0.0
    assert max_discrepancy([0.0, 1.0]) == 1.0
    assert max_discrepancy([0.3, -0.2, 0.5]) == pytest.approx(0.7, abs=1e-15)


def test_max_discrepancy_rejects_empty_and_2d():
    with pytest.raises(DimensionError):
        max_discrepancy([])
    with pytest.raises(DimensionError):
        max_discrepancy([[1.0, 0.0]])


def test_ergodic_coefficient_identity_and_rank_one():
    assert ergodic_coefficient(np.eye(2)) == 1.0
    xi = np.array([0.2, 0.5, 0.3])
    rank_one = np.tile(xi, (3, 1))
    assert ergodic_coefficient(rank_one) == 0.0


def test_ergodic_coefficient_partial_update_matrix():
    A = np.array([[0, 1, 0], [0, 1, 0], [0, 0.7, 0.3]])
    lam = ergodic_coefficient(A)
    assert lam == pytest.approx(pairwise_min_coefficient(A), abs=1e-15)
    assert lam == pytest.approx(0.3, abs=1e-12)


def test_ergodic_coefficient_single_agent_convention():
    assert ergodic_coefficient(np.array([[1.0]])) == 0.0


def test_ergodic_coefficient_rejects_non_stochastic():
    with pytest.raises(ValidationError):
        ergodic_coefficient(np.array([[0.5, 0.6], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        ergodic_coefficient(np.array([[-0.1, 1.1], [1.0, 0.0]]))


def test_is_scrambling():
    assert is_scrambling(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert not is_scrambling(np.eye(2))
    six = bundled_matrix("six_node_coupled")
    assert not is_scrambling(six)
    assert rows_share_support(six.entries) is False


def test_validation_reports_offending_row():
    with pytest.raises(ValidationError, match="row 2"):
        StochasticMatrix(np.array([[1.0, 0.0], [0.6, 0.6]]))
    with pytest.raises(ValidationError, match="row 1"):
        StochasticMatrix(np.array([[-0.5, 1.5], [0.5, 0.5]]))


def test_stochastic_matrix_rejects_non_finite_entries():
    # NaN fails every comparison, so no sign or row-sum test catches it
    with pytest.raises(ValidationError, match="row 1, column 1"):
        StochasticMatrix(np.array([[np.nan, 1.0], [0.5, 0.5]]))
    with pytest.raises(ValidationError, match="row 2, column 2"):
        StochasticMatrix.from_json({"n": 2, "rows": [[0.0, 1.0], [1.0, float("nan")]]})


def test_column_stochastic_matrix_rejects_non_finite_entries():
    with pytest.raises(ValidationError, match="non-finite"):
        ColumnStochasticMatrix(np.array([[np.nan, 0.5], [1.0, 0.5]]))


def test_entries_are_read_only():
    A = bundled_matrix("two_node_swap")
    with pytest.raises(ValueError):
        A.entries[0, 0] = 0.5


def test_json_round_trip(tmp_path):
    A = bundled_matrix("three_node_chain")
    path = tmp_path / "m.json"
    A.save(path)
    B = StochasticMatrix.load(path)
    assert np.array_equal(A.entries, B.entries)
    with pytest.raises(ValidationError):
        StochasticMatrix.from_json({"n": 2, "rows": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        StochasticMatrix.from_json({"rows": [[1.0]]})
    payload = json.loads(path.read_text())
    assert payload["n"] == 3


def test_min_positive_entry():
    assert bundled_matrix("three_node_chain").min_positive_entry() == pytest.approx(0.2)
    assert bundled_matrix("six_node_coupled").min_positive_entry() == 0.5


def test_submultiplicative_over_random_pairs():
    rng = np.random.default_rng(2024_01)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        A1 = random_stochastic(rng, n)
        A2 = random_stochastic(rng, n)
        lam12 = ergodic_coefficient(A1 @ A2)
        assert lam12 <= ergodic_coefficient(A1) * ergodic_coefficient(A2) + 1e-10


def test_discrepancy_contraction_over_random_pairs():
    rng = np.random.default_rng(2024_02)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        A = random_structured(rng, n)
        x = rng.uniform(-5.0, 5.0, n)
        assert max_discrepancy(A @ x) <= ergodic_coefficient(A) * max_discrepancy(x) + 1e-10


def test_agrees_with_half_l1_oracle():
    rng = np.random.default_rng(2024_03)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        A = random_structured(rng, n)
        assert ergodic_coefficient(A) == pytest.approx(half_l1_coefficient(A), abs=1e-12)


def test_variational_identity_on_binary_vectors():
    # the sup of Delta(Ax) over Delta(x) = 1 is attained on 0/1 indicators
    rng = np.random.default_rng(2024_04)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        A = random_structured(rng, n)
        assert ergodic_coefficient(A) == pytest.approx(
            zero_one_discrepancy_sup(A), abs=1e-10
        )
