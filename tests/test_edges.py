"""Edge cases across modules: tiny systems, bad inputs, bundled data."""
import numpy as np
import pytest

from async_dca import (
    ColumnStochasticMatrix,
    ExperimentConfig,
    GlobalClockScheduler,
    IndependentClocksScheduler,
    LabelledCycle,
    StochasticMatrix,
    ValidationError,
    bundled_matrix,
    bundled_scheduler,
    run_experiment,
    match_probability_curve,
    stream,
)
from async_dca.cli import dispatch
from async_dca.datasets import BUNDLED_MATRICES, BUNDLED_SCHEDULERS
from async_dca.engine import TrajectoryState
from _oracles import simulate_backward_walk


def test_single_agent_experiment():
    cfg = ExperimentConfig(
        matrix=StochasticMatrix(np.array([[1.0]])),
        scheduler=GlobalClockScheduler([1.0]),
        trials=3,
        horizon=10,
        seed=8,
    )
    res = run_experiment(cfg)
    assert res.consensus_fraction == 1.0
    assert (res.delta_tail == 0.0).all()
    assert (res.lambda_tail == 0.0).all()


def test_column_stochastic_validation():
    ColumnStochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError, match="column 1"):
        ColumnStochasticMatrix(np.array([[0.5, 1.0], [0.4, 0.0]]))
    with pytest.raises(ValidationError):
        ColumnStochasticMatrix(np.array([[1.5, 1.0], [-0.5, 0.0]]))


def test_trajectory_state_rejects_bad_vectors():
    with pytest.raises(Exception):
        TrajectoryState(k=1, x=np.zeros((2, 2)), product=None)
    with pytest.raises(Exception):
        TrajectoryState(k=1, x=np.array([]), product=None)


def test_scheduler_probability_validation():
    with pytest.raises(ValidationError):
        GlobalClockScheduler([0.5, 0.4])
    with pytest.raises(ValidationError):
        GlobalClockScheduler([-0.5, 1.5])
    with pytest.raises(ValidationError):
        IndependentClocksScheduler([0.5, 1.5])


def test_walk_position_validation():
    cyc = LabelledCycle(4, (1, 2, 3, 4))
    with pytest.raises(Exception):
        simulate_backward_walk(cyc, 0.2, 10, stream(1, 0), i1=5, j1=1)
    with pytest.raises(ValidationError):
        match_probability_curve(cyc, 0.2, 0, 10, seed=1)
    with pytest.raises(ValidationError):
        match_probability_curve(cyc, 0.2, 10, 0, seed=1)


def test_all_bundled_data_loads():
    for name in BUNDLED_MATRICES:
        A = bundled_matrix(name)
        assert A.n >= 1
    for name in BUNDLED_SCHEDULERS:
        scheduler = bundled_scheduler(name)
        assert scheduler.n == 6
    with pytest.raises(ValidationError):
        bundled_matrix("no_such_matrix")
    with pytest.raises(ValidationError):
        bundled_scheduler("no_such_scheduler")


def test_walk_cli_source_validation(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    bundled_matrix("six_node_coupled").save(matrix)
    cycle = tmp_path / "c.json"
    cycle.write_text('{"length": 3, "labels": [1, 2, 3]}')
    code = dispatch(["walk", "--cycle", str(cycle), "--auto-from-matrix", str(matrix),
                     "--gamma", "0.2"])
    capsys.readouterr()
    assert code == 2

    unrooted = tmp_path / "u.json"
    StochasticMatrix(np.eye(2)).save(unrooted)
    code = dispatch(["walk", "--auto-from-matrix", str(unrooted), "--gamma", "0.2"])
    err = capsys.readouterr().err
    assert code == 2 and "not rooted" in err


def test_scheduler_json_missing_params(tmp_path, capsys):
    bad = tmp_path / "s.json"
    bad.write_text('{"kind": "global_clock", "params": {}}')
    matrix = tmp_path / "m.json"
    bundled_matrix("two_node_swap").save(matrix)
    code = dispatch(["verify-conditions", "--matrix", str(matrix),
                     "--scheduler", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "malformed" in err
