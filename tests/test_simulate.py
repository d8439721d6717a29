"""``async-dca simulate`` runs the streamed ``mc`` pipeline with one trial.

Golden checks: its CSV must match the per-tick engine loop it replaced
(``_oracles.simulate_rows_engine``) byte for byte on dyadic matrices, and
its columns must equal ``mc --trials 1`` for the same seed.  Neither
``simulate`` nor ``repro`` calls the per-step ``engine.step``.
"""
import csv
import io
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import async_dca
from async_dca import (
    ExperimentConfig,
    GlobalClockScheduler,
    ScriptScheduler,
    StochasticMatrix,
    bundled_matrix,
    bundled_scheduler,
    engine,
    montecarlo,
)
from async_dca import _kernels
from async_dca.cli import dispatch
from _oracles import draw_trial_inputs_full, simulate_rows_engine, trajectory_batch_trials_first
from _samplers import random_stochastic

DATA = Path(async_dca.__file__).resolve().parent / "data"
SIX = str(DATA / "six_node_coupled.json")


def _simulate(tmp_path, *argv):
    out = tmp_path / "run.csv"
    code = dispatch(["simulate", *argv, "--out", str(out)])
    return code, out


def _columns(text):
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), -1)


@pytest.mark.parametrize("seed", [7, 1729])
@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("sched", ["uniform_clock6", "half_clocks6", "synchronous6"])
def test_simulate_matches_engine_oracle_on_bundled(tmp_path, sched, track, seed):
    steps = 400
    argv = ["--matrix", SIX, "--scheduler", str(DATA / f"{sched}.json"),
            "--steps", str(steps), "--seed", str(seed)]
    code, out = _simulate(tmp_path, *argv, *([] if track else ["--no-product"]))
    assert code == 0
    expected = simulate_rows_engine(bundled_matrix("six_node_coupled"),
                                    bundled_scheduler(sched), steps, seed, track=track)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("steps", [4096, 4097])
@pytest.mark.parametrize("track", [True, False])
def test_simulate_csv_is_whole_across_its_row_chunks(tmp_path, steps, track):
    # rows are written 4096 at a time: one whole chunk, and one more row
    argv = ["--matrix", SIX, "--scheduler", str(DATA / "uniform_clock6.json"),
            "--steps", str(steps), "--seed", "7"]
    code, out = _simulate(tmp_path, *argv, *([] if track else ["--no-product"]))
    assert code == 0
    expected = simulate_rows_engine(bundled_matrix("six_node_coupled"),
                                    bundled_scheduler("uniform_clock6"), steps, 7, track=track)
    assert out.read_bytes() == expected.encode()


def test_simulate_csv_builds_no_whole_horizon_rows(tmp_path):
    # 16000 rows as Python lists of floats and tuples take about 1.7 MiB at
    # their peak; written in chunks, the run stays below 1.5 MiB
    argv = ["--matrix", SIX, "--scheduler", str(DATA / "uniform_clock6.json")]
    _simulate(tmp_path, *argv, "--steps", "10")  # lazy imports and caches
    tracemalloc.start()
    try:
        code, _ = _simulate(tmp_path, *argv, "--steps", "16000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.5 * 2 ** 20


def test_simulate_schedule_and_x0_files_match_engine_oracle(tmp_path):
    swap = tmp_path / "swap.json"
    bundled_matrix("two_node_swap").save(swap)
    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps([[2], [1]]))
    code, out = _simulate(tmp_path, "--matrix", str(swap), "--schedule", str(schedule),
                          "--seed", "9")
    assert code == 0
    expected = simulate_rows_engine(bundled_matrix("two_node_swap"),
                                    ScriptScheduler(2, [[2], [1]]), 2, 9)
    assert out.read_bytes() == expected.encode()

    x0 = [0.3, -1.25, 2.0, 0.5, 0.0, 1.0]
    x0_path = tmp_path / "x0.json"
    x0_path.write_text(json.dumps(x0))
    code, out = _simulate(tmp_path, "--matrix", SIX,
                          "--scheduler", str(DATA / "half_clocks6.json"),
                          "--steps", "300", "--x0", str(x0_path), "--seed", "5")
    assert code == 0
    expected = simulate_rows_engine(bundled_matrix("six_node_coupled"),
                                    bundled_scheduler("half_clocks6"), 300, 5, x0=x0)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("sched", ["uniform_clock6", "half_clocks6"])
def test_simulate_equals_mc_with_one_trial(tmp_path, sched):
    # the series of mc --trials 1 from the scalar reference draws and the
    # trials-first kernel oracle
    steps, seed = 400, 7
    code, out = _simulate(tmp_path, "--matrix", SIX,
                          "--scheduler", str(DATA / f"{sched}.json"),
                          "--steps", str(steps), "--seed", str(seed))
    assert code == 0
    cols = _columns(out.read_text())
    cfg = ExperimentConfig(matrix=bundled_matrix("six_node_coupled"),
                           scheduler=bundled_scheduler(sched),
                           trials=1, horizon=steps, seed=seed)
    x0, masks = draw_trial_inputs_full(cfg)
    deltas, lams, _, _, _, _ = trajectory_batch_trials_first(cfg.matrix.entries, masks, x0)
    assert np.array_equal(cols[:, 0], np.arange(1, steps + 1))
    assert np.array_equal(cols[:, 1], deltas[0, 1:])
    assert np.array_equal(cols[:, 2], lams[0, 1:])


@pytest.mark.parametrize("track", [True, False])
def test_simulate_equals_mc_with_one_trial_on_a_non_dyadic_matrix(tmp_path, track):
    steps, seed = 300, 11
    A = StochasticMatrix(random_stochastic(np.random.default_rng(99), 6, density=1.0))
    matrix = tmp_path / "m.json"
    A.save(matrix)
    code, out = _simulate(tmp_path, "--matrix", str(matrix),
                          "--scheduler", str(DATA / "half_clocks6.json"),
                          "--steps", str(steps), "--seed", str(seed),
                          *([] if track else ["--no-product"]))
    assert code == 0
    cols = _columns(out.read_text())
    cfg = ExperimentConfig(matrix=A, scheduler=bundled_scheduler("half_clocks6"),
                           trials=1, horizon=steps, seed=seed, track_lambda=track)
    x0, masks = draw_trial_inputs_full(cfg)
    deltas, lams, _, _, _, _ = trajectory_batch_trials_first(A.entries, masks, x0, track)
    assert np.array_equal(cols[:, 1].view(np.uint64), deltas[0, 1:].view(np.uint64))
    if track:
        assert np.array_equal(cols[:, 2].view(np.uint64), lams[0, 1:].view(np.uint64))
    # mc --trials 1 ends where simulate ends
    result = montecarlo.run_experiment(cfg)
    assert np.array_equal(result.final_deltas.view(np.uint64), cols[-1:, 1].view(np.uint64))


def test_simulate_random_matrices_match_engine_oracle(tmp_path):
    # Non-dyadic entries: the kernel updates every row with A @ X where the
    # engine multiplied only the updating rows, so values may differ by ulps.
    rng = np.random.default_rng(2026_10)
    for case in range(12):
        n = int(rng.integers(2, 21))
        A = StochasticMatrix(random_stochastic(rng, n, density=0.5))
        matrix = tmp_path / f"m{case}.json"
        A.save(matrix)
        spec = {"kind": "independent_clocks", "params": {"p": [0.4] * n}}
        clocks = tmp_path / f"s{case}.json"
        clocks.write_text(json.dumps(spec))
        code, out = _simulate(tmp_path, "--matrix", str(matrix), "--scheduler", str(clocks),
                              "--steps", "150", "--seed", str(case))
        assert code == 0
        got = _columns(out.read_text())
        expected = _columns(
            simulate_rows_engine(A, async_dca.scheduler_from_json(spec), 150, case))
        assert got.shape == expected.shape == (150, 3)
        assert np.array_equal(got[:, 0], expected[:, 0])
        assert got[:, 1:] == pytest.approx(expected[:, 1:], abs=1e-12)


def test_simulate_product_row_error_exits_2(tmp_path, capsys, monkeypatch):
    real = _kernels.trajectory_batch

    def drifting(*args):
        deltas, lams, carry = real(*args)
        carry.row_err[:] = 1e-9
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", drifting)
    code, out = _simulate(tmp_path, "--matrix", SIX,
                          "--scheduler", str(DATA / "uniform_clock6.json"), "--steps", "50")
    assert code == 2
    assert "row sum" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, owner, name, calls):
    """Count calls to ``owner.name`` however a caller looks it up: on a class,
    or in every async_dca module that imported the function by name."""
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return
    for key, mod in list(sys.modules.items()):
        if key == "async_dca" or key.startswith("async_dca."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)


def test_simulate_runs_one_kernel_call(tmp_path, monkeypatch):
    calls = {"trajectory_batch": 0, "sample_masks": 0, "step": 0}
    _count_calls(monkeypatch, _kernels, "trajectory_batch", calls)
    _count_calls(monkeypatch, engine, "step", calls)
    _count_calls(monkeypatch, GlobalClockScheduler, "sample_masks", calls)
    code, out = _simulate(tmp_path, "--matrix", SIX,
                          "--scheduler", str(DATA / "uniform_clock6.json"), "--steps", "500")
    assert code == 0
    assert len(out.read_text().splitlines()) == 501
    assert calls == {"trajectory_batch": 1, "sample_masks": 1, "step": 0}


def test_repro_all_makes_no_engine_step_calls(tmp_path, monkeypatch):
    calls = {"trajectory_batch": 0, "step": 0}
    _count_calls(monkeypatch, _kernels, "trajectory_batch", calls)
    _count_calls(monkeypatch, engine, "step", calls)
    code = dispatch(["repro", "all", "--out", str(tmp_path / "repro.json")])
    assert code == 0
    # four script replays and three Monte Carlo replays, one kernel call each
    # (every Monte Carlo horizon fits in one block)
    assert calls == {"trajectory_batch": 7, "step": 0}


def test_simulate_short_script_exits_before_writing(tmp_path, capsys):
    swap = tmp_path / "swap.json"
    bundled_matrix("two_node_swap").save(swap)
    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps([[2], [1]]))
    code = dispatch(["simulate", "--matrix", str(swap), "--schedule", str(schedule),
                     "--steps", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exhausted" in captured.err
    assert captured.out == ""
