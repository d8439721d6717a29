import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from async_dca import _kernels
from async_dca import (
    ExperimentConfig,
    StochasticMatrix,
    bundled_matrix,
    bundled_scheduler,
    ergodic_coefficient,
    initial_state,
    max_discrepancy,
    step,
    stream,
)
from async_dca.montecarlo import _draw_trial_inputs
from _oracles import trajectory_batch_trials_first
from _samplers import random_stochastic

ROOT = Path(__file__).resolve().parents[1]

BACKENDS = ["numpy"] + (["numba"] if _kernels.HAS_NUMBA else [])


def _random_inputs(seed, trials=6, steps=40, n=5):
    rng = np.random.default_rng(seed)
    A = random_stochastic(rng, n)
    masks = rng.random((trials, steps, n)) < 0.4
    x0 = rng.uniform(-1.0, 1.0, (trials, n))
    return A, masks, x0


def test_backends_agree_on_trajectories():
    if len(BACKENDS) < 2:
        pytest.skip("numba unavailable")
    A, masks, x0 = _random_inputs(1)
    out_np = _kernels.get_backend("numpy")["trajectory_batch"](A, masks, x0, True)
    out_nb = _kernels.get_backend("numba")["trajectory_batch"](A, masks, x0, True)
    for a, b in zip(out_np, out_nb):
        assert np.allclose(a, b, atol=1e-12, rtol=0)


def _coupled_inputs(scheduler):
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"), bundled_scheduler(scheduler),
                           trials=12, horizon=300, seed=1729)
    x0, masks = _draw_trial_inputs(cfg)
    return cfg.matrix.entries, masks, x0


def _random_inputs_with_extremes(n):
    rng = np.random.default_rng(100 + n)
    A = random_stochastic(rng, n)
    masks = rng.random((9, 60, n)) < rng.uniform(0.1, 0.9)
    masks[:, 10] = False  # no agent updates
    masks[:, 20] = True   # every agent updates
    x0 = rng.uniform(-1.0, 1.0, (9, n))
    return A, masks, x0


ORACLE_CASES = [
    pytest.param(lambda: _coupled_inputs("uniform_clock6"), id="uniform_clock6"),
    pytest.param(lambda: _coupled_inputs("half_clocks6"), id="half_clocks6"),
] + [
    pytest.param(lambda n=n: _random_inputs_with_extremes(n), id=f"random-n{n}")
    for n in range(1, 8)
]


@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("make_inputs", ORACLE_CASES)
def test_numpy_kernel_matches_trials_first_oracle(make_inputs, track_lambda):
    A, masks, x0 = make_inputs()
    got = _kernels.get_backend("numpy")["trajectory_batch"](A, masks, x0, track_lambda)
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_backends_agree_on_walks():
    if len(BACKENDS) < 2:
        pytest.skip("numba unavailable")
    rng = np.random.default_rng(2)
    labels = np.array([1, 2, 4, 3, 2, 4])
    starts = rng.integers(0, 6, (300, 2))
    uniforms = rng.random((300, 99))
    args = (labels, starts, uniforms, 0.2, 0.4, 0.7)
    hits_np = _kernels.get_backend("numpy")["walk_match_batch"](*args)
    hits_nb = _kernels.get_backend("numba")["walk_match_batch"](*args)
    assert np.array_equal(hits_np, hits_nb)


@pytest.mark.parametrize("backend", BACKENDS)
def test_trajectory_kernel_matches_engine(backend):
    # the per-step engine is an independent implementation of the same
    # dynamics; the kernel must reproduce its deltas and coefficients
    A_arr, masks, x0 = _random_inputs(3, trials=4, steps=25, n=4)
    kern = _kernels.get_backend(backend)["trajectory_batch"]
    deltas, lams, x_final, viol_c, viol_m, row_err = kern(A_arr, masks, x0, True)
    A = StochasticMatrix(A_arr)
    for t in range(masks.shape[0]):
        state = initial_state(x0[t])
        assert deltas[t, 0] == pytest.approx(max_discrepancy(x0[t]), abs=1e-12)
        for k in range(masks.shape[1]):
            members = frozenset(int(j) + 1 for j in np.nonzero(masks[t, k])[0])
            state = step(state, A, members)
            assert deltas[t, k + 1] == pytest.approx(state.delta(), abs=1e-9)
            assert lams[t, k + 1] == pytest.approx(
                ergodic_coefficient(state.product), abs=1e-9
            )
        assert np.allclose(x_final[t], state.x, atol=1e-9)
    assert viol_c.max() <= 1e-9
    assert viol_m.max() <= 1e-10
    assert row_err.max() <= 1e-10


@pytest.mark.parametrize("backend", BACKENDS)
def test_trajectory_kernel_lambda_off(backend):
    A, masks, x0 = _random_inputs(4)
    kern = _kernels.get_backend(backend)["trajectory_batch"]
    full = kern(A, masks, x0, True)
    lean = kern(A, masks, x0, False)
    assert np.array_equal(full[0], lean[0])  # same deltas
    assert (lean[1] == 1.0).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_walk_kernel_respects_initial_matches(backend):
    labels = np.array([1, 2, 1, 2])
    starts = np.array([[0, 2], [0, 1], [1, 1]])
    uniforms = np.full((3, 10), 0.99)  # always move both: distance never changes
    kern = _kernels.get_backend(backend)["walk_match_batch"]
    hits = kern(labels, starts, uniforms, 0.2, 0.4, 0.7)
    assert hits[0] == 1          # labels equal at start
    assert hits[1] == -1         # odd distance on alternating labels never matches
    assert hits[2] == 1          # identical positions


def test_env_flag_selects_backend():
    code = "import async_dca; print(async_dca.backend_name())"
    for choice in BACKENDS:
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"ASYNC_DCA_KERNELS": choice, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
        )
        assert out.stdout.strip() == choice, out.stderr
    bad = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={"ASYNC_DCA_KERNELS": "cuda", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
    )
    assert bad.returncode != 0
    assert "ASYNC_DCA_KERNELS" in bad.stderr


def test_default_backend_prefers_numba():
    if not _kernels.HAS_NUMBA:
        pytest.skip("numba unavailable")
    assert _kernels.backend_name() in ("numba", "numpy")


def test_bench_kernels_script_runs():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--trials", "4", "--steps", "50", "--walk-trials", "20", "--walk-steps", "10"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert out.returncode == 0, out.stderr


def test_cli_module_runs_simulate():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    data = ROOT / "src" / "async_dca" / "data"
    out = subprocess.run(
        [sys.executable, "-m", "async_dca.cli", "simulate",
         "--matrix", str(data / "six_node_coupled.json"),
         "--scheduler", str(data / "uniform_clock6.json"), "--steps", "20", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "k,delta,lambda_product"
    assert len(out.stdout.splitlines()) == 21
