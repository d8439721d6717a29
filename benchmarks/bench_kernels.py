#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Runs the two hot kernels on representative workloads, checks that both
backends agree, and prints a timing table.  The trajectory kernel is timed
on three shapes: random masks (``--trials`` x ``--steps``, lambda tracked),
the ``simulate`` shape (one trial of ``--simulate-steps`` on uniform_clock6,
lambda tracked) and the ``mc-clocks`` shape (``--clocks-trials`` x
``--steps`` on half_clocks6, no lambda).  Select the backend used by the
library itself with ASYNC_DCA_KERNELS; this script always times both.

Usage: python benchmarks/bench_kernels.py [--trials 200] [--steps 5000]
       [--simulate-steps 16000] [--clocks-trials 1000]
"""
import argparse
import time

import numpy as np

from async_dca import ExperimentConfig, _kernels
from async_dca.datasets import bundled_matrix, bundled_scheduler
from async_dca.montecarlo import _draw_trial_inputs
from async_dca.rng import stream


def time_call(fn, *args, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _random_masks(trials, steps):
    n = bundled_matrix("six_node_coupled").n
    masks = np.empty((trials, steps, n), dtype=bool)
    x0 = np.empty((trials, n))
    for t in range(trials):
        rng = stream(2718, t)
        x0[t] = rng.uniform(-1.0, 1.0, n)
        masks[t] = rng.random((steps, n)) < 0.5
    return x0, masks


def _scheduled_masks(scheduler, trials, steps):
    # the CLI's own draws: how soon a run reaches its exact fixed point, and
    # so how much of the horizon the numpy kernel skips, depends on them
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"), bundled_scheduler(scheduler),
                           trials=trials, horizon=steps, seed=1729)
    return _draw_trial_inputs(cfg)


def bench_trajectories(trials, steps, simulate_steps, clocks_trials):
    A = bundled_matrix("six_node_coupled").entries
    shapes = [
        ("trajectory_batch", _random_masks(trials, steps), True),
        ("trajectory_batch/simulate", _scheduled_masks("uniform_clock6", 1, simulate_steps), True),
        ("trajectory_batch/mc-clocks", _scheduled_masks("half_clocks6", clocks_trials, steps), False),
    ]
    rows = []
    for label, (x0, masks), track in shapes:
        T, K, _ = masks.shape
        outputs = {}
        for name in ("numpy", "numba"):
            if name == "numba" and not _kernels.HAS_NUMBA:
                continue
            fn = _kernels.get_backend(name)["trajectory_batch"]
            fn(A, masks[:2, :50], x0[:2], track)  # warmup / JIT
            elapsed, out = time_call(fn, A, masks, x0, track)
            rows.append((f"{label} {T}x{K}{'' if track else ' no-lambda'}[{name}]", elapsed))
            outputs[name] = out
        if len(outputs) == 2:
            for a, b in zip(outputs["numpy"], outputs["numba"]):
                assert np.allclose(a, b, atol=1e-10, rtol=0), "backend disagreement"
    return rows


def bench_walks(trials, steps):
    labels = np.array([1, 2, 4, 3, 2, 4])
    starts = np.empty((trials, 2), dtype=np.int64)
    uniforms = np.empty((trials, steps))
    for t in range(trials):
        rng = stream(3141, t)
        starts[t] = rng.integers(0, 6, 2)
        uniforms[t] = rng.random(steps)
    rows = []
    outputs = {}
    for name in ("numpy", "numba"):
        if name == "numba" and not _kernels.HAS_NUMBA:
            continue
        fn = _kernels.get_backend(name)["walk_match_batch"]
        fn(labels, starts[:2], uniforms[:2, :10], 0.2, 0.4, 0.7)  # warmup / JIT
        elapsed, out = time_call(fn, labels, starts, uniforms, 0.2, 0.4, 0.7)
        rows.append((f"walk_match_batch[{name}]", elapsed))
        outputs[name] = out
    if len(outputs) == 2:
        assert np.array_equal(outputs["numpy"], outputs["numba"]), "backend disagreement"
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--simulate-steps", type=int, default=16_000)
    parser.add_argument("--clocks-trials", type=int, default=1000)
    parser.add_argument("--walk-trials", type=int, default=10_000)
    parser.add_argument("--walk-steps", type=int, default=200)
    args = parser.parse_args()

    print(f"default backend: {_kernels.backend_name()}  (numba available: {_kernels.HAS_NUMBA})")
    rows = []
    rows += bench_trajectories(args.trials, args.steps, args.simulate_steps, args.clocks_trials)
    rows += bench_walks(args.walk_trials, args.walk_steps)

    width = max(len(name) for name, _ in rows)
    print(f"\n{'kernel':<{width}}  best of 3")
    for name, elapsed in rows:
        print(f"{name:<{width}}  {elapsed * 1e3:9.1f} ms")
    by_kernel = {}
    for name, elapsed in rows:
        kernel, backend = name[:-1].split("[")
        by_kernel.setdefault(kernel, {})[backend] = elapsed
    for kernel, timings in by_kernel.items():
        if len(timings) == 2:
            print(f"{kernel}: numba speedup x{timings['numpy'] / timings['numba']:.1f}")
    print("\nbackends agree on all outputs")


if __name__ == "__main__":
    main()
