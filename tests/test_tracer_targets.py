"""The span tracer's targets must exist in the library.

``perfbench/tracer.py`` resolves each ``TARGETS`` entry with ``getattr``
when a traced benchmark run starts, so a library change that removes one
makes every ``--trace 1`` run fail.  The table is read from the file's
source, without importing the tracer or installing it.  The tracer's work
counts are computed from a kernel's arguments and return value, so they
are checked against the per-trial walk and against the trajectory kernel's
calls in a real pipeline run; for that the module is loaded from its path,
and only that kernel and the mask sampler are wrapped.
"""
import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from async_dca import (ExperimentConfig, LabelledCycle, _kernels, bundled_matrix,
                       bundled_scheduler, montecarlo, run_experiment)
from _oracles import _WalkReplay, simulate_backward_walk

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("module, attr, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, attr, name):
    owner = importlib.import_module(f"async_dca.{module}")
    if "." in attr:
        # a method missing from the class is skipped; the class must exist
        cls_name, _ = attr.split(".")
        assert isinstance(getattr(owner, cls_name, None), type), f"{name}: no class {cls_name}"
    else:
        assert callable(getattr(owner, attr, None)), f"{name}: no function {attr}"


def _hook(name):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS[name]


def test_walk_hook_counts_the_transitions_the_walks_ran():
    hook = _hook("kernels.walk_match_batch")
    rng = np.random.default_rng(2027)
    cycle = LabelledCycle(6, (1, 4, 3, 4, 3, 6))
    move_probs = (0.2, 0.2, 0.3, 0.3)
    T, S = 40, 16
    starts = rng.integers(0, 6, size=(T, 2))
    uniforms = rng.random((T, S))
    # adjacent labels all differ, so moving both tokens never matches
    starts[:6] = np.column_stack([np.arange(6), (np.arange(6) + 1) % 6])
    uniforms[:6] = 0.99
    args = (np.array(cycle.labels), starts.copy(), uniforms, *np.cumsum(move_probs[:3]))
    hits = _kernels.walk_match_batch(*args)
    counts = defaultdict(int)
    hook(counts, args, {}, hits)
    ran = sum(len(simulate_backward_walk(cycle, 0.2, S + 1, _WalkReplay(start, row),
                                         move_probs=move_probs).positions) - 1
              for start, row in zip(starts, uniforms))
    assert counts["kernels.walk_match_batch.uniforms"] == T * S
    assert counts["kernels.walk_match_batch.trial_steps"] == ran
    assert (hits == 1).any() and (hits > 1).any() and (hits < 0).any()


@pytest.mark.parametrize("track_lambda", [True, False])
def test_trajectory_hook_counts_the_steps_the_pipeline_drew(monkeypatch, track_lambda):
    # the hook reads masks as args[1] in (T, K, n) layout and track_lambda
    # as args[3]; fed the pipeline's own calls over several blocks, it must
    # count every trial-step drawn, and no coefficient without lambda
    hook = _hook("kernels.trajectory_batch")
    T, n, B = 5, 6, 7
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"), bundled_scheduler("uniform_clock6"),
                           trials=T, horizon=60, seed=41, track_lambda=track_lambda)
    real_kernel, real_sample = _kernels.trajectory_batch, type(cfg.scheduler).sample_masks
    counts, drawn, calls = defaultdict(int), [], []

    def kernel(*args):
        out = real_kernel(*args)
        hook(counts, args, {}, out)
        calls.append(args[1].shape)
        return out

    def sample(self, steps, *args):
        drawn.append(steps)
        return real_sample(self, steps, *args)

    monkeypatch.setattr(_kernels, "trajectory_batch", kernel)
    monkeypatch.setattr(type(cfg.scheduler), "sample_masks", sample)
    monkeypatch.setattr(montecarlo, "MASK_BLOCK_BYTES", T * n * B)
    run_experiment(cfg)
    assert len(calls) == len(drawn) > 1
    assert calls == [(T, b, n) for b in drawn]
    steps = sum(drawn)
    assert counts["kernels.trajectory_batch.trial_steps"] == T * steps
    # the hook counts a (K + 1)-row series per call, carried row included
    assert counts["kernels.trajectory_batch.lambda_evals"] == (
        T * (steps + len(drawn)) if track_lambda else 0)
    assert counts["kernels.trajectory_batch.mask_bytes"] == T * B * n
    assert counts["kernels.trajectory_batch.series_bytes"] == 2 * T * (B + 1) * 8
