"""The streamed ``mc`` pipeline: blocks of draws, one resumable kernel.

Its outputs may not depend on the block size B, must equal the
whole-horizon draw and the trials-first kernel oracle bit for bit, and
nothing may be drawn past the block in which every trial reached an exact
fixed point.
"""
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import async_dca
from async_dca import _kernels
from async_dca import (
    ExperimentConfig,
    IndependentClocksScheduler,
    MarkovScheduler,
    ScriptScheduler,
    SupportSequenceScheduler,
    bundled_matrix,
    bundled_scheduler,
    montecarlo,
    run_experiment,
)
from async_dca.cli import dispatch
from async_dca.matrices import SCRAMBLING_TOL
from _oracles import draw_trial_inputs_full, trajectory_batch_trials_first
from _samplers import mc_inputs

DATA = Path(async_dca.__file__).resolve().parent / "data"
SIX = str(DATA / "six_node_coupled.json")


def _period3():
    return SupportSequenceScheduler(6, [
        [({1, 2, 3}, 0.5), ({4, 5, 6}, 0.5)],
        [({1, 4}, 0.25), ({2, 5}, 0.25), ({3, 6}, 0.5)],
        [({1, 2, 3, 4, 5, 6}, 1.0)],
    ])


WEIGHTED_TICKS = [[({1, 2, 3}, 0.5), ({4, 5, 6}, 0.5)]]


def _weighted():
    # the weight hook reads the previous tick, so it needs the carried history
    def weights(k, history):
        return [0.75, 0.25] if history and 1 in history[-1] else [0.25, 0.75]

    return SupportSequenceScheduler(6, WEIGHTED_TICKS, weight_fn=weights)


def weighted_picks(k, state, picked):
    # _weighted from the carried picks of the last tick: {1, 2, 3} is candidate 0
    return np.where((picked == 0)[:, None], [0.75, 0.25], [0.25, 0.75]), state


def _markov():
    return MarkovScheduler(
        6, states=[{1, 2}, {3, 4}, {5, 6}], initial={3, 4},
        matrix=[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
    )


SCHEDULERS = {
    "uniform_clock6": lambda: bundled_scheduler("uniform_clock6"),
    "half_clocks6": lambda: bundled_scheduler("half_clocks6"),
    "support-period3": _period3,
    "support-weight_fn": lambda: SupportSequenceScheduler(6, WEIGHTED_TICKS,
                                                          weight_fn=weighted_picks),
    "script-repeat": lambda: ScriptScheduler(6, [[1, 3], [2, 4, 6], [5]], repeat=True),
    "markov": _markov,
}
# what the scalar reference draws in place of a kind: the history-form hook
REFERENCE = {"support-weight_fn": _weighted}


def _cfg(name, trials=20, horizon=120, **kw):
    return ExperimentConfig(bundled_matrix("six_node_coupled"), SCHEDULERS[name](),
                            trials=trials, horizon=horizon, seed=31, **kw)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _with_block(monkeypatch, cfg, B):
    """Make the pipeline draw blocks of B steps for ``cfg``."""
    if B is not None:
        monkeypatch.setattr(montecarlo, "MASK_BLOCK_BYTES", B * cfg.trials * cfg.matrix.n)


def _as_reference(cfg, name):
    """``cfg`` with the scheduler the scalar reference draws for ``name``."""
    return dataclasses.replace(cfg, scheduler=REFERENCE.get(name, SCHEDULERS[name])())


def _reference(cfg, name):
    """The statistics of ``run_experiment`` from the whole-horizon draw and
    the trials-first kernel oracle, aggregated as means of indicators."""
    x0, masks = draw_trial_inputs_full(_as_reference(cfg, name))
    deltas, lams, _, viol_c, viol_m, row_err = trajectory_batch_trials_first(
        cfg.matrix.entries, masks, x0, cfg.track_lambda)
    return {
        "delta_tail": (deltas >= cfg.epsilon).mean(axis=0),
        "lambda_tail": (lams >= cfg.epsilon).mean(axis=0),
        "final_deltas": deltas[:, -1],
        "quantiles": np.quantile(deltas[:, -1], [0.0, 0.25, 0.5, 0.75, 1.0]),
        "maxima": [viol_c.max(), viol_m.max(), row_err.max()],
    }


def _stats(result):
    q = result.delta_quantiles
    return {
        "delta_tail": result.delta_tail,
        "lambda_tail": result.lambda_tail,
        "final_deltas": result.final_deltas,
        "quantiles": [q["min"], q["q25"], q["median"], q["q75"], q["max"]],
        "maxima": [result.max_contraction_violation, result.max_lambda_increase,
                   result.max_product_row_error],
    }


@pytest.mark.parametrize("B", [1, 2, 7, None], ids=["B1", "B2", "B7", "default"])
@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, name, track_lambda, B):
    cfg = _cfg(name, track_lambda=track_lambda)
    want = _reference(cfg, name)
    _with_block(monkeypatch, cfg, B)
    got = _stats(run_experiment(cfg))
    for key in want:
        assert np.array_equal(_bits(got[key]), _bits(want[key])), key


@pytest.mark.parametrize("trials", [1, 7, 50])
@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_bounded_state_hook_draws_the_history_hook_masks(seed, trials):
    # weighted_picks draws, in mc's order, the masks the history-form
    # _weighted draws trial by trial in the scalar reference
    cfg = dataclasses.replace(_cfg("support-weight_fn", trials=trials), seed=seed)
    x0, masks = mc_inputs(cfg)
    want_x0, want = draw_trial_inputs_full(_as_reference(cfg, "support-weight_fn"))
    assert np.array_equal(masks, want)
    assert np.array_equal(_bits(x0), _bits(want_x0))


@pytest.mark.parametrize("B", [1, 2, 7, None], ids=["B1", "B2", "B7", "default"])
def test_weight_hook_is_called_once_per_tick(monkeypatch, B):
    # one call per tick for all trials, whatever the blocks, in tick order
    calls = []

    def counted(k, state, picked):
        calls.append((k, picked.shape))
        return weighted_picks(k, state, picked)

    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"),
                           SupportSequenceScheduler(6, WEIGHTED_TICKS, weight_fn=counted),
                           trials=20, horizon=120, seed=31)
    _with_block(monkeypatch, cfg, B)
    run_experiment(cfg)
    assert calls == [(k, (20,)) for k in range(1, 121)]


def test_scrambling_rate_does_not_depend_on_the_block_size(monkeypatch):
    # the share of trials whose product is scrambling at step m is
    # 1 - lambda_tail[m] at epsilon 1 - SCRAMBLING_TOL
    cfg = _cfg("uniform_clock6", horizon=90, epsilon=1.0 - SCRAMBLING_TOL)
    want = run_experiment(cfg).lambda_tail
    assert 0.0 < want[20] < 1.0
    _with_block(monkeypatch, cfg, 7)
    assert np.array_equal(_bits(run_experiment(cfg).lambda_tail), _bits(want))


def test_blocked_draws_equal_the_whole_horizon_draw():
    # the tick offset and the carry pass across blocks of 7 ticks
    for name, make in SCHEDULERS.items():
        whole = make().sample_masks(100, async_dca.stream(3, 1), 5)
        scheduler, rng, carry = make(), async_dca.stream(3, 1), {}
        blocks = [scheduler.sample_masks(min(7, 100 - k), rng, 5, k, carry)
                  for k in range(0, 100, 7)]
        assert np.array_equal(np.concatenate(blocks), whole), name


def test_mc_clocks_draws_stop_with_the_block_of_the_fixed_point(monkeypatch):
    # mc-clocks (1000 x 5000 of half_clocks6, seed 1729): every state is a
    # fixed point from step 290 on, so the pipeline draws the blocks up to
    # the one holding step 290 and no further, one call for all trials each
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"),
                           bundled_scheduler("half_clocks6"),
                           trials=1000, horizon=5000, seed=1729, track_lambda=False)
    A = cfg.matrix.entries
    x0, masks = mc_inputs(ExperimentConfig(cfg.matrix, cfg.scheduler, trials=1000,
                                           horizon=290, seed=1729))
    for steps, fixed in ((289, False), (290, True)):
        x = trajectory_batch_trials_first(A, masks[:, :steps], x0, False)[2]
        assert np.array_equal(_bits(x @ A.T), _bits(x)) == fixed
    drawn = []
    real = IndependentClocksScheduler.sample_masks

    def counted(self, steps, rng, trials, *args):
        drawn.append((steps, trials))
        return real(self, steps, rng, trials, *args)

    monkeypatch.setattr(IndependentClocksScheduler, "sample_masks", counted)
    result = run_experiment(cfg)
    B = montecarlo.MASK_BLOCK_BYTES // (1000 * 6)
    assert drawn == [(B, 1000)] * -(-290 // B)
    assert result.consensus_fraction == 1.0


@pytest.mark.parametrize("B", [None, 7])
def test_one_stream_serves_every_trial(monkeypatch, B):
    # seed contract 3: one generator per run and one draw call per block
    cfg = _cfg("half_clocks6", trials=50, horizon=40)
    _with_block(monkeypatch, cfg, B)
    calls = {"stream": 0, "sample_masks": 0}
    real_stream, real_sample = montecarlo.stream, IndependentClocksScheduler.sample_masks

    def stream(*args):
        calls["stream"] += 1
        return real_stream(*args)

    def sample(*args, **kwargs):
        calls["sample_masks"] += 1
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "stream", stream)
    monkeypatch.setattr(IndependentClocksScheduler, "sample_masks", sample)
    run_experiment(cfg)
    assert calls == {"stream": 1, "sample_masks": 1 if B is None else -(-40 // 7)}


@pytest.mark.parametrize("scheduler, trials, track_lambda", [
    ("half_clocks6", 1000, False),
    # the product is dropped after step 436, so the last block steps the
    # states alone, at a longer chunk
    ("uniform_clock6", 200, True),
])
def test_outputs_do_not_depend_on_the_chunk_budget(monkeypatch, scheduler, trials,
                                                   track_lambda):
    # chunks of one step, the default, and a budget at which a chunk is the
    # whole block (of 43 and 218 steps) give the same tails and summaries
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"), bundled_scheduler(scheduler),
                           trials=trials, horizon=600, seed=1729, track_lambda=track_lambda)
    n = cfg.matrix.n
    B = montecarlo.MASK_BLOCK_BYTES // (trials * n)
    chunks, real = [], _kernels.trajectory_batch

    def kernel(A, masks, carry, track_lambda):
        out = real(A, masks, carry, track_lambda)
        chunks.append(len(carry.buffers[0]) - 1)
        return out

    monkeypatch.setattr(_kernels, "trajectory_batch", kernel)
    results = []
    # a step of the series and its restore words take at most 8 n (n + 2) T bytes
    for budget, want in ((1, {1}), (_kernels.SERIES_BYTES, None),
                         (8 * n * (n + 2) * trials * B, {B})):
        monkeypatch.setattr(_kernels, "SERIES_BYTES", budget)
        chunks.clear()
        results.append(run_experiment(cfg))
        assert want is None or set(chunks[:-1]) == want, budget
    want = results[0]
    assert want.product_steps == (436 if track_lambda else None)
    for got in results[1:]:
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        for key in ("delta_tail", "lambda_tail", "final_deltas"):
            assert np.array_equal(_bits(getattr(got, key)), _bits(getattr(want, key))), key


@pytest.mark.parametrize("track_lambda, trials",
                         [(True, 20), (False, 20), (True, 1), (False, 1)],
                         ids=["True", "False", "True-lone", "False-lone"])
def test_chunk_buffers_live_for_the_batch(monkeypatch, track_lambda, trials):
    # allocated per block they would be refaulted every block; the pipeline
    # frees them with its last block.  A lone trial's A_sigma group buffer,
    # ring of states and views into both are among them
    cfg = _cfg("uniform_clock6", trials=trials, horizon=120, track_lambda=track_lambda)
    _with_block(monkeypatch, cfg, 7)
    held, parts = [], []
    blocks = montecarlo.trajectory_blocks(cfg)
    next(blocks)  # step 0, before the kernel has run
    for _, _, _, carry in blocks:
        held.append(carry.buffers)
        parts.append(list(carry.buffers or ()))
    assert len(held) == -(-120 // 7) and held[-1] is None
    assert all(b is held[0] for b in held[:-1])
    assert all(x is y for p in parts[1:-1] for x, y in zip(p, parts[0], strict=True))
    assert len(held[0]) == (7 if track_lambda else 5)
    if trials > 1:
        # the restore mask holds one word per agent, step and trial,
        # broadcast over the m columns of Q; no other buffer takes the
        # series' shape
        series, mask, *rest = parts[0]
        C, n, m, T = len(series) - 1, *series.shape[1:]
        assert mask.dtype == np.uint64 and mask.shape == (C, n, 1, T)
        assert not any(isinstance(b, np.ndarray) and b.shape[-3:] == (n, m, T)
                       and b.size >= C * n * m * T for b in rest)


def _traced_peak(cfg):
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_clocks_memory_stays_bounded():
    # mc-clocks without lambda, measured by tracemalloc: the tick-major
    # draw never holds more than a block of masks (MASK_BLOCK_BYTES), one
    # buffer of uniforms and the kernel's carry and chunk buffers
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"),
                           bundled_scheduler("half_clocks6"),
                           trials=1000, horizon=5000, seed=1729, track_lambda=False)
    assert _traced_peak(cfg) < 2 * 2 ** 20


def test_mc_lambda_memory_stays_bounded():
    # mc-lambda: a block's two (B + 1, T) series are returned with its
    # masks, so all three scale with MASK_BLOCK_BYTES
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"),
                           bundled_scheduler("uniform_clock6"),
                           trials=200, horizon=5000, seed=1729)
    assert _traced_peak(cfg) < 3 * 2 ** 20


def _script(tmp_path, sets, repeat=False):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"kind": "script",
                                "params": {"n": 4, "sets": sets, "repeat": repeat}}))
    return str(path)


def test_short_script_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    # with A = 1 1^T / 4 one synchronous step is an exact fixed point, so
    # blocks of one step would stop drawing long before the script runs
    # out; the script is checked against the whole horizon all the same
    averaging = tmp_path / "avg.json"
    averaging.write_text(json.dumps({"n": 4, "rows": [[0.25] * 4] * 4}))
    script = _script(tmp_path, [[1, 2, 3, 4]] * 3)
    monkeypatch.setattr(montecarlo, "MASK_BLOCK_BYTES", 1)
    out = tmp_path / "tails.csv"
    code = dispatch(["mc", "--matrix", str(averaging), "--scheduler", script,
                     "--trials", "3", "--steps", "10", "--out", str(out),
                     "--summary", str(tmp_path / "summary.json")])
    captured = capsys.readouterr()
    assert code == 2 and "exhausted" in captured.err
    assert not out.exists() and not (tmp_path / "summary.json").exists()
    code = dispatch(["simulate", "--matrix", str(averaging), "--scheduler", script,
                     "--steps", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and "exhausted" in captured.err
    assert not out.exists()
    code = dispatch(["mc", "--matrix", str(averaging), "--scheduler", script,
                     "--trials", "3", "--steps", "3", "--out", str(out),
                     "--summary", str(tmp_path / "summary.json")])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["mc", "--scheduler", str(DATA / "uniform_clock6.json"), "--trials", "1"],
    ["simulate", "--scheduler", str(DATA / "uniform_clock6.json")],
], ids=["mc", "simulate"])
def test_oversized_request_exits_2_without_a_traceback(tmp_path, capsys, argv):
    # 10**15 steps of per-step counts need 8 PB, beyond any address space,
    # so the allocation fails before any draw whatever the overcommit policy
    out = tmp_path / "out.csv"
    code = dispatch([*argv, "--matrix", SIX, "--steps", str(10 ** 15), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("async-dca: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()
