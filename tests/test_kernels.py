import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from async_dca import _kernels
from async_dca import (
    ExperimentConfig,
    LabelledCycle,
    StochasticMatrix,
    bundled_matrix,
    bundled_scheduler,
    ergodic_coefficient,
    max_discrepancy,
    stream,
)
from async_dca.engine import initial_state, step
from async_dca.rng import UNIFORM_BUFFER_BYTES
from _oracles import (
    _WalkReplay,
    ergodic_batch_trials_first,
    simulate_backward_walk,
    sum_in_order,
    trajectory_batch_trials_first,
)
from _samplers import mc_inputs, random_stochastic

ROOT = Path(__file__).resolve().parents[1]


def _random_inputs(seed, trials=6, steps=40, n=5):
    rng = np.random.default_rng(seed)
    A = random_stochastic(rng, n)
    masks = rng.random((trials, steps, n)) < 0.4
    x0 = rng.uniform(-1.0, 1.0, (trials, n))
    return A, masks, x0


def _coupled_inputs(scheduler, trials=12, horizon=300, seed=1729):
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"), bundled_scheduler(scheduler),
                           trials=trials, horizon=horizon, seed=seed)
    x0, masks = mc_inputs(cfg)
    return cfg.matrix.entries, masks, x0


def _random_inputs_with_extremes(n):
    rng = np.random.default_rng(100 + n)
    A = random_stochastic(rng, n)
    masks = rng.random((9, 60, n)) < rng.uniform(0.1, 0.9)
    masks[:, 10] = False  # no agent updates
    masks[:, 20] = True   # every agent updates
    x0 = rng.uniform(-1.0, 1.0, (9, n))
    return A, masks, x0


def _chunk_inputs(T, K, n=6):
    """Random dense inputs whose horizon K sits at a chunk boundary case."""
    rng = np.random.default_rng(1000 + 7 * T + K)
    A = random_stochastic(rng, n, density=1.0)
    masks = rng.random((T, K, n)) < 0.4
    x0 = rng.uniform(-1.0, 1.0, (T, n))
    return A, masks, x0


def _slow_inputs(T=7, K=590, n=6):
    # non-dyadic and mixing slowly: no state is a fixed point within K steps
    rng = np.random.default_rng(47)
    A = 0.99 * np.eye(n) + 0.01 * random_stochastic(rng, n, density=1.0)
    masks = rng.random((T, K, n)) < 0.4
    return A, masks, rng.uniform(-1.0, 1.0, (T, n))


def _consensus_start_inputs():
    # x0 = 0 is fixed from the start, but the product keeps moving: only
    # the product's own fixed-point test may stop a run that tracks lambda
    A, masks, x0 = _slow_inputs()
    return A, masks, np.zeros_like(x0)


def _chunk(T, n=6):
    return _kernels.CHUNK_BYTES // (8 * n * T)


def _averaging_inputs(T=50, K=300, n=4):
    # A = 1 1^T / n is dyadic and idempotent: once every agent has updated,
    # x and the product are fixed points bit for bit, so the kernel exits
    rng = np.random.default_rng(31)
    masks = rng.random((T, K, n)) < 0.3
    return np.full((n, n), 1.0 / n), masks, rng.uniform(-1.0, 1.0, (T, n))


def _signed_zero_inputs(T=3, n=4):
    # agent 1 holds -0.0 and first updates after the first chunk; A @ x reads
    # +0.0 there, so an exit test that took -0.0 == 0.0 would stop too early
    # and leave the sign of the final state wrong
    C = _chunk(T, n)
    K = 2 * C + 3
    masks = np.zeros((T, K, n), dtype=bool)
    masks[:, :, 1:] = True
    masks[:, C + 2, 0] = True
    x0 = np.tile([-0.0, 0.0, -0.0, 0.0], (T, 1))
    return np.full((n, n), 1.0 / n), masks, x0


def _kept_negative_zero_inputs(T):
    # agent 1 starts at -0.0 and never updates, agent 3 starts at -0.0 and
    # updates now and then: a kept -0.0 must stay -0.0 to the final state
    rng = np.random.default_rng(61)
    A = random_stochastic(rng, 5, density=1.0)
    masks = rng.random((T, 300, 5)) < 0.4
    masks[:, :, 0] = False
    x0 = rng.uniform(-1.0, 1.0, (T, 5))
    x0[:, [0, 2]] = -0.0
    return A, masks, x0


def _certified_inputs():
    # 200 trials of uniform_clock6: from about step 800 lambda reads +0.0
    # for all but a few trials
    return _coupled_inputs("uniform_clock6", trials=200, horizon=1500)


ORACLE_CASES = [
    pytest.param(lambda: _coupled_inputs("uniform_clock6"), id="uniform_clock6"),
    pytest.param(lambda: _coupled_inputs("half_clocks6"), id="half_clocks6"),
    pytest.param(lambda: _coupled_inputs("half_clocks6", trials=1000, horizon=600),
                 id="mc-clocks-exits"),
    pytest.param(_averaging_inputs, id="averaging-exits"),
    pytest.param(_signed_zero_inputs, id="signed-zeros"),
    pytest.param(lambda: _signed_zero_inputs(T=1), id="signed-zeros-T1"),
    pytest.param(lambda: _kept_negative_zero_inputs(1), id="kept-negative-zero-T1"),
    pytest.param(lambda: _kept_negative_zero_inputs(3), id="kept-negative-zero-T3"),
    pytest.param(_slow_inputs, id="slow-never-exits"),
    pytest.param(_consensus_start_inputs, id="consensus-start"),
    pytest.param(lambda: _chunk_inputs(200, 3 * _chunk(200, 1) + 5, n=1), id="n1-multichunk"),
    pytest.param(_certified_inputs, id="mostly-certified"),
] + [
    pytest.param(lambda n=n: _random_inputs_with_extremes(n), id=f"random-n{n}")
    for n in (*range(1, 8), 8, 10, 12)
] + [
    pytest.param(lambda T=T, dk=dk, mul=mul: _chunk_inputs(T, max(0, mul * _chunk(T) + dk)),
                 id=f"chunk-T{T}-K{label}")
    for T in (1, 7, 200)
    for label, mul, dk in (("0", 0, 0), ("1", 0, 1), ("C-1", 1, -1), ("C", 1, 0),
                           ("C+1", 1, 1), ("3C+5", 3, 5))
]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _run_blocks(A, masks, x0, track_lambda, B=None):
    """The kernel run over blocks of B steps (default: the whole horizon as
    one block), in the trials-first oracle's layout: the initial row and the
    block rows concatenated and padded by the last row up to the horizon,
    the final states and the three check maxima.  Also returns the kernel
    calls made.
    """
    T, K, _ = masks.shape
    B = B or max(K, 1)
    carry, calls = _kernels.Carry(x0, track_lambda), 0
    rows = [(carry.d0[None], carry.lam[None])]
    for k0 in range(0, K, B):
        deltas, lams, carry = _kernels.trajectory_batch(A, masks[:, k0:k0 + B], carry,
                                                        track_lambda)
        rows.append((deltas, lams))
        calls += 1
        if carry.fixed:
            break
    series = []
    for s in map(np.concatenate, zip(*rows)):
        assert len(s) == K + 1 or carry.fixed
        series.append(np.concatenate([s, np.repeat(s[-1:], K + 1 - len(s), axis=0)]).T)
    out = (*series, carry.x.T, carry.viol_contract, carry.viol_mono, carry.row_err)
    return out, calls


@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("make_inputs", ORACLE_CASES)
def test_numpy_kernel_matches_trials_first_oracle(make_inputs, track_lambda):
    A, masks, x0 = make_inputs()
    got, _ = _run_blocks(A, masks, x0, track_lambda)
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))  # -0.0 and 0.0 differ


@pytest.mark.parametrize("track_lambda, signed_zeros",
                         [(True, False), (False, False), (True, True), (False, True)],
                         ids=["True", "False", "True-signed-zeros", "False-signed-zeros"])
def test_lone_trial_equals_trial_zero_of_a_wider_batch(track_lambda, signed_zeros):
    # a trial's bits may not depend on the batch it runs in, on every
    # matrix; a one-column state product would go through gemv, which
    # rounds differently from the gemm of a wider batch on non-dyadic A,
    # and from n = 8 on numpy sums a lone trial's contiguous columns pairwise.
    # With signed zeros, agent 1 keeps its start of -0.0 and agent 2 starts
    # at -0.0, which the lone trial's identity rows would read as +0.0
    rng = np.random.default_rng(2027)
    for n in [6] * 20 + list(range(8, 17)):
        A = random_stochastic(rng, n, density=1.0)
        masks = rng.random((3, 120, n)) < 0.4
        x0 = rng.uniform(-1.0, 1.0, (3, n))
        if signed_zeros:
            masks[:, :, 0] = False
            x0[:, :2] = -0.0
        lone, _ = _run_blocks(A, masks[:1], x0[:1], track_lambda)
        wide, _ = _run_blocks(A, masks, x0, track_lambda)
        for g, w in zip(lone, wide):
            assert np.array_equal(_bits(g), _bits(w[:1]))


class _CountingNumpy:
    """Stands in for numpy inside ``_kernels``, counting ``matmul``,
    ``putmask`` and ``bitwise_xor`` calls."""

    def __init__(self):
        self.matmuls = 0
        self.putmasks = 0
        self.xors = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)

    def putmask(self, *args, **kwargs):
        self.putmasks += 1
        return np.putmask(*args, **kwargs)

    def bitwise_xor(self, *args, **kwargs):
        self.xors += 1
        return np.bitwise_xor(*args, **kwargs)


def _count_calls(monkeypatch):
    """Count the kernel's numpy calls and exit tests from here on."""
    counting = _CountingNumpy()
    monkeypatch.setattr(_kernels, "np", counting)
    real, tests = _kernels._fixed, []

    def counted(*args):
        tests.append(None)
        return real(*args)

    monkeypatch.setattr(_kernels, "_fixed", counted)
    return counting, tests


@pytest.mark.parametrize("make_inputs, track_lambda, exits", [
    pytest.param(lambda: _coupled_inputs("half_clocks6", trials=1000, horizon=600),
                 False, True, id="mc-clocks"),
    pytest.param(_averaging_inputs, True, True, id="averaging-lambda"),
    pytest.param(_averaging_inputs, False, True, id="averaging"),
    pytest.param(_slow_inputs, True, False, id="slow-lambda"),
    pytest.param(_slow_inputs, False, False, id="slow"),
    pytest.param(_consensus_start_inputs, True, False, id="consensus-start-lambda"),
    pytest.param(_consensus_start_inputs, False, True, id="consensus-start"),
])
def test_numpy_kernel_stops_at_an_exact_fixed_point(monkeypatch, make_inputs,
                                                    track_lambda, exits):
    A, masks, x0 = make_inputs()
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    counting, tests = _count_calls(monkeypatch)
    got, _ = _run_blocks(A, masks, x0, track_lambda)
    K = masks.shape[1]
    # x and the product step as one array: one matmul a step, with or
    # without lambda, and one for each exit test
    assert (counting.matmuls < K) == exits
    if not exits:
        assert counting.matmuls == K + len(tests)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("T", [1, 3])
def test_lone_trial_steps_by_its_ticks_own_matrix(monkeypatch, T, track_lambda):
    # a lone trial steps by A_sigma, one matmul a step and no blend; a
    # batch steps by A and restores the kept rows by a bit blend, two XORs
    # a step, and neither calls putmask
    A, masks, x0 = _slow_inputs(T=T, K=300)
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    counting, tests = _count_calls(monkeypatch)
    got, calls = _run_blocks(A, masks, x0, track_lambda, B=70)
    K = masks.shape[1]
    assert calls == 5 and len(tests) >= calls
    assert counting.matmuls == K + len(tests)
    assert counting.putmasks == 0
    assert counting.xors == (0 if T == 1 else 2 * K)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def _coin_flip_extreme_inputs(T, K=150, n=6):
    # coin-flip masks; agent 1 keeps -0.0 throughout, agents 2 and 3 keep
    # the least subnormal and 1e308 for the first half of the horizon
    rng = np.random.default_rng(7300 + T)
    A = random_stochastic(rng, n, density=1.0)
    masks = rng.random((T, K, n)) < 0.5
    masks[:, :, 0] = False
    masks[:, :K // 2, 1:3] = False
    x0 = rng.uniform(-1.0, 1.0, (T, n))
    x0[:, :3] = -0.0, 5e-324, 1e308
    return A, masks, x0


@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("T", [1, 2, 3, 64])
def test_blend_restores_kept_rows_bit_for_bit(T, track_lambda):
    # the kept rows come back by an XOR/AND/XOR blend of the uint64 views:
    # -0.0, subnormals and huge values must return bit for bit.  A lone
    # trial that starts with -0.0 is not stepped by A_sigma, so it is
    # blended too
    A, masks, x0 = _coin_flip_extreme_inputs(T)
    assert not _kernels.Carry(x0, track_lambda).lone
    got, _ = _run_blocks(A, masks, x0, track_lambda, B=40)
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))
    assert np.array_equal(_bits(got[2][:, 0]), _bits(np.full(T, -0.0)))


class _NaNFilledNumpy:
    """Stands in for numpy inside ``_kernels``: float arrays from ``empty``
    start as NaN, so a row read before it is written shows in the maxima."""

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        out = np.empty(shape, dtype)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out


def test_block_stopped_at_a_fixed_point_finishes_only_the_rows_that_ran(monkeypatch):
    # the averaging inputs are an exact fixed point within the first chunk
    # of 40 steps, so the one block of 300 stops part-way; its coefficients
    # and checks are finished from the rows that ran, and no unwritten row
    # (NaN here) reaches lams or the maxima
    A, masks, x0 = _averaging_inputs()
    monkeypatch.setattr(_kernels, "np", _NaNFilledNumpy())
    deltas, lams, carry = _kernels.trajectory_batch(A, masks, _kernels.Carry(x0, True), True)
    K = masks.shape[1]
    assert carry.fixed and len(lams) < K
    want = trajectory_batch_trials_first(A, masks, x0, True)
    R = len(lams)
    assert np.array_equal(_bits(deltas.T), _bits(want[0][:, 1:R + 1]))
    assert np.array_equal(_bits(lams.T), _bits(want[1][:, 1:R + 1]))
    for got, w in zip((carry.viol_contract, carry.viol_mono, carry.row_err), want[3:]):
        assert np.array_equal(_bits(got), _bits(w))


def test_trajectory_kernel_matches_engine():
    # the per-step engine is an independent implementation of the same
    # dynamics; the kernel must reproduce its deltas and coefficients
    A_arr, masks, x0 = _random_inputs(3, trials=4, steps=25, n=4)
    (deltas, lams, x_final, viol_c, viol_m, row_err), _ = _run_blocks(A_arr, masks, x0, True)
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


def test_trajectory_kernel_lambda_off():
    A, masks, x0 = _random_inputs(4)
    full, _ = _run_blocks(A, masks, x0, True)
    lean, _ = _run_blocks(A, masks, x0, False)
    assert np.array_equal(full[0], lean[0])  # same deltas
    assert (lean[1] == 1.0).all()
    assert not lean[3].any() and not lean[4].any() and not lean[5].any()


BLOCK_CASES = [
    pytest.param(lambda: _coupled_inputs("uniform_clock6"), id="uniform_clock6"),
    pytest.param(_averaging_inputs, id="averaging-exits"),
    pytest.param(_signed_zero_inputs, id="signed-zeros"),
    pytest.param(_slow_inputs, id="slow-never-exits"),
    pytest.param(_consensus_start_inputs, id="consensus-start"),
    pytest.param(_certified_inputs, id="mostly-certified"),
    pytest.param(lambda: _random_inputs_with_extremes(1), id="random-n1"),
    # rounding lets lambda rise by an ulp here, so viol_mono must see the
    # coefficient carried across each block boundary
    pytest.param(lambda: _random_inputs_with_extremes(5), id="random-n5"),
]


def _block_size(label, K, C):
    return {"1": 1, "7": 7, "C-1": C - 1, "C": C, "C+1": C + 1,
            "K-1": K - 1, "K": K, "K+1": K + 1}[label]


@pytest.mark.parametrize("block", ["1", "7", "C-1", "C", "C+1", "K-1", "K", "K+1"])
@pytest.mark.parametrize("track_lambda", [True, False])
@pytest.mark.parametrize("make_inputs", BLOCK_CASES)
def test_blocked_kernel_matches_trials_first_oracle(make_inputs, track_lambda, block):
    # the horizon K is one step short of, equal to and one step past a
    # block (B = K+1, K, K-1), and blocks cut across the kernel's chunks
    A, masks, x0 = make_inputs()
    T, K, n = masks.shape
    B = _block_size(block, K, _chunk(T, n))
    got, calls = _run_blocks(A, masks, x0, track_lambda, B)
    want = trajectory_batch_trials_first(A, masks, x0, track_lambda)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))
    assert calls <= -(-K // B)


def test_exit_inside_the_first_block_draws_no_second_block():
    # 1000 x 600 of half_clocks6 (chunks of one step) is a fixed point from
    # step 290.  The backed-off test fails after step 276 and is next due
    # after step 293, past a first block of 290 steps: the test at the end
    # of the block finds the fixed point, so no second block is run
    A, masks, x0 = _coupled_inputs("half_clocks6", trials=1000, horizon=600)
    got, calls = _run_blocks(A, masks, x0, False, B=290)
    want = trajectory_batch_trials_first(A, masks, x0, False)
    assert calls == 1
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def test_exit_test_backs_off_on_the_mc_lambda_shape(monkeypatch):
    # mc-lambda (200 x 5000 of uniform_clock6 with lambda): the states are
    # fixed from about step 840, the products never within the horizon.
    # Testing after every one of the 834 chunks makes more than 800 _fixed
    # calls; the backed-off schedule makes fewer than 100 and changes no bit.
    cfg = ExperimentConfig(bundled_matrix("six_node_coupled"),
                           bundled_scheduler("uniform_clock6"),
                           trials=200, horizon=5000, seed=1729)
    x0, masks = mc_inputs(cfg)
    A = cfg.matrix.entries
    real, calls = _kernels._fixed, []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(_kernels, "_fixed", counted)
    backed_off, _ = _run_blocks(A, masks, x0, True, B=873)
    assert len(calls) < 100
    monkeypatch.setattr(_kernels, "TEST_BACKOFF", 10 ** 9)  # test after every chunk
    calls.clear()
    every_chunk, _ = _run_blocks(A, masks, x0, True, B=873)
    assert len(calls) > 800
    for g, w in zip(backed_off, every_chunk):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("T", [1, 2, 3, 200])
def test_column_sums_add_left_to_right(T):
    # numpy sums a contiguous axis pairwise from eight terms on; the
    # kernel's column sums (over the strided columns of a Q series) and the
    # oracle's must both equal a plain float loop, whatever T
    rng = np.random.default_rng(55 + T)
    for k in range(1, 17):
        Qs = rng.random((2, 3, k + 1, T)) * 10.0 ** rng.integers(-8, 9, (2, 3, k + 1, T))
        P = Qs[:, :, 1:]
        want = np.empty((2, 3, T))
        for idx in np.ndindex(2, 3, T):
            s = float(P[idx[0], idx[1], 0, idx[2]])
            for j in range(1, k):
                s += float(P[idx[0], idx[1], j, idx[2]])
            want[idx] = s
        got = _kernels._reduce_left(np.add, P, np.empty((2, 3, T)))
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(sum_in_order(P.swapaxes(2, 3))), _bits(want))


def _near_rank_one_products(rng, n, T, steps=8):
    """(steps, n, n, T) stack of the powers A^k of a random A around the
    first k at which the oracle's lambda reads +0.0, each entry moved by
    -1, 0 or +1 ulp at random, with a zero column whose zeros carry random
    signs (n > 2)."""
    A = random_stochastic(rng, n, density=1.0)
    if n > 2:
        A[:, -1] = 0.0
        A /= A.sum(axis=1, keepdims=True)
    powers, P = [], np.eye(n)
    while len(powers) < 400:
        P = A @ P
        powers.append(P)
        if ergodic_batch_trials_first(P[None])[0] == 0.0:
            break
    for _ in range(steps // 2 - 1):
        P = A @ P
        powers.append(P)
    exact = np.repeat(np.array(powers[-steps:])[..., None], T, axis=3)
    ulp = rng.integers(-1, 2, exact.shape)
    Ps = np.where(ulp > 0, np.nextafter(exact, np.inf), exact)
    Ps = np.where(ulp < 0, np.nextafter(exact, -np.inf), Ps)
    zero = exact == 0.0
    Ps[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, zero.sum()))
    return Ps


def test_shared_mass_gives_the_oracle_lambda_bit_for_bit():
    # on near-rank-one products, moved by an ulp either way around the step
    # where lambda first reads 0, clip(1 - s, 0, 1) of the shared mass must
    # be the oracle's lambda bit for bit on every entry, whether a stack of
    # steps is folded into the trials (G T values a row; T = 1 with G > 1
    # reaches n >= 8, where a contiguous numpy sum would go pairwise) or
    # reduced one step at a time (G T = 1 at T = 1)
    rng = np.random.default_rng(404)
    zeros = checked = 0
    for n in range(1, 13):
        pairs = np.triu_indices(n, 1)
        for T in (1, 3, 200):
            Ps = _near_rank_one_products(rng, n, T)
            steps = len(Ps)
            Q = np.concatenate([rng.uniform(-1.0, 1.0, (steps, n, 1, T)), Ps], axis=2)
            work = (np.empty((2, steps * len(pairs[0]) * (n + 1) * T)),
                    np.empty(steps * len(pairs[0]) * T))
            want = ergodic_batch_trials_first(
                Ps.transpose(0, 3, 1, 2).reshape(-1, n, n)).reshape(steps, T)
            for G in (steps, 1):
                s = np.empty((steps, T))
                for g in range(0, steps, G):
                    _kernels._shared_mass(Q[g:g + G], pairs, work, s[g:g + G])
                lam = np.clip(1.0 - s, 0.0, 1.0)
                assert np.array_equal(_bits(lam), _bits(want)), (n, T, G)
            zeros += (want == 0.0).sum()
            checked += want.size
    # lambda straddles 0 on these inputs, so both sides are exercised
    assert 0 < zeros < checked


def test_walk_kernel_respects_initial_matches():
    labels = np.array([1, 2, 1, 2])
    starts = np.array([[0, 2], [0, 1], [1, 1]])
    uniforms = np.full((3, 10), 0.99)  # always move both: distance never changes
    hits = _kernels.walk_match_batch(labels, starts, uniforms, 0.2, 0.4, 0.7)
    assert hits[0] == 1          # labels equal at start
    assert hits[1] == -1         # odd distance on alternating labels never matches
    assert hits[2] == 1          # identical positions


def test_walk_kernel_advances_starts_to_the_block_end():
    # matched or not, each walk ends where the per-trial walk over the same
    # draws ends; a matched one stays where it matched
    rng = np.random.default_rng(2026_12)
    cycle = LabelledCycle(7, (1, 2, 3, 4, 2, 5, 3))
    move_probs = (0.2, 0.25, 0.25, 0.3)
    t1, t2, t3 = np.cumsum(move_probs[:3])
    starts = rng.integers(0, 7, size=(300, 2))
    uniforms = rng.random((300, 9))
    ends = starts.copy()
    hits = _kernels.walk_match_batch(np.array(cycle.labels), ends, uniforms, t1, t2, t3)
    for t in range(300):
        walk = simulate_backward_walk(cycle, 0.2, 10, _WalkReplay(starts[t], uniforms[t]),
                                      move_probs=move_probs)
        assert (ends[t] + 1).tolist() == walk.positions[-1].tolist()
        assert hits[t] == (walk.hit_time or -1)
    assert (hits > 1).any() and (hits < 0).any()


def _walk_oracle(cycle, move_probs, starts, uniforms):
    """Hits and 0-based end positions, one plain walk per trial."""
    hits, ends = [], []
    for start, row in zip(starts, uniforms):
        walk = simulate_backward_walk(cycle, 0.01, uniforms.shape[1] + 1,
                                      _WalkReplay(start, row), move_probs=move_probs)
        hits.append(walk.hit_time or -1)
        ends.append((walk.positions[-1] - 1).tolist())
    return np.array(hits), np.array(ends, dtype=np.int64).reshape(-1, 2)


def _walk_inputs(l, S, T, move_probs, seed):
    """Labels, starts and uniforms that hit the kernel's edge cases.

    Labels repeat, so walks match at distinct positions; trial 0 starts
    matched; whole rows of 0.99 move both tokens; single entries sit exactly
    on the three thresholds and at 0.  Trial 1 moves both tokens at every
    transition from adjacent positions, whose labels differ for l in
    {2, 7}, so it never matches and steps back S times.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, 13, size=l) if l > 7 else (1, 2, 3, 4, 2, 5, 3)[:l]
    cycle = LabelledCycle(l, tuple(int(v) for v in labels))
    starts = rng.integers(0, l, size=(T, 2))
    starts[0] = (l - 1, l - 1)
    uniforms = rng.random((T, S))
    uniforms[1::5] = 0.99
    thresholds = np.cumsum(move_probs[:3])
    edges = np.append(thresholds, 0.0)
    mask = rng.random((T, S)) < 0.1
    uniforms[mask] = rng.choice(edges, size=int(mask.sum()))
    starts[1] = (0, 1 % l)
    uniforms[1] = 0.99
    return cycle, starts, uniforms, thresholds


_MOVE_LAWS = [(0.25, 0.25, 0.25, 0.25), (0.2, 0.5, 0.0, 0.3), (0.6, 0.1, 0.0, 0.3),
              (0.1, 0.3, 0.5, 0.1)]


@pytest.mark.parametrize("move_probs", _MOVE_LAWS)
@pytest.mark.parametrize("l, S", sorted({(l, S) for l in (1, 2, 7)
                                         for S in (0, 1, l - 1, l, l + 1, 16, 35)}
                                        | {(300, 200), (7, 256)}))
def test_walk_kernel_matches_the_per_trial_walk(l, S, move_probs):
    cycle, starts, uniforms, (t1, t2, t3) = _walk_inputs(l, S, 17, move_probs, 13 * l + S)
    ends = starts.copy()
    hits = _kernels.walk_match_batch(np.array(cycle.labels), ends, uniforms, t1, t2, t3)
    want_hits, want_ends = _walk_oracle(cycle, move_probs, starts, uniforms)
    assert hits.dtype == np.int64 and ends.dtype == np.int64
    assert np.array_equal(hits, want_hits)
    assert np.array_equal(ends, want_ends)
    assert hits[0] == 1 and (ends[0] == l - 1).all()
    if l in (2, 7):
        assert hits[1] == -1 and (ends[1] == (np.array([0, 1]) - S) % l).all()


@pytest.mark.parametrize("move_probs", _MOVE_LAWS[:2])
@pytest.mark.parametrize("S", [0, 255, 256])
@pytest.mark.parametrize("T", [1, 7, 9])
def test_walk_kernel_matches_the_per_trial_walk_at_the_lane_edges(T, S, move_probs):
    # T = 1, 7 and 9 fill no whole number of uint64 words with lanes of
    # uint8 (S <= 255) or uint16 (S = 256); the first trial never matches
    # and steps back S times, the most a lane holds
    cycle, starts, uniforms, (t1, t2, t3) = _walk_inputs(7, S, T + 1, move_probs, T + S)
    starts, uniforms = starts[1:], uniforms[1:]
    ends = starts.copy()
    hits = _kernels.walk_match_batch(np.array(cycle.labels), ends, uniforms, t1, t2, t3)
    want_hits, want_ends = _walk_oracle(cycle, move_probs, starts, uniforms)
    assert np.array_equal(hits, want_hits)
    assert np.array_equal(ends, want_ends)
    assert hits[0] == -1 and (ends[0] == (np.array([0, 1]) - S) % 7).all()


@pytest.mark.parametrize("relabel", [lambda v: v + 250, lambda v: 10 ** 12 * v - 7,
                                     lambda v: -v])
def test_walk_kernel_reads_only_label_equality(relabel):
    # labels are coded by their offset from the least one, so a relabelling
    # with a wide or negative range changes no hit and no end position
    move_probs = (0.2, 0.2, 0.3, 0.3)
    cycle, starts, uniforms, (t1, t2, t3) = _walk_inputs(7, 16, 60, move_probs, 5)
    labels = np.array(cycle.labels)
    want_ends, ends = starts.copy(), starts.copy()
    want = _kernels.walk_match_batch(labels, want_ends, uniforms, t1, t2, t3)
    hits = _kernels.walk_match_batch(relabel(labels), ends, uniforms, t1, t2, t3)
    assert np.array_equal(hits, want) and np.array_equal(ends, want_ends)
    assert (hits > 1).any() and (hits < 0).any()


def test_walk_kernel_matches_the_per_trial_walk_across_full_slabs():
    # two of the slabs walk passes, 1024 rows of 16, and a ragged 37
    S = 16
    slab = UNIFORM_BUFFER_BYTES // (8 * S)
    move_probs = (0.2, 0.2, 0.3, 0.3)
    cycle, starts, uniforms, (t1, t2, t3) = _walk_inputs(7, S, 2 * slab + 37, move_probs, 41)
    ends = starts.copy()
    hits = _kernels.walk_match_batch(np.array(cycle.labels), ends, uniforms, t1, t2, t3)
    want_hits, want_ends = _walk_oracle(cycle, move_probs, starts, uniforms)
    assert np.array_equal(hits, want_hits)
    assert np.array_equal(ends, want_ends)
    assert (hits == 1).any() and (hits > 1).any() and (hits < 0).any()


def test_walk_kernel_memory_is_bounded_by_the_slab():
    # walk passes the kernel slabs of UNIFORM_BUFFER_BYTES of uniforms, 1024 rows
    # of 16, and the one-pass kernel's temporaries take about 36 B per
    # uniform; the inputs exist before tracing starts
    rng = np.random.default_rng(7)
    S = 16
    T = UNIFORM_BUFFER_BYTES // (8 * S)
    labels = np.array([1, 4, 3, 4, 3, 6])
    starts = rng.integers(0, 6, size=(T, 2))
    uniforms = rng.random((T, S))
    tracemalloc.start()
    try:
        _kernels.walk_match_batch(labels, starts, uniforms, 0.2, 0.4, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_env_flag_selects_backend():
    # ASYNC_DCA_KERNELS is not read: naming a backend that cannot be imported
    # neither fails the import nor changes the recorded backend
    out = subprocess.run(
        [sys.executable, "-c", "import async_dca; print(async_dca.backend_name())"],
        capture_output=True, text=True,
        env={"ASYNC_DCA_KERNELS": "numba", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


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
