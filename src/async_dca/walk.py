"""Backward random walks along a labelled cycle and their geometric bounds.

Two tokens sit on a directed cycle and, while their labels differ, each
step either moves one of them to its cycle predecessor, moves both, or
leaves both in place.  The paper's argument needs only floors: each
single-token move has probability at least ``gamma``, and so has
stay-or-move-both.  The library walks one law,
``default_move_probabilities(gamma)``: each token moves alone with
probability ``gamma``, and ``1 - 2 gamma`` splits evenly between staying
and moving both.  Once the labels coincide the pair freezes.

The distance between the tokens then performs a birth/death chain on
``{0, .., l-1}`` with an absorbing 0.  In the paper's argument its
transition matrix dominates a fixed band matrix ``W`` entrywise, with the
same sign pattern, so the chain is absorbed geometrically.  Here the
envelope is taken from the chain itself: the largest mass that any start
distance leaves unabsorbed after k steps, carried at the exact rate
``beta`` of the transient block J (its spectral radius), gives the
certified lower bound ``P(match by k) >= 1 - c0 * beta^k`` used throughout.
Under the one law J is symmetric, so ``beta`` and its Perron vector have a
closed form and ``c0`` stays below ``4 / pi`` at every cycle length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .graphs import LabelledCycle
from .rng import _uniform_groups, stream

GAMMA_MAX = 1.0 / 3.0
# Transition uniforms are drawn in blocks of this many columns, for the
# unmatched trials only.  Part of the seed contract: changing it changes
# every walk output for a given seed.  Each block is drawn and walked in
# row slabs of about rng.UNIFORM_BUFFER_BYTES of uniforms, one kernel call
# each, whose temporaries take about 36 B per uniform.  The stream is read
# row-major, so the slabs change no draw and no output and their size is
# outside the seed contract.
WALK_BLOCK = 16


def _check_gamma(gamma: float) -> float:
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ValidationError(f"gamma must lie in (0, 1/3], got {gamma}")
    return float(gamma)


@dataclass(frozen=True, eq=False)
class RateCertificate:
    """Certified envelope ``errors[k-1] <= c0 * beta^k`` of a distance chain.

    ``errors[k-1]`` is the largest mass that any start distance leaves
    unabsorbed after k steps, that is, the largest column sum of the k-th
    power of the transient block; ``beta`` is the block's spectral radius.
    """

    c0: float
    beta: float
    errors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.errors, dtype=np.float64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "errors", arr)


def default_move_probabilities(gamma: float) -> tuple:
    """(move j, move i, stay, move both); the residual splits evenly."""
    gamma = _check_gamma(gamma)
    residual = 1.0 - 2.0 * gamma
    return (gamma, gamma, residual / 2.0, residual / 2.0)


@dataclass(frozen=True, eq=False)
class DistanceChain:
    """Exact distance chain of a walk with ``default_move_probabilities(gamma)``,
    held as ``l`` and ``gamma`` alone: its transient block is stepped as its
    band, and the dense ``l x l`` chain is a test oracle, like ``W``."""

    l: int
    gamma: float

    def __post_init__(self):
        if self.l < 2:
            raise ValidationError("the distance chain needs l >= 2")
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))

    def rate_certificate(self, k_max: int) -> RateCertificate:
        """Unabsorbed mass of the chain's first ``k_max`` steps at its exact rate.

        ``beta`` is the spectral radius of the transient block J (distances
        1..l-1), the rate at which unabsorbed mass decays, so no decay need
        show within ``k_max`` steps.  The scaled masses ``errors[k-1] /
        beta^k`` tend to the Perron limit of ``J / beta``; ``c0`` is the
        larger of that limit and their maximum over k <= ``k_max``, so it
        does not depend on ``k_max`` once the masses have settled, and the
        envelope holds at every k supplied.
        """
        if k_max < 1:
            raise ValidationError("need k_max >= 1")
        l, gamma = self.l, self.gamma
        # J is symmetric tridiagonal Toeplitz, 1 - 2 gamma on the diagonal and
        # gamma beside it, so its eigenvalues are
        # 1 - 2 gamma + 2 gamma cos(m pi / l), m = 1..l-1, and its Perron
        # vector is sin(d pi / l)
        beta = 1.0 - 2.0 * gamma + 2.0 * gamma * float(np.cos(np.pi / l))
        right = np.sin(np.pi * np.arange(1, l) / l)
        left = right / (right @ right)
        # ones @ (J / beta)^k = limit + ones @ deflated^k: the deflated matrix
        # has spectral radius below 1, so the remainder decays to nothing in
        # floating point and no rounding drift of the unit Perron mode can
        # make the scaled mass grow with k
        limit = right.sum() * left
        band = np.array([gamma, 1.0 - 2.0 * gamma, gamma]) / beta
        scaled = np.full(k_max, limit.max())
        rest = np.ones(l - 1)
        # J / beta is symmetric and the deflation removes its Perron mode, so
        # the 2-norm of rest does not grow: once it is below a quarter of the
        # least spacing of limit, rest + limit rounds to limit at every later
        # step, and the scaled masses left are limit.max()
        settled = 0.25 * np.spacing(limit).min()
        # O(l) per step, J / beta as its band
        for k in range(k_max):
            rest = np.correlate(rest, band, "full")[1:-1] - (rest @ right) * left
            scaled[k] = (rest + limit).max()
            if np.linalg.norm(rest) < settled:
                break
        c0 = float(max(scaled.max(), limit.max()))
        # rounding in the deflated split can lift a mass past 1 on long cycles
        errors = np.minimum(scaled * beta ** np.arange(1, k_max + 1), 1.0)
        return RateCertificate(c0=c0, beta=beta, errors=errors)


@dataclass(frozen=True, eq=False)
class MatchCurve:
    """Empirical match probabilities against the certified lower bound.

    ``bound[k-1] = 1 - c0 * beta**k`` where (c0, beta) absorb the one-step
    offset between the walk clock (positions exist from time 1) and the
    number of transitions applied.
    """

    k: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    c0: float
    beta: float
    hits: np.ndarray


def match_probability_curve(cycle: LabelledCycle, gamma: float, k_max: int,
                            trials: int, seed: int) -> MatchCurve:
    """Monte Carlo match-by-k curve with its distance-chain lower bound.

    All trials share the one stream ``stream(seed)`` (seed contracts 2 and 3): it
    first yields every trial's two uniform starting positions as a
    ``(trials, 2)`` array, then blocks of ``WALK_BLOCK`` transition uniforms
    (fewer for the last block of the horizon), one row per still-unmatched
    trial in increasing trial order, until every trial has matched or
    ``k_max - 1`` transitions have been drawn.  Each block is drawn by
    ``rng._uniform_groups`` and walked in slabs of ``max(1,
    rng.UNIFORM_BUFFER_BYTES // (8 * width))`` rows of its ``width``
    columns, one kernel call per slab; this changes no draw.  The walk
    moves by ``default_move_probabilities(gamma)``.  The empirical curve is
    cumulative, hence non-decreasing; the exact curve it estimates
    dominates the bound.  On a one-position cycle every walk matches at
    k = 1: the curve and the bound are all ones, with ``c0 = beta = 0``.
    """
    if trials < 1 or k_max < 1:
        raise ValidationError("need trials >= 1 and k_max >= 1")
    l = cycle.length
    p = default_move_probabilities(gamma)
    chain = DistanceChain(l, gamma) if l > 1 else None
    labels = np.array(cycle.labels, dtype=np.int64)
    t1, t2, t3 = p[0], p[0] + p[1], p[0] + p[1] + p[2]
    rng = stream(seed)
    pos = rng.integers(0, l, size=(trials, 2))
    hits = np.where(labels[pos[:, 0]] == labels[pos[:, 1]], 1, -1)
    unmatched = np.flatnonzero(hits < 0)
    pos = pos[unmatched]
    done = 0
    while unmatched.size and done < k_max - 1:
        width = min(WALK_BLOCK, k_max - 1 - done)
        block_hits = np.empty(unmatched.size, dtype=np.int64)
        for r0, u in _uniform_groups(rng, unmatched.size, (width,)):
            r1 = r0 + len(u)
            # the kernel advances pos[r0:r1] to the end of the block
            block_hits[r0:r1] = _kernels.walk_match_batch(labels, pos[r0:r1], u, t1, t2, t3)
        del u  # frees the buffer before the O(trials) bookkeeping below
        matched = block_hits > 0
        hits[unmatched[matched]] = block_hits[matched] + done
        done += width
        unmatched, pos = unmatched[~matched], pos[~matched]

    counts = np.bincount(hits[hits > 0], minlength=k_max + 1)
    empirical = np.cumsum(counts)[1:] / trials

    if chain is not None:
        cert = chain.rate_certificate(k_max)
        c0, beta = cert.c0 / cert.beta, cert.beta
    else:
        # one position: every walk matches at k = 1, so the bound is exact
        c0 = beta = 0.0
    ks = np.arange(1, k_max + 1)
    bound = 1.0 - c0 * beta ** ks
    return MatchCurve(k=ks, empirical=empirical, bound=bound,
                      c0=c0, beta=beta, hits=hits)
