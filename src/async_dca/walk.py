"""Backward random walks along a labelled cycle and their geometric bounds.

Two tokens sit on a directed cycle and, while their labels differ, each
step either moves one of them to its cycle predecessor, moves both, or
leaves both in place; each single-token move must carry probability at
least ``gamma`` and the stay-or-move-both alternative at least ``gamma``
combined.  Once the labels coincide the pair freezes.

The distance between the tokens then performs a birth/death chain on
``{0, .., l-1}`` with an absorbing 0.  In the paper's argument its
transition matrix dominates a fixed band matrix ``W`` entrywise, with the
same sign pattern, so the chain is absorbed geometrically.  Here the
envelope is taken from the chain itself: the largest mass that any start
distance leaves unabsorbed after k steps, carried at the exact rate
``beta`` of the transient block J (its spectral radius), gives the
certified lower bound ``P(match by k) >= 1 - c0 * beta^k`` used throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ValidationError
from .graphs import LabelledCycle
from .matrices import ColumnStochasticMatrix
from .rng import stream

GAMMA_MAX = 1.0 / 3.0
# Transition uniforms are drawn in blocks of this many columns, for the
# unmatched trials only.  Part of the seed contract: changing it changes
# every walk output for a given seed.  Each block is drawn and walked in
# row slabs of about WALK_SLAB_BYTES of uniforms, whole kernel slabs each;
# the stream is read row-major, so the slabs change no draw and no output
# and their size is outside the seed contract.
WALK_BLOCK = 16
WALK_SLAB_BYTES = 1 << 18


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


def _check_move_probabilities(gamma: float, move_probs) -> tuple:
    gamma = _check_gamma(gamma)
    if move_probs is None:
        move_probs = default_move_probabilities(gamma)
    p = tuple(float(v) for v in move_probs)
    if len(p) != 4 or any(v < 0 for v in p):
        raise ValidationError("move probabilities are 4 nonnegative numbers")
    if abs(sum(p) - 1.0) > 1e-12:
        raise ValidationError(f"move probabilities sum to {sum(p)!r}, not 1")
    if p[0] < gamma - 1e-12 or p[1] < gamma - 1e-12 or p[2] + p[3] < gamma - 1e-12:
        raise ValidationError(
            "each single move needs probability >= gamma and stay-or-move-both "
            "needs combined probability >= gamma"
        )
    return p


@dataclass(frozen=True, eq=False)
class DistanceChain:
    """Exact distance chain of a walk with the given move probabilities.

    ``move_probs`` defaults to ``default_move_probabilities(gamma)``; the
    constructor validates it and derives ``matrix`` from it.
    """

    l: int
    gamma: float
    move_probs: tuple = None
    matrix: ColumnStochasticMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.l < 2:
            raise ValidationError("the distance chain needs l >= 2")
        p_j, p_i, p_stay, p_both = p = _check_move_probabilities(self.gamma, self.move_probs)
        l = self.l
        P = np.zeros((l, l))
        P[0, 0] = 1.0
        for d in range(1, l):
            down = d - 1
            up = d + 1 if d < l - 1 else 0
            P[down, d] += p_j
            P[up, d] += p_i
            P[d, d] += p_stay + p_both
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "move_probs", p)
        object.__setattr__(self, "matrix", ColumnStochasticMatrix(P))

    def rate_certificate(self, k_max: int) -> RateCertificate:
        """Unabsorbed mass of the chain's first ``k_max`` steps at its exact rate.

        ``beta`` is the spectral radius of the transient block J (distances
        1..l-1), the rate at which unabsorbed mass decays, so no decay need
        show within ``k_max`` steps.  The scaled masses ``errors[k-1] /
        beta^k`` tend to the Perron limit of ``J / beta``; ``c0`` is the
        larger of that limit and their maximum over k <= ``k_max``, so it
        does not depend on ``k_max`` once the masses have settled, and the
        envelope holds at every k supplied.  ValidationError when the split
        is not representable in floating point (see below).
        """
        if k_max < 1:
            raise ValidationError("need k_max >= 1")
        p_j, p_i, p_stay, p_both = self.move_probs
        l = self.l
        # J is tridiagonal Toeplitz, so its eigenvalues are
        # p_stay + p_both + 2 sqrt(p_i p_j) cos(m pi / l), m = 1..l-1, and
        # its Perron vectors are rho^(-/+d) sin(d pi / l), rho = sqrt(p_i / p_j)
        beta = p_stay + p_both + 2.0 * float(np.sqrt(p_i * p_j) * np.cos(np.pi / l))
        d = np.arange(1, l)
        sines = np.sin(np.pi * d / l)
        rho = np.sqrt(p_i / p_j)
        # the split holds only while rho^(l-1) and its inverse are normal floats
        if (l - 1) * abs(np.log(rho)) > -np.log(np.finfo(float).tiny):
            raise ValidationError(
                f"the rate certificate of a {l}-position cycle is not representable "
                f"under move probabilities {self.move_probs}: rho^{l - 1} with "
                f"rho = sqrt(p_i / p_j) = {float(rho)!r} leaves the float range"
            )
        left, right = sines / rho ** d, sines * rho ** d
        left /= left @ right
        # ones @ (J / beta)^k = limit + ones @ deflated^k: the deflated matrix
        # has spectral radius below 1, so the remainder decays to nothing in
        # floating point and no rounding drift of the unit Perron mode can
        # make the scaled mass grow with k
        limit = right.sum() * left
        deflated = self.matrix.entries[1:, 1:] / beta - np.outer(right, left)
        scaled = np.empty(k_max)
        rest = np.ones(l - 1)
        # one numpy call per step; the maxima are taken a block of steps at a time
        rows = np.empty((min(k_max, 256), l - 1))
        for k0 in range(0, k_max, len(rows)):
            n = min(len(rows), k_max - k0)
            for j in range(n):
                rest = np.matmul(rest, deflated, out=rows[j])
            scaled[k0:k0 + n] = (rows[:n] + limit).max(axis=1)
        c0 = float(max(scaled.max(), limit.max()))
        errors = scaled * beta ** np.arange(1, k_max + 1)
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

    def to_rows(self):
        for idx in range(len(self.k)):
            yield int(self.k[idx]), float(self.empirical[idx]), float(self.bound[idx])


def match_probability_curve(cycle: LabelledCycle, gamma: float, k_max: int,
                            trials: int, seed: int, move_probs=None) -> MatchCurve:
    """Monte Carlo match-by-k curve with its distance-chain lower bound.

    All trials share the one stream ``stream(seed)`` (seed contracts 2 and 3): it
    first yields every trial's two uniform starting positions as a
    ``(trials, 2)`` array, then blocks of ``WALK_BLOCK`` transition uniforms
    (fewer for the last block of the horizon), one row per still-unmatched
    trial in increasing trial order, until every trial has matched or
    ``k_max - 1`` transitions have been drawn.  Each block is drawn and
    walked in slabs of rows (see ``WALK_SLAB_BYTES``); the stream is read
    row-major, so this changes no draw.  The empirical curve is
    cumulative, hence non-decreasing, and dominates the bound whenever the
    walk's moves meet the ``gamma`` floors.  On a one-position cycle every
    walk matches at k = 1: the curve and the bound are all ones, with
    ``c0 = beta = 0``.
    """
    if trials < 1 or k_max < 1:
        raise ValidationError("need trials >= 1 and k_max >= 1")
    l = cycle.length
    chain = DistanceChain(l, gamma, move_probs) if l > 1 else None
    p = chain.move_probs if chain is not None else _check_move_probabilities(gamma, move_probs)
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
        slab = _kernels.walk_slab_rows(width)
        rows = slab * max(1, WALK_SLAB_BYTES // (8 * width * slab))
        block_hits = np.empty(unmatched.size, dtype=np.int64)
        for r0 in range(0, unmatched.size, rows):
            r1 = min(r0 + rows, unmatched.size)
            u = rng.random((r1 - r0, width))
            # the kernel advances pos[r0:r1] to the end of the block
            block_hits[r0:r1] = _kernels.walk_match_batch(labels, pos[r0:r1], u, t1, t2, t3)
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
