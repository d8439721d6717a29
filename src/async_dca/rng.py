"""Reproducible random streams.

Every stochastic routine draws from a Philox counter-based generator keyed
by a master seed plus an integer stream path.  Seed contract 3: a Monte
Carlo run draws all T trials from ``stream(seed, 0)``, first the random
initial states as one (T, n) array, then the schedule tick-major (see
``schedulers``), so a one-trial run draws what trial 0 drew under contract
1.  The walk draws from ``stream(seed)`` (see ``walk``).  The schedulers
and the walk draw their uniforms by ``_uniform_groups``, into one buffer
of about ``UNIFORM_BUFFER_BYTES``, the library's one such size.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

DEFAULT_SEED = 1729
# Version of the mapping from seeds to draws; recorded in result summaries.
# A run's stream is consumed tick by tick, so drawing it in blocks of ticks
# keeps every value and no output depends on the block size.
SEED_CONTRACT = 3
UNIFORM_BUFFER_BYTES = 1 << 17  # outside the seed contract: it changes no draw


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the given (master_seed, path) stream.

    Raises ValidationError for a seed or path ``SeedSequence`` rejects,
    such as a negative one.
    """
    try:
        seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid seed {master_seed!r}: {exc}") from exc
    return np.random.Generator(np.random.Philox(seq))


def _uniform_groups(rng, steps: int, shape: tuple):
    """Draw ``steps`` rows of ``shape`` uniforms each, row-major, in groups
    of rows: yields ``(i, u)`` with ``u`` the (g, *shape) uniforms of rows
    i .. i + g - 1, the last group ragged.  Every group is drawn into one
    buffer of about ``UNIFORM_BUFFER_BYTES`` (one row when a row needs
    more), so ``u`` holds only until the next group is drawn.  One call
    for m doubles gives the same doubles as m scalar calls, so the groups
    draw what one ``rng.random((steps, *shape))`` would."""
    row_bytes = 8 * int(np.prod(shape))
    g = max(1, min(steps, UNIFORM_BUFFER_BYTES // max(1, row_bytes)))
    buf = np.empty((g, *shape))
    for i in range(0, steps, g):
        u = buf[:min(g, steps - i)]
        rng.random(out=u)
        yield i, u
