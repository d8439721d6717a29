"""Reproducible random streams.

Every stochastic routine draws from a Philox counter-based generator keyed
by a master seed plus an integer stream path.  Seed contract 3: a Monte
Carlo run draws all T trials from ``stream(seed, 0)``, first the random
initial states as one (T, n) array, then the schedule tick-major (see
``schedulers``), so a one-trial run draws what trial 0 drew under contract
1.  The walk draws from ``stream(seed)`` (see ``walk``).
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

DEFAULT_SEED = 1729
# Version of the mapping from seeds to draws; recorded in result summaries.
# A run's stream is consumed tick by tick, so drawing it in blocks of ticks
# keeps every value and no output depends on the block size.
SEED_CONTRACT = 3


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
