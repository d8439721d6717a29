"""Reproducible random streams.

Every stochastic routine in this package draws from a Philox counter-based
generator keyed by a master seed plus an integer stream path.  Monte Carlo
trials use ``stream(seed, trial_index)`` so each trial owns an independent
stream and results do not depend on execution order or worker count.  The
backward cycle walk instead draws every trial from the one stream
``stream(seed)`` in a fixed block layout (see
``walk.match_probability_curve``), which is seed contract 2.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 1729
# Version of the mapping from seeds to draws; recorded in result summaries.
SEED_CONTRACT = 2


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the given (master_seed, path) stream."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))
