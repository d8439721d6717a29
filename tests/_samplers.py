"""Seeded random generators for matrices, digraphs and mc inputs used across tests."""
import numpy as np

from async_dca import stream


def random_stochastic(rng, n, density=0.6, min_weight=0.05):
    """Row-stochastic matrix with a random support pattern per row."""
    A = np.zeros((n, n))
    for i in range(n):
        support = np.nonzero(rng.random(n) < density)[0]
        if support.size == 0:
            support = np.array([rng.integers(0, n)])
        w = rng.uniform(min_weight, 1.0, support.size)
        A[i, support] = w / w.sum()
    return A


def random_structured(rng, n):
    """Mix of permutations, partial-update matrices, and dense averaging.

    Permutations give periodic chains, partial updates give elementary rows,
    and dense rows give quickly mixing chains, so classification tests see
    both outcomes.
    """
    kind = int(rng.integers(0, 4))
    if kind == 0:
        P = np.zeros((n, n))
        P[np.arange(n), rng.permutation(n)] = 1.0
        return P
    if kind == 1:
        base = random_stochastic(rng, n)
        M = np.eye(n)
        for j in range(n):
            if rng.random() < 0.5:
                M[j] = base[j]
        return M
    if kind == 2:
        return random_stochastic(rng, n, density=1.0)
    return random_stochastic(rng, n, density=0.4)


def random_edges(rng, n, density=0.35):
    """Random edge set over nodes 1..n, self-loops included."""
    edges = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if rng.random() < density:
                edges.add((u, v))
    return edges


def random_strongly_connected_edges(rng, n, extra_density=0.3):
    """A random ring through all nodes plus extra random edges."""
    perm = rng.permutation(n) + 1
    edges = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    edges |= random_edges(rng, n, density=extra_density)
    return edges


def random_rooted_stochastic(rng, n):
    """Row-stochastic matrix whose graph is rooted by construction.

    A random arborescence out of a random root guarantees the root reaches
    everyone (influence edge parent -> child means a[child, parent] > 0).
    """
    order = rng.permutation(n)
    support = np.zeros((n, n), dtype=bool)
    for idx in range(1, n):
        child = order[idx]
        parent = order[int(rng.integers(0, idx))]
        support[child, parent] = True
    support |= rng.random((n, n)) < 0.25
    A = np.zeros((n, n))
    for i in range(n):
        cols = np.nonzero(support[i])[0]
        if cols.size == 0:
            cols = np.array([i])
        w = rng.uniform(0.05, 1.0, cols.size)
        A[i, cols] = w / w.sum()
    return A


def mc_inputs(cfg):
    """The initial states and (trials, horizon, n) update masks that ``mc``
    draws for ``cfg``, by the library's own sampler.

    ``_oracles.draw_trial_inputs_full`` is the scalar reference these equal
    (``test_schedulers.py`` and ``test_streaming.py`` check it on every kind); it is
    too slow for the 1000-trial runs.
    """
    rng = stream(cfg.seed, 0)
    x0 = rng.uniform(-1.0, 1.0, (cfg.trials, cfg.matrix.n))
    masks = cfg.scheduler.sample_masks(cfg.horizon, rng, cfg.trials)
    return x0, masks.transpose(1, 0, 2)
