"""Bundled example matrices, loadable by name or shipped as JSON files."""
from __future__ import annotations

import json
from importlib import resources

from .errors import ValidationError
from .matrices import StochasticMatrix

BUNDLED_MATRICES = (
    "two_node_swap",
    "three_node_chain",
    "three_node_cycle",
    "three_node_lazy_cycle",
    "four_node_rooted",
    "four_node_ring",
    "five_node_shift",
    "six_node_coupled",
)

BUNDLED_SCHEDULERS = (
    "uniform_clock6",
    "half_clocks6",
    "synchronous6",
)


def _data_root():
    return resources.files("async_dca").joinpath("data")


def bundled_matrix(name: str) -> StochasticMatrix:
    if name not in BUNDLED_MATRICES:
        raise ValidationError(
            f"unknown bundled matrix {name!r}; available: {', '.join(BUNDLED_MATRICES)}"
        )
    payload = json.loads(_data_root().joinpath(f"{name}.json").read_text())
    return StochasticMatrix.from_json(payload)


def bundled_scheduler(name: str):
    from .schedulers import scheduler_from_json

    if name not in BUNDLED_SCHEDULERS:
        raise ValidationError(
            f"unknown bundled scheduler {name!r}; available: {', '.join(BUNDLED_SCHEDULERS)}"
        )
    payload = json.loads(_data_root().joinpath(f"{name}.json").read_text())
    return scheduler_from_json(payload)
