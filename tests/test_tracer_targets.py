"""The span tracer's targets must exist in the library.

``perfbench/tracer.py`` resolves each ``TARGETS`` entry with ``getattr``
when a traced benchmark run starts, so a library change that removes one
makes every ``--trace 1`` run fail.  The table is read from the file's
source, without importing the tracer or installing it.
"""
import ast
import importlib
from pathlib import Path

import pytest

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
