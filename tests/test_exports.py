"""The package's public names: ``__all__`` and the imports of ``__init__`` agree.

A name deleted from a module but left in ``__all__`` fails here, not only
on ``from async_dca import *``; a public name imported but not listed is
caught as well.  The per-step reference ``engine`` is not re-exported, so
importing the package does not load it; and no Monte Carlo run loads
``numpy.ma``, which ``np.quantile`` imports on its first call.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import async_dca


def _imported_public_names() -> set:
    tree = ast.parse(Path(async_dca.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")}


def test_every_listed_name_resolves():
    assert [name for name in async_dca.__all__ if not hasattr(async_dca, name)] == []
    assert len(set(async_dca.__all__)) == len(async_dca.__all__)


def test_every_public_import_is_listed():
    assert _imported_public_names() - set(async_dca.__all__) == set()


def _run_python(code, *args):
    """stdout of ``python -c code args`` importing this package."""
    src = str(Path(async_dca.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": pythonpath})
    return out.stdout.strip()


def test_importing_the_package_leaves_the_engine_unloaded():
    assert _run_python("import sys, async_dca; print('async_dca.engine' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["mc", "--matrix", "{data}/six_node_coupled.json", "--scheduler", "{data}/half_clocks6.json",
     "--trials", "8", "--steps", "400", "--out", "{out}/tails.csv",
     "--summary", "{out}/summary.json"],
    ["repro", "period3_markov", "--trials", "8", "--steps", "60", "--out", "{out}/repro.json"],
], ids=["mc", "repro"])
def test_monte_carlo_runs_leave_numpy_ma_unloaded(tmp_path, argv):
    data = Path(async_dca.__file__).resolve().parent / "data"
    code = ("import sys, numpy.random; from async_dca import cli; "
            "cli.dispatch(sys.argv[1:]); print('numpy.ma' in sys.modules)")
    argv = [a.format(data=data, out=tmp_path) for a in argv]
    assert _run_python(code, *argv) == "False"
