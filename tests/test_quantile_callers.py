"""No numpy order statistic in the library.

In numpy 2.4 the first call in a process of ``np.quantile``,
``np.percentile``, ``np.median``, ``np.nanquantile`` or ``np.nanpercentile``
imports ``numpy.ma``: about 10 ms, a quarter of an ``mc`` run at the
benchmark's sizes.  The Monte Carlo summary takes its quantiles from
``montecarlo._quantiles`` instead, so the package's sources are parsed and
every use of these functions, as ``np.<name>``, ``numpy.<name>`` or an
import from numpy, is reported with its line.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NAMES = {"quantile", "percentile", "median", "nanquantile", "nanpercentile"}


def _order_statistic_uses(source):
    """The lines of every ``np.<name>`` or ``numpy.<name>`` with a name in
    ``NAMES``, called or taken as a value, and of every import of one from
    numpy, in ``source``."""
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in NAMES
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        and any(alias.name in NAMES for alias in node.names)
    )


def test_no_module_takes_numpy_order_statistics():
    found = [f"{path.relative_to(SRC)}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _order_statistic_uses(path.read_text())]
    assert found == []


def test_the_scan_sees_every_order_statistic():
    source = '''
import numpy
import numpy as np
from numpy import median as med

def summary(x, q):
    lo = np.quantile(x, q)
    take = numpy.nanpercentile
    return np.percentile(x, 50), np.nanquantile(x, q), take(x, 5), med(x)

stats = {"median": 1.0}
middle = x.median
order = np.sort(x)
'''
    assert _order_statistic_uses(source) == [4, 7, 8, 9, 9]
