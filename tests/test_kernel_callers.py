"""One way into the trajectory kernel.

Every trajectory the library runs, ``simulate``, ``mc``, the replays'
scripts and zero-step runs alike, goes through
``montecarlo.trajectory_blocks``, which alone starts a run, by building its
``_kernels.Carry`` and yielding step 0, and alone checks the accumulated
products' row sums after each block.  A second caller of
``_kernels.trajectory_batch``, or a second place that builds a ``Carry``,
would run without that check, so the package's sources are parsed and
every reference to either is traced to the function that holds it.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "async_dca"
KERNEL = "trajectory_batch"


def _kernel_references(source, name=KERNEL):
    """The enclosing function (dotted, None at module level) of every
    reference to ``name`` in ``source``: a name, an attribute, an import
    or a string naming it exactly; its own definition is not one."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else f"{where}.{node.name}"
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name
              or isinstance(node, ast.alias) and name in (node.name, node.asname)
              or isinstance(node, ast.Constant) and node.value == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def _references(name):
    return Counter(f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
                   for where in _kernel_references(path.read_text(), name))


def test_only_trajectory_blocks_reaches_the_kernel():
    assert _references(KERNEL) == {"montecarlo.trajectory_blocks": 1}


def test_only_trajectory_blocks_builds_a_carry():
    # a run starts where its Carry is built, with step 0 yielded before
    # any draw; the kernel itself only steps the carry it is given
    assert _references("Carry") == {"montecarlo.trajectory_blocks": 1}


def test_the_scan_sees_every_way_to_reach_the_kernel():
    source = '''
from ._kernels import trajectory_batch as tb
from . import _kernels

def direct(A, masks, x0):
    return _kernels.trajectory_batch(A, masks, x0)

class Runner:
    def run(self):
        step = getattr(_kernels, "trajectory_batch")
        return step()

kernel = _kernels.trajectory_batch
'''
    assert _kernel_references(source) == [None, "direct", "Runner.run", None]
