"""One bulk-draw loop for uniforms.

The update-set samplers and the backward cycle walk read their uniforms
through ``rng._uniform_groups``, which draws them in groups into one
buffer of about ``rng.UNIFORM_BUFFER_BYTES``.  A module that called a
generator's ``random`` itself would grow a second draw loop with its own
size, so the package's sources are parsed and every use of a method named
``random`` outside ``rng.py`` is reported with its line.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "async_dca"
METHOD = "random"


def _random_uses(source):
    """The lines of every call of a method named ``random``, every such
    method taken as a value (``draw = rng.random``) and every
    ``getattr(..., "random")`` in ``source``; ``np.random.<name>`` is a
    module path, not one."""
    tree = ast.parse(source)
    paths = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == METHOD and id(node) not in paths
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "getattr" and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == METHOD
    )


def test_only_rng_draws_uniforms():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"
             for line in _random_uses(path.read_text())]
    assert found == []


def test_the_scan_sees_every_way_to_draw():
    source = '''
import numpy as np

def direct(rng, n):
    return rng.random((n, 2))

class Sampler:
    def run(self, rng, u):
        draw = rng.random
        getattr(rng, "random")(out=u)
        return draw()

gen = np.random.default_rng(1)
state = gen.random_raw()
mode = "random"
'''
    assert _random_uses(source) == [5, 9, 10]
