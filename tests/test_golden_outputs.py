"""Byte-for-byte golden outputs of the canonical CLI runs.

Each case is one canonical ``async-dca`` invocation (the workloads of
``perfbench/workloads.py``, plus ``simulate --no-product``, ``repro all``
and ``mc`` under a Markov and a period-3 support-sequence scheduler), run
in process at seeds 1729 and 5.  The SHA-256 of each output is
compared with a recorded digest, so every refactor keeps every output
byte.  The seedless cases, ``analyze`` on every bundled matrix and
``verify-conditions`` on ``six_node_coupled`` under every bundled
scheduler, draw nothing and run once without ``--seed``; they pin the
graph layer's verdicts (roots, components, SIA, cycle length, the five
conditions).  The ``simulate`` digests were recorded before the streamed ``mc``
pipeline, the ``mc`` and ``repro`` digests with seed contract 3, one stream
for all trials of a run, and the walk digests after its certificate took
``c0`` from the distance chain's unabsorbed mass at the exact rate (the
walk summary records the seed contract's number); the ``repro`` digests
were re-recorded when the ``strongly_aperiodic`` replay's check became the
all-pairs verdict with its failing pairs as the witness.  The ``summary.json``
digests of the three ``mc`` cases that track lambda were re-recorded when
``mc`` began to drop the product once every lambda tail is decided: each
summary gained ``product_steps``, the last step its three maxima cover
(436, and 218 for ``mc-period3``), and in ``mc-lambda``
``max_contraction_violation`` and ``max_product_row_error`` fell to the
maxima of those steps; every ``tails.csv`` held.  A change that alters an
output must update its digest here and name the change in CHANGES.md.

The digests hold for the numpy version recorded below: a different numpy
may format floats or order reductions differently, so the comparison is
skipped there.  Print the current digests with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import async_dca
from async_dca.cli import dispatch

NUMPY_VERSION = "2.4.6"
SEEDS = (1729, 5)
DATA = Path(async_dca.__file__).resolve().parent / "data"

_SIX = ("--matrix", "{data}/six_node_coupled.json")
_MC_OUT = ("--out", "{out}/tails.csv", "--summary", "{out}/summary.json")
_SIMULATE = ("simulate", *_SIX, "--scheduler", "{data}/uniform_clock6.json",
             "--steps", "16000", "--out", "{out}/trajectory.csv")

# scheduler JSON files every case finds in its output directory
SPECS = {
    "markov6.json": {"kind": "markov", "params": {
        "n": 6, "states": [[1, 2], [3, 4], [5, 6]], "initial": [3, 4],
        "matrix": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]}},
    "period3_6.json": {"kind": "support_sequence", "params": {"n": 6, "ticks": [
        [{"set": [1, 2, 3], "prob": 0.5}, {"set": [4, 5, 6], "prob": 0.5}],
        [{"set": [1, 4], "prob": 0.25}, {"set": [2, 5], "prob": 0.25},
         {"set": [3, 6], "prob": 0.5}],
        [{"set": [1, 2, 3, 4, 5, 6], "prob": 1.0}]]}},
}

# case -> (argv, outputs); "stdout" names what the run prints
CASES = {
    "mc-lambda": (("mc", *_SIX, "--scheduler", "{data}/uniform_clock6.json",
                   "--trials", "200", "--steps", "5000") + _MC_OUT,
                  ("tails.csv", "summary.json")),
    "mc-clocks": (("mc", *_SIX, "--scheduler", "{data}/half_clocks6.json",
                   "--trials", "1000", "--steps", "5000", "--no-lambda") + _MC_OUT,
                  ("tails.csv", "summary.json")),
    "mc-markov": (("mc", *_SIX, "--scheduler", "{out}/markov6.json",
                   "--trials", "200", "--steps", "1000") + _MC_OUT,
                  ("tails.csv", "summary.json")),
    "mc-period3": (("mc", *_SIX, "--scheduler", "{out}/period3_6.json",
                    "--trials", "200", "--steps", "1000") + _MC_OUT,
                   ("tails.csv", "summary.json")),
    "simulate": (_SIMULATE, ("trajectory.csv",)),
    "simulate-no-product": (_SIMULATE + ("--no-product",), ("trajectory.csv",)),
    "walk": (("walk", "--auto-from-matrix", "{data}/six_node_coupled.json",
              "--gamma", "0.2", "--kmax", "200", "--trials", "50000",
              "--out", "{out}/curve.csv", "--summary", "{out}/summary.json"),
             ("curve.csv", "summary.json")),
    "repro-all": (("repro", "all"), ("stdout",)),
}
SEEDLESS_CASES = {
    **{f"analyze-{m}": (("analyze", "--matrix", f"{{data}}/{m}.json"), ("stdout",))
       for m in async_dca.BUNDLED_MATRICES},
    **{f"verify-{s}": (("verify-conditions", *_SIX, "--scheduler", f"{{data}}/{s}.json"),
                       ("stdout",))
       for s in async_dca.BUNDLED_SCHEDULERS},
}

DIGESTS = {
    ("mc-lambda", 1729): {"tails.csv": "4d38af20cb18bae4963bfb0e67b38be06ee8a18dd430fcb6df2402adb7cfa6e8",
                          "summary.json": "42b981901dc7f96a8c49e2869db68ddec1f9172fc52d652b435099e015535bbd"},
    ("mc-lambda", 5): {"tails.csv": "055f96363a9dbdcb79a054342b9313272e6538f31ba217ec256160c7bdbb4a94",
                       "summary.json": "69b6041b85dcc277e6a5231aee17da331642f74aeb57572a7748850c40ea7fe1"},
    ("mc-clocks", 1729): {"tails.csv": "ef08e5765f631a22016491daec540d9b751a97ebdd50a2aa1ebbf80e8717e0ee",
                          "summary.json": "ae00f2908debf6028a373ffe691927f3faa0eed1ba4bcfd62a840e0a4cbac637"},
    ("mc-clocks", 5): {"tails.csv": "1abc3cf680eef94729a7b96f62b5e3aa98561e9e0ece41a6dfc769955779aea1",
                       "summary.json": "cf82546e409c7ca240b0ec413db169ce8425adf5d184bf2547bff96e299e6342"},
    ("mc-markov", 1729): {"tails.csv": "96cdcceb600231d4a91ab4b6d3f6c25eb516a3b61fece78949319f14ff7093b3",
                          "summary.json": "79e3e934203baaa5e5c792ecb9d21c4685368faa5e91e7dd355be0aa0b8fc17a"},
    ("mc-markov", 5): {"tails.csv": "9c20969f1d84c3bfa30924b23148e270652963949ccff057d092e6e5d203d7f8",
                       "summary.json": "bad208f2b9fa2941011b3c87ca9497b84f576e382b2d80b4f985794e181f45e1"},
    ("mc-period3", 1729): {"tails.csv": "35a49c4b1d20ef2a1cb1159181e94551cfcb6487a28962f073b24d5cf26e28ac",
                           "summary.json": "ed7cf48c8e98de77df1dacc52170684fa58cd06b93215696d55ded7ab294b71c"},
    ("mc-period3", 5): {"tails.csv": "539c01cc58b99062566a37840cedfb21b5a2b6e76d50cf009e8a62ca0a22b46f",
                        "summary.json": "ffb693faf2967b8b359e3e29176e87cfd0f400f21f9a22a2004bc08fab8fc3e5"},
    ("simulate", 1729): {"trajectory.csv": "186fdc9423e3d0cdaf213f975f1a33f5c675b70eb44a12a19d870af5ce78e484"},
    ("simulate", 5): {"trajectory.csv": "c6c28dd521e453b55732e88b330d82cf84e2e4d6c0a938c153ba82045e876444"},
    ("simulate-no-product", 1729): {
        "trajectory.csv": "ed437619a92d784a7314fb0bd52e89db24587c837a3f65a75b437195e357ecb0"},
    ("simulate-no-product", 5): {
        "trajectory.csv": "ca66ba9f6b1d31ab261f76c4a96f87a5f5dd02bdb5a7ced96fe524741b2c2aae"},
    ("walk", 1729): {"curve.csv": "6c23bd91dbaff18fba0e9391dc4476a4a7f9e429ae76a0b2ab028ee1e5a8c9b9",
                     "summary.json": "61ca5728a5d476547c89c53cd06f0498e7419ebcbcab50063e42fb3f099ade30"},
    ("walk", 5): {"curve.csv": "565b3e6574c9ac44ed2ccb7b3afda49b94e390b888de3218dd3c7214fc6c951e",
                  "summary.json": "61ca5728a5d476547c89c53cd06f0498e7419ebcbcab50063e42fb3f099ade30"},
    ("repro-all", 1729): {"stdout": "5d0c63b5cef95203842cb43b83bee83023fd41c13bda6a9d5a5ef96a96c15e6f"},
    ("repro-all", 5): {"stdout": "65ebb53727143be7eb92f27459568b3b7525084a7e72dfc38c5376137927d63e"},
}
SEEDLESS_DIGESTS = {
    "analyze-two_node_swap": {"stdout": "85d1e0fb8e06caec3682045a18b655479d83c3cfd69109e739b1c58cace75408"},
    "analyze-three_node_chain": {"stdout": "612dab321c04be09b15ea2e11c96ae5ed9f2e673b410541c89ac65293c4ad947"},
    "analyze-three_node_cycle": {"stdout": "3df64dd4d0e35e80e93087fa2e6d2e2f17a0d02eaa747e50ff3eb799037a088c"},
    "analyze-three_node_lazy_cycle": {
        "stdout": "2d9f21297b8dc61e2a8426ef5d70524a3363952e73dd06aa37739a64c4a7d13f"},
    "analyze-four_node_rooted": {"stdout": "808a64865a4017c2984b8d1bc0a32c032f0cf8780bf0fd112fe4dcb830fa20e6"},
    "analyze-four_node_ring": {"stdout": "4903566931860507d4fdff17e89368ec4727bfa9cc5a1458c3a795a02ae866cd"},
    "analyze-five_node_shift": {"stdout": "778f48d29876452251918ae5bb00dc0e44671ada2a86d06e482526950d877de3"},
    "analyze-six_node_coupled": {"stdout": "32fcc3c3a80a44a9c3ae27f4a05d2fdc6ef2dccfe9e2f23e5c2396eefeb121ac"},
    "verify-uniform_clock6": {"stdout": "b3e12f514d740bdfb7e5fa5fede5b615e608923080aa902de65f1e9279163bd3"},
    "verify-half_clocks6": {"stdout": "7f4d67f4be9592552bcbdff0cac3a498e1ae2cba1c0fa5b101b583cfcc986ea2"},
    "verify-synchronous6": {"stdout": "1cb78d06a0be05a4f66bc268b33af74b6e89f397863a353ac787220d185ed089"},
}


def run_case(case: str, seed) -> tuple:
    """Exit code and ``{output: sha256 hex}`` of one case at one seed, or of
    a seedless case when ``seed`` is None."""
    argv, outputs = CASES[case] if seed is not None else SEEDLESS_CASES[case]
    with tempfile.TemporaryDirectory() as out:
        for name, spec in SPECS.items():
            (Path(out) / name).write_text(json.dumps(spec))
        argv = [a.format(data=DATA, out=out) for a in argv]
        if seed is not None:
            argv += ["--seed", str(seed)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = dispatch(argv)
        blobs = {name: stdout.getvalue().encode() if name == "stdout"
                 else (Path(out) / name).read_bytes() for name in outputs}
    return code, {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_canonical_outputs_are_byte_identical(case, seed):
    code, digests = run_case(case, seed)
    assert code == 0
    assert digests == DIGESTS[case, seed]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("case", sorted(SEEDLESS_CASES))
def test_seedless_outputs_are_byte_identical(case):
    code, digests = run_case(case, None)
    assert code == 0
    assert digests == SEEDLESS_DIGESTS[case]


if __name__ == "__main__":
    print(f"numpy {np.__version__}", file=sys.stderr)
    for case in CASES:
        for seed in SEEDS:
            code, digests = run_case(case, seed)
            print(f"    ({case!r}, {seed}): {digests!r},  # exit {code}")
    for case in SEEDLESS_CASES:
        code, digests = run_case(case, None)
        print(f"    {case!r}: {digests!r},  # exit {code}")
