"""Byte-for-byte golden outputs of the canonical CLI runs.

Each case is one canonical ``async-dca`` invocation (the workloads of
``perfbench/workloads.py``, plus ``simulate --no-product``, ``repro all``
and ``mc`` under a Markov and a period-3 support-sequence scheduler), run
in process at seeds 1729 and 5.  The SHA-256 of each output is
compared with a digest recorded before the streamed ``mc`` pipeline (the
Markov and support-sequence cases: before those schedulers drew in
blocks; the walk case: after its certificate took the exact rate of the
distance chain), so every refactor since keeps every output byte.  A change
that alters an output must update its digest here and name the change in
CHANGES.md.

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

DIGESTS = {
    ("mc-lambda", 1729): {"tails.csv": "51175e2227e1a089779267e4f16e8ca627a083d80c041a29ea3d3a6ed2576078",
                          "summary.json": "d732576d1263841c75be9ceb556fa3eacf89f3e786cea90fe70a67926c051f53"},
    ("mc-lambda", 5): {"tails.csv": "9edf784e83abd0657dd5cf96868f55f015fa0f8d1e150c1d4b2e588cd2657ea9",
                       "summary.json": "b0ed12c58247bfe2a2cb793da2c869c0a2ec31456c8f4d59ca077f8e146946a8"},
    ("mc-clocks", 1729): {"tails.csv": "291eb9b58e6158f6367a31e8826d7bf5251e4bd41dad08df5128fdab10c2b0ab",
                          "summary.json": "35098a02eff294ed907fe4758418fe5b3a524b0560efbc0b0f327643f4222d60"},
    ("mc-clocks", 5): {"tails.csv": "4b7da2ba087032f4e6bfc98ececb1873e1faa12a2b14cec09debb76456ded24c",
                       "summary.json": "1909660959d59e727d14718990c0a38237d6ac656818761314360efa196dd2f1"},
    ("mc-markov", 1729): {"tails.csv": "0f078d5fd8dfd648a2d0a3dfd440e30ff023d4cb291c132d93b2620b5d789bdd",
                          "summary.json": "9ea32daed6b0bcb65f8b76d099d05a0dcd236a321659097cfc03942888e5247e"},
    ("mc-markov", 5): {"tails.csv": "7addc66367a0633c7814ecfa64acd9e3eceace28d08ffe6e7abdcaef85a20755",
                       "summary.json": "c6dd7f27fbf84238d02470c6ceaef31cec622fcafb022974296037929cb0365c"},
    ("mc-period3", 1729): {"tails.csv": "b4634ad9de84595a35fbbc5474929d546b8e831b92407e477511c8b2540fc0b4",
                           "summary.json": "173e0e8054052f2d5177d32da070184f3e77511cfe65eaa4e20b3af3440d189e"},
    ("mc-period3", 5): {"tails.csv": "08f37dbc3f82a76f7b2768c8f42e7152c04bfd24d7583fc74435c0e0628e3bef",
                        "summary.json": "96feccc416ad427239f787bca5ffb051a2f14dfe9c5eec708a1716b989922ba0"},
    ("simulate", 1729): {"trajectory.csv": "186fdc9423e3d0cdaf213f975f1a33f5c675b70eb44a12a19d870af5ce78e484"},
    ("simulate", 5): {"trajectory.csv": "c6c28dd521e453b55732e88b330d82cf84e2e4d6c0a938c153ba82045e876444"},
    ("simulate-no-product", 1729): {
        "trajectory.csv": "ed437619a92d784a7314fb0bd52e89db24587c837a3f65a75b437195e357ecb0"},
    ("simulate-no-product", 5): {
        "trajectory.csv": "ca66ba9f6b1d31ab261f76c4a96f87a5f5dd02bdb5a7ced96fe524741b2c2aae"},
    ("walk", 1729): {"curve.csv": "bf5c209d6d340342c2729297368782cee06ca471b88ca38e565049e388f9b21c",
                     "summary.json": "186454748d86e150cdc8e2b0d5af39a5acaa895d39eeaf21f480eb08c7f940cf"},
    ("walk", 5): {"curve.csv": "422c720dab1ebcfdbd7935a4573c602cea1260b6096450d9697e79a0f1533c91",
                  "summary.json": "186454748d86e150cdc8e2b0d5af39a5acaa895d39eeaf21f480eb08c7f940cf"},
    ("repro-all", 1729): {"stdout": "a9a6a4f2468275a2a7bd175c056b5ebe8a2a3d0e4afb8031a5e2b4418f127aeb"},
    ("repro-all", 5): {"stdout": "447b8ccb0254ae73b4ee0db5f1ff2180210a7980540d598ddbfd2c6445d48466"},
}


def run_case(case: str, seed: int) -> tuple:
    """Exit code and ``{output: sha256 hex}`` of one case at one seed."""
    argv, outputs = CASES[case]
    with tempfile.TemporaryDirectory() as out:
        for name, spec in SPECS.items():
            (Path(out) / name).write_text(json.dumps(spec))
        argv = [a.format(data=DATA, out=out) for a in argv] + ["--seed", str(seed)]
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


if __name__ == "__main__":
    print(f"numpy {np.__version__}", file=sys.stderr)
    for case in CASES:
        for seed in SEEDS:
            code, digests = run_case(case, seed)
            print(f"    ({case!r}, {seed}): {digests!r},  # exit {code}")
