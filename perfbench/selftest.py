"""Fast self-test of the benchmark harness at tiny workload sizes.

    python3 perfbench/selftest.py

Checks that every output check counts a failure on a deliberately corrupted
output, that traced runs form one span tree whose self-times add up to the
dispatch span, that the computed counts match the workload sizes, and that
BENCHMARK.json names the workloads and metrics this harness reports.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, read_csv  # noqa: E402

SEED = 3
BASE = run.WORK / "selftest"
_valid: dict = {}


def setUpModule():
    """One tiny traced invocation per workload, shared by the tests."""
    shutil.rmtree(BASE, ignore_errors=True)
    BASE.mkdir(parents=True)
    for name, workload in WORKLOADS.items():
        out = BASE / name
        sample = run.invoke(workload, SEED, True, out, time.monotonic() + 120, tiny=True,
                            spans=BASE / f"spans-{name}.json")
        _valid[name] = (out, sample, workload.argv(run.DATA, out, SEED, tiny=True))


def tearDownModule():
    shutil.rmtree(BASE, ignore_errors=True)


def _edit_csv(path: Path, edit) -> None:
    header, rows = read_csv(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _set(obj, key, value):
    obj[key] = value


def _raise_at(col: int, k: int, by: float):
    def edit(rows):
        rows[k][col] = rows[k - 1][col] + by
    return edit


def _fail_first_case(payload):
    payload[0]["ok"] = False
    payload[0]["failures"] = ["corrupted"]


CORRUPTIONS = {
    "mc-lambda": [
        ("summary.json", lambda o: _set(o, "consensus_fraction", 0.99)),
        ("summary.json", lambda o: _set(o, "max_lambda_increase", 1e-9)),
        ("summary.json", lambda o: _set(o, "max_product_row_error", 1e-6)),
        ("tails.csv", _raise_at(1, 5, 0.01)),
        ("tails.csv", _raise_at(2, 5, 0.01)),
    ],
    "mc-clocks": [
        ("summary.json", lambda o: _set(o, "consensus_fraction", 0.99)),
        ("summary.json", lambda o: _set(o, "max_contraction_violation", 1e-9)),
        ("tails.csv", _raise_at(1, 3, 0.005)),
    ],
    "walk": [
        ("curve.csv", lambda rows: rows[-1].__setitem__(2, rows[-1][1] + 1e-6)),
        ("curve.csv", lambda rows: rows[-1].__setitem__(1, rows[-2][1] - 1e-6)),
    ],
    "simulate": [
        ("trajectory.csv", _raise_at(1, 10, 1e-9)),
        ("trajectory.csv", _raise_at(2, 10, 1e-9)),
        ("trajectory.csv", lambda rows: rows[-1].__setitem__(1, 1e-3)),
    ],
    "repro": [
        ("repro.json", _fail_first_case),
    ],
}


class Checks(unittest.TestCase):
    def test_valid_outputs_pass(self):
        for name, (_, sample, _) in _valid.items():
            self.assertEqual(sample["failures"], [], name)

    def test_corrupted_outputs_fail(self):
        for name, corruptions in CORRUPTIONS.items():
            out, _, argv = _valid[name]
            check = WORKLOADS[name].check
            self.assertNotEqual(check(out, 1, argv), [], f"{name}: exit code 1")
            for idx, (fname, edit) in enumerate(corruptions):
                bad = BASE / f"{name}-bad{idx}"
                shutil.copytree(out, bad)
                path = bad / fname
                (_edit_json if fname.endswith(".json") else _edit_csv)(path, edit)
                self.assertNotEqual(check(bad, 0, argv), [], f"{name}: corruption {idx}")

    def test_every_workload_has_a_corruption(self):
        self.assertEqual(set(CORRUPTIONS), set(WORKLOADS))


class Trace(unittest.TestCase):
    def test_spans_form_one_tree_under_dispatch(self):
        for name, (out, sample, _) in _valid.items():
            spans = json.loads((BASE / f"spans-{name}.json").read_text())
            roots = [s for s in spans if s["parent"] < 0]
            self.assertEqual([s["name"] for s in roots], ["cli.dispatch"], name)
            for s in spans:
                if s["parent"] >= 0:
                    parent = spans[s["parent"]]
                    self.assertLessEqual(parent["start"], s["start"], name)
                    self.assertLessEqual(s["end"], parent["end"], name)

    def test_self_times_add_up_to_dispatch(self):
        for name, (_, sample, _) in _valid.items():
            trace = sample["trace"]
            dispatch = trace["layers"]["cli.dispatch"]["s"]
            total = sum(row["self_s"] for row in trace["layers"].values())
            self.assertAlmostEqual(total, dispatch, delta=1e-6, msg=name)

    def test_each_workload_reaches_its_layer(self):
        expected = {
            "mc-lambda": "kernels.trajectory_batch",
            "mc-clocks": "schedulers.sample_masks",
            "walk": "kernels.walk_match_batch",
            "simulate": "engine.step",
            "repro": "schedulers.draw",
        }
        for name, layer in expected.items():
            self.assertGreater(_valid[name][1]["trace"]["layers"][layer]["calls"], 0, name)


class Counts(unittest.TestCase):
    def test_kernel_counts_follow_the_sizes(self):
        T, K, n = 8, 400, 6
        lam = {**_valid["mc-lambda"][1]["counts"], **_valid["mc-lambda"][1]["trace_counts"]}
        self.assertEqual(lam["kernels.trajectory_batch.trial_steps"], T * K)
        self.assertEqual(lam["kernels.trajectory_batch.lambda_evals"], T * (K + 1))
        self.assertEqual(lam["kernels.trajectory_batch.mask_bytes"], T * K * n)
        self.assertEqual(lam["kernels.trajectory_batch.series_bytes"], 2 * T * (K + 1) * 8)
        self.assertTrue(0 < lam["kernels.trajectory_batch.useful_frac"] < 1)
        clocks = _valid["mc-clocks"][1]["trace_counts"]
        self.assertEqual(clocks["kernels.trajectory_batch.lambda_evals"], 0)
        walk = _valid["walk"][1]["trace_counts"]
        self.assertEqual(walk["kernels.walk_match_batch.uniforms"], 200 * 199)
        self.assertTrue(0 < walk["kernels.walk_match_batch.trial_steps"] < 200 * 199)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for w in spec["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_fails_without_sources(self):
        bare = BASE / "bare"
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "walk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
