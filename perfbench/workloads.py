"""The five canonical CLI workloads, their output checks and output-derived counts.

Every workload is one ``async-dca`` invocation on bundled data.  ``argv``
expands ``{data}`` (the package data directory) and ``{out}`` (a fresh
output directory) and appends ``--seed``.  A check returns a list of
failure messages; it holds for any valid implementation and seed, so none
compares against a particular run's bytes.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

INVARIANT_TOL = 1e-12
MONOTONE_TOL = 1e-12
SIMULATE_FINAL_DELTA = 1e-6
MC_INVARIANTS = ("max_contraction_violation", "max_lambda_increase", "max_product_row_error")


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _column(rows: list, idx: int) -> list:
    return [row[idx] for row in rows]


def _increases(values: list, tol: float = 0.0) -> int:
    """Number of steps at which the series rises by more than ``tol``."""
    return sum(1 for a, b in zip(values, values[1:]) if not b <= a + tol)


def _flag(argv: list, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_mc(out: Path, rc: int, argv: list) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    fails = []
    summary = json.loads((out / "summary.json").read_text())
    if summary["consensus_fraction"] != 1.0:
        fails.append(f"consensus_fraction {summary['consensus_fraction']} != 1.0")
    for key in MC_INVARIANTS:
        if not summary[key] <= INVARIANT_TOL:
            fails.append(f"{key} {summary[key]} > {INVARIANT_TOL}")
    _, rows = read_csv(out / "tails.csv")
    if len(rows) != _flag(argv, "--steps") + 1:
        fails.append(f"tail CSV has {len(rows)} rows for {_flag(argv, '--steps')} steps")
    for idx, col in ((1, "p_delta_tail"), (2, "p_lambda_tail")):
        if n := _increases(_column(rows, idx)):
            fails.append(f"{col} increases at {n} steps")
    return fails


def check_walk(out: Path, rc: int, argv: list) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    fails = []
    _, rows = read_csv(out / "curve.csv")
    if len(rows) != _flag(argv, "--kmax"):
        fails.append(f"curve CSV has {len(rows)} rows for kmax {_flag(argv, '--kmax')}")
    empirical, bound = _column(rows, 1), _column(rows, 2)
    if n := _increases([-v for v in empirical]):
        fails.append(f"empirical match curve decreases at {n} steps")
    if below := sum(1 for e, b in zip(empirical, bound) if not e >= b):
        fails.append(f"empirical match curve below the bound at {below} steps")
    return fails


def check_simulate(out: Path, rc: int, argv: list) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    fails = []
    _, rows = read_csv(out / "trajectory.csv")
    if len(rows) != _flag(argv, "--steps"):
        fails.append(f"trajectory CSV has {len(rows)} rows for {_flag(argv, '--steps')} steps")
    for idx, col in ((1, "delta"), (2, "lambda_product")):
        if n := _increases(_column(rows, idx), MONOTONE_TOL):
            fails.append(f"{col} increases by more than {MONOTONE_TOL} at {n} steps")
    if rows and not rows[-1][1] < SIMULATE_FINAL_DELTA:
        fails.append(f"final delta {rows[-1][1]} >= {SIMULATE_FINAL_DELTA}")
    return fails


def check_repro(out: Path, rc: int, argv: list) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    payload = json.loads((out / "repro.json").read_text())
    reports = payload if isinstance(payload, list) else [payload]
    if not reports:
        return ["repro reported no cases"]
    return [f"case {r['case']} not ok: {r['failures']}" for r in reports if not r["ok"]]


def mc_useful_frac(out: Path, argv: list) -> dict:
    """Share of the horizon before every trial's tracked tails reach 0.

    Read from the tail CSV; the lambda tail counts only when it is tracked.
    After that step every trial has converged and the remaining kernel
    work changes no output.
    """
    _, rows = read_csv(out / "tails.csv")
    horizon = len(rows) - 1
    tracked = (1,) if "--no-lambda" in argv else (1, 2)
    done = next((int(row[0]) for row in rows if all(row[i] == 0.0 for i in tracked)), horizon)
    return {"kernels.trajectory_batch.useful_frac": done / horizon}


def _no_counts(out: Path, argv: list) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple
    check: Callable[[Path, int, list], list]
    output_counts: Callable[[Path, list], dict] = _no_counts
    tiny: dict = field(default_factory=dict)

    def argv(self, data: Path, out: Path, seed: int, tiny: bool = False) -> list:
        """Full argv; ``tiny`` swaps in the self-test's small sizes."""
        argv = [a.format(data=data, out=out) for a in self.args]
        if tiny:
            for flag, value in self.tiny.items():
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
        return argv + ["--seed", str(seed)]


_MC_OUT = ("--out", "{out}/tails.csv", "--summary", "{out}/summary.json")

WORKLOADS = {w.name: w for w in (
    Workload(
        "mc-lambda",
        "mc 200x5000 on uniform_clock6 with lambda tracked; the kernel's ergodic-coefficient "
        "and product path dominates (streaming-kernel work)",
        ("mc", "--matrix", "{data}/six_node_coupled.json",
         "--scheduler", "{data}/uniform_clock6.json",
         "--trials", "200", "--steps", "5000") + _MC_OUT,
        check_mc, mc_useful_frac, {"--trials": "8", "--steps": "400"},
    ),
    Workload(
        "mc-clocks",
        "mc 1000x5000 on half_clocks6 without lambda; same kernel minus the lambda path, "
        "vectorised sample_masks, and series and masks large enough to show in peak RSS",
        ("mc", "--matrix", "{data}/six_node_coupled.json",
         "--scheduler", "{data}/half_clocks6.json",
         "--trials", "1000", "--steps", "5000", "--no-lambda") + _MC_OUT,
        check_mc, mc_useful_frac, {"--trials": "8", "--steps": "400"},
    ),
    Workload(
        "walk",
        "backward cycle walk, 50k trials x kmax 200; per-trial rng.stream setup dominates "
        "(vectorised-streams work) and the trajectory kernel is never touched",
        ("walk", "--auto-from-matrix", "{data}/six_node_coupled.json", "--gamma", "0.2",
         "--kmax", "200", "--trials", "50000",
         "--out", "{out}/curve.csv", "--summary", "{out}/summary.json"),
        check_walk, tiny={"--trials": "200"},
    ),
    Workload(
        "simulate",
        "simulate 16k steps on uniform_clock6; the only workload on engine.step, "
        "per-tick Scheduler.draw, matrices.ergodic_coefficient and per-step CSV output",
        ("simulate", "--matrix", "{data}/six_node_coupled.json",
         "--scheduler", "{data}/uniform_clock6.json", "--steps", "16000",
         "--out", "{out}/trajectory.csv"),
        check_simulate, tiny={"--steps": "800"},
    ),
    # Run by hand, not listed in BENCHMARK.json: under the CPU contention of
    # shared virtual machines its 20 s run medians spread up to 17% between
    # runs, beyond what a regression gate can use.
    Workload(
        "repro",
        "repro all; graphs and check_conditions, dominated by the per-tick, history-dependent "
        "MarkovScheduler.draw rather than vectorised sample_masks",
        ("repro", "all", "--out", "{out}/repro.json"),
        check_repro, tiny={"--trials": "20", "--steps": "120"},
    ),
)}
