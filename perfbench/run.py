"""Repo benchmark: canonical async-dca CLI runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; async_dca is imported from its
``src/`` directory and nothing is installed.  Load is a closed loop with
one client: each invocation of the workload is a fresh Python process
(``child.py``) that calls ``async_dca.cli.dispatch`` once with the
workload's fixed argv and writes its outputs to a temporary directory under
``.perfbench/``.  The next invocation starts when the previous one has
ended and its outputs have been checked, until ``--seconds`` is spent.

With ``--trace 0`` the end-to-end metrics are the medians over the run's
invocations of ``wall_s`` (the dispatch call), ``setup_s`` (process start
until the call is ready) and ``peak_rss_mb`` (``ru_maxrss``).  Both times
are rescaled to a reference CPU speed: the raw time times ``PROBE_REF_S``
over the lower-quartile time of the speed probe that ``child.py`` runs on
the same CPU during that phase.  On a quiet CPU raw and rescaled times
agree; on a CPU slowed by neighbouring virtual machines the rescaled ones
spread about half as much between invocations (5-7% against 10-12%).
Raw times and speed factors stay in the report.
With ``--trace 1`` untraced and traced invocations alternate; the per-layer
metrics come from the traced ones and ``trace.overhead_s`` is the
difference of the two ``wall_s`` medians.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``; ``attempted`` is the number of invocations (the sample
count) and ``failed`` those that exited non-zero, failed an output check,
or repeated a computed count inexactly.  The line before it is a report
with the run manifest and every sample, also written to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "async_dca" / "data"
WORK = ROOT / ".perfbench"

# One thread everywhere: the machine has 2 cores and the program, not the
# OS scheduler, is what is measured.
PINNED = {
    "ASYNC_DCA_THREADS": "1",
    "ASYNC_DCA_KERNELS": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_SAMPLES = 3          # untraced invocations per --trace 0 run
MIN_PAIRS = 2            # untraced/traced pairs per --trace 1 run
DEADLINE_S = 170.0       # a run must end within 180 s
TREE_TOL_S = 1e-6
# Lower-quartile probe time on an uncontended CPU of the 2-vCPU virtual machine the
# benchmark was defined on (Python 3.11); a unit for wall_s, not a target.
PROBE_REF_S = 150e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = (
    "kernels.trajectory_batch", "kernels.walk_match_batch", "rng.stream",
    "schedulers.sample_masks", "schedulers.draw", "schedulers.check_conditions",
    "engine.step", "matrices.ergodic_coefficient",
    "graphs.build_graph", "graphs.roots", "graphs.is_sia", "graphs.build_labelled_cycle",
    "walk.match_probability_curve", "walk.rate_certificate",
    "montecarlo.run_experiment", "montecarlo.replay", "cli.dispatch",
)
# Computed from array shapes, kernel return values or output files; these
# must repeat exactly between invocations of one seed.
COUNTS = {
    "kernels.trajectory_batch.trial_steps": "count",
    "kernels.trajectory_batch.lambda_evals": "count",
    "kernels.trajectory_batch.mask_bytes": "bytes",
    "kernels.trajectory_batch.series_bytes": "bytes",
    "kernels.trajectory_batch.useful_frac": "ratio",
    "kernels.walk_match_batch.uniforms": "count",
    "kernels.walk_match_batch.trial_steps": "count",
}
TRACE = {
    "trace.overhead_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.spans": "count",
}
PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **COUNTS,
    **TRACE,
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED)


def _speed(probe_s: float | None) -> float:
    """CPU speed relative to the reference; 1.0 when no probe fired."""
    return PROBE_REF_S / probe_s if probe_s else 1.0


def invoke(workload, seed: int, traced: bool, out: Path, deadline: float,
           tiny: bool = False, spans: Path | None = None) -> dict:
    """Run one invocation in a fresh process, then check its outputs."""
    out.mkdir(parents=True)
    argv = workload.argv(DATA, out, seed, tiny=tiny)
    spec = {"argv": argv, "src": str(SRC), "traced": traced,
            "result": str(out / "result.json"), "spans": str(spans) if spans else None}
    sample = {"traced": traced, "failures": []}
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        sample["failures"].append("invocation timed out")
        return sample
    sample["elapsed_s"] = time.monotonic() - t0
    if proc.returncode != 0:
        sample["failures"].append(f"child exited {proc.returncode}: {proc.stderr[-400:]}")
        return sample
    result = json.loads((out / "result.json").read_text())
    speed = _speed(result["probe_s"])
    setup_speed = _speed(result["setup_probe_s"])
    setup = result["ready"] - t0
    sample.update(rc=result["rc"], wall_s=result["wall_s"] * speed, raw_wall_s=result["wall_s"],
                  speed=speed, setup_s=setup * setup_speed, raw_setup_s=setup,
                  setup_speed=setup_speed, probes=result["probes"],
                  peak_rss_mb=result["peak_rss_mb"],
                  env={k: result[k] for k in ("backend", "numpy", "python")})
    try:
        sample["failures"] += workload.check(out, result["rc"], argv)
        counts = workload.output_counts(out, argv) if result["rc"] == 0 else {}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        sample["failures"].append(f"unreadable output: {exc!r}")
        counts = {}
    if traced:
        trace = result["trace"]
        dispatch = trace["layers"]["cli.dispatch"]["s"]
        if trace["roots"] != 1:
            sample["failures"].append(f"trace has {trace['roots']} root spans, expected 1")
        if abs(trace["self_total_s"] - dispatch) > TREE_TOL_S or trace["min_self_s"] < -TREE_TOL_S:
            sample["failures"].append("span self-times do not add up to the dispatch span")
        sample["trace"] = trace
        sample["trace_counts"] = {**trace["counts"], **{
            f"{name}.calls": row["calls"] for name, row in trace["layers"].items()}}
    sample["counts"] = counts
    return sample


def run(workload, seed: int, seconds: int, traced: bool, work: Path) -> list:
    """Closed loop of invocations for about ``seconds``; returns the samples."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    pattern = (False, True) if traced else (False,)
    samples: list = []
    while True:
        for kind in pattern:
            spans = work.parent / f"spans-{workload.name}.json" if kind and not any(
                s["traced"] for s in samples) else None
            samples.append(invoke(workload, seed, kind, work / f"inv-{len(samples)}",
                                  deadline, spans=spans))
        elapsed = time.monotonic() - started
        per_round = elapsed / (len(samples) // len(pattern))
        enough = len(samples) >= (2 * MIN_PAIRS if traced else MIN_SAMPLES)
        if (enough and elapsed + per_round > seconds) or elapsed + per_round > DEADLINE_S - 10:
            break
    for key in ("counts", "trace_counts"):
        done = [s for s in samples if key in s]
        for s in done[1:]:
            if s[key] != done[0][key]:
                s["failures"].append(f"{key} differ between invocations: "
                                     f"{s[key]} vs {done[0][key]}")
    return samples


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def metrics(samples: list, traced: bool) -> dict:
    timed = [s for s in samples if "wall_s" in s]
    if not traced:
        return {name: {"value": _median(timed, name), "unit": unit}
                for name, unit in END_TO_END.items()}
    plain = [s for s in timed if not s["traced"]]
    traces = [s for s in timed if s["traced"]]
    values = {}
    for layer in LAYERS:
        rows = [s["trace"]["layers"].get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for s in traces]
        values[f"{layer}.calls"] = rows[0]["calls"]
        values[f"{layer}.s"] = statistics.median(r["s"] for r in rows)
        values[f"{layer}.self_s"] = statistics.median(r["self_s"] for r in rows)
    counts = {**traces[0]["counts"], **traces[0]["trace_counts"]}
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["trace.traced_wall_s"] = _median(traces, "wall_s")
    values["trace.untraced_wall_s"] = _median(plain, "wall_s")
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    values["trace.spans"] = traces[0]["trace"]["spans"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(seed: int, samples: list) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    env = next((s["env"] for s in samples if "env" in s), {})
    return {
        "git_hash": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "backend": env.get("backend"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": PINNED,
        "seed": seed,
        "argv": {name: w.argv(Path("<data>"), Path("<out>"), seed) for name, w in WORKLOADS.items()},
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "async_dca" / "__init__.py").is_file():
        print(f"perfbench: no async_dca sources under {SRC}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import async_dca"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"perfbench: cannot import async_dca: {warm.stderr[-400:]}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    try:
        samples = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(not any("wall_s" in s for s in samples if s["traced"] == kind)
           for kind in {False, bool(args.trace)}):
        print(f"perfbench: no invocation completed: {samples[0]['failures']}", file=sys.stderr)
        return 1

    failed = sum(1 for s in samples if s["failures"])
    values = metrics(samples, bool(args.trace))
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": values}
    # each layer's median inclusive time as a share of the dispatch span
    split = {layer: values[f"{layer}.s"]["value"] / values["cli.dispatch.s"]["value"]
             for layer in LAYERS} if args.trace else {}
    report = {"workload": workload.name, "why": workload.why, "trace": args.trace,
              "manifest": manifest(args.seed, samples), "split": split,
              "samples": [{k: v for k, v in s.items() if k not in ("trace", "env")}
                          for s in samples]}
    (WORK / f"report-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
