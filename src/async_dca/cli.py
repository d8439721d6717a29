"""Command-line interface.

Subcommands: analyze, simulate, mc, verify-conditions, walk, repro.
Exit codes: 0 success, 1 failed replay assertion, 2 input error or a request
too large for memory.
Every subcommand is deterministic given --seed (default 1729).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .datasets import BUNDLED_MATRICES
from .errors import ValidationError
from .graphs import LabelledCycle, analysis_report, build_graph, build_labelled_cycle, roots
from .matrices import StochasticMatrix
from .montecarlo import (
    REPLAY_CASES, ExperimentConfig, check_product_rows, replay, run_experiment,
    trajectory_blocks,
)
from .rng import DEFAULT_SEED, SEED_CONTRACT
from .schedulers import ScriptScheduler, check_conditions, scheduler_from_json
from .walk import match_probability_curve


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_scheduler(path):
    return scheduler_from_json(_load_json(path))


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit_json(obj, path=None) -> None:
    text = json.dumps(obj, indent=2)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_analyze(args) -> int:
    report = analysis_report(StochasticMatrix.load(args.matrix))
    _emit_json(report, args.out)
    return 0


def _cmd_simulate(args) -> int:
    A = StochasticMatrix.load(args.matrix)
    if args.schedule is not None and args.scheduler is not None:
        raise ValidationError("give at most one of --schedule and --scheduler")
    if args.schedule is not None:
        scheduler = ScriptScheduler(A.n, _load_json(args.schedule))
        steps = len(scheduler.sets) if args.steps is None else args.steps
    elif args.scheduler is not None:
        scheduler = _load_scheduler(args.scheduler)
        if scheduler.n != A.n:
            raise ValidationError(
                f"scheduler has n={scheduler.n} but matrix is {A.n}x{A.n}"
            )
        if args.steps is None:
            raise ValidationError("--steps is required with --scheduler")
        steps = args.steps
    else:
        scheduler = ScriptScheduler(A.n, [])
        steps = args.steps or 0
        if steps != 0:
            raise ValidationError("--schedule or --scheduler is required for steps > 0")
    if steps < 0:
        raise ValidationError("--steps must be >= 0")

    if args.x0 == "random":
        x0 = "uniform"
    else:
        try:
            x0 = np.asarray(_load_json(args.x0), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--x0 file is not a numeric vector: {exc}") from exc
        if x0.shape != (A.n,):
            raise ValidationError(f"--x0 must hold {A.n} numbers")

    track = not args.no_product
    # mc --trials 1: the same stream, blocks and kernel
    deltas = np.empty(steps + 1)
    lams = np.empty(steps + 1)
    if steps:
        cfg = ExperimentConfig(A, scheduler, trials=1, horizon=steps, seed=args.seed,
                               init=x0, track_lambda=track)
        for k, d, lam, carry in trajectory_blocks(cfg):
            k1 = k + len(d)
            deltas[k:k1], lams[k:k1] = d[:, 0], lam[:, 0]
        deltas[k1:], lams[k1:] = deltas[k1 - 1], lams[k1 - 1]
        check_product_rows(carry)
    columns = [range(1, steps + 1), deltas[1:].tolist()]
    if track:
        columns.append(lams[1:].tolist())
    fh, close = _open_out(args.out)
    try:
        writer = csv.writer(fh)
        writer.writerow(["k", "delta"] + (["lambda_product"] if track else []))
        writer.writerows(zip(*columns))
    finally:
        if close:
            fh.close()
    return 0


def _cmd_mc(args) -> int:
    A = StochasticMatrix.load(args.matrix)
    scheduler = _load_scheduler(args.scheduler)
    cfg = ExperimentConfig(
        matrix=A,
        scheduler=scheduler,
        trials=args.trials,
        horizon=args.steps,
        epsilon=args.epsilon,
        seed=args.seed,
        track_lambda=not args.no_lambda,
    )
    result = run_experiment(cfg)
    fh, close = _open_out(args.out)
    try:
        writer = csv.writer(fh)
        writer.writerow(["k", "p_delta_tail", "p_lambda_tail"])
        writer.writerows(zip(range(result.horizon + 1), result.delta_tail.tolist(),
                             result.lambda_tail.tolist()))
    finally:
        if close:
            fh.close()
    _emit_json(result.to_json(), args.summary)
    return 0


def _cmd_verify_conditions(args) -> int:
    A = StochasticMatrix.load(args.matrix)
    scheduler = _load_scheduler(args.scheduler)
    report = check_conditions(scheduler, A, q_max=args.q_max)
    _emit_json(report.to_json(), args.out)
    return 0


def _cmd_walk(args) -> int:
    if (args.cycle is None) == (args.auto_from_matrix is None):
        raise ValidationError("give exactly one of --cycle or --auto-from-matrix")
    if args.cycle is not None:
        cycle = LabelledCycle.from_json(_load_json(args.cycle))
    else:
        A = StochasticMatrix.load(args.auto_from_matrix)
        G = build_graph(A)
        rep = roots(G)
        if not rep.rooted:
            raise ValidationError("matrix graph is not rooted; no root component to walk")
        cycle = build_labelled_cycle(G, rep.chi)
    curve = match_probability_curve(cycle, args.gamma, args.kmax, args.trials, args.seed)
    fh, close = _open_out(args.out)
    try:
        writer = csv.writer(fh)
        writer.writerow(["k", "empirical_match_prob", "bound_1_minus_c0_beta_k"])
        for row in curve.to_rows():
            writer.writerow(row)
    finally:
        if close:
            fh.close()
    summary = {
        "cycle_length": cycle.length,
        "labels": list(cycle.labels),
        "c0": curve.c0,
        "beta": curve.beta,
        "match_prob_at_kmax": float(curve.empirical[-1]),
        "seed_contract": SEED_CONTRACT,
    }
    _emit_json(summary, args.summary)
    return 0


def _cmd_repro(args) -> int:
    cases = REPLAY_CASES if args.case == "all" else (args.case,)
    reports = [replay(c, trials=args.trials, horizon=args.steps, seed=args.seed)
               for c in cases]
    payload = [r.to_json() for r in reports]
    _emit_json(payload[0] if len(payload) == 1 else payload, args.out)
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="async-dca",
        description="Random asynchronous iterations of distributed coordination "
                    "algorithms: analysis, simulation, and experiment replays. "
                    "Every subcommand is deterministic given --seed "
                    f"(default {DEFAULT_SEED}).",
        epilog=f"Bundled example matrices: {', '.join(BUNDLED_MATRICES)} "
               "(see the package data directory).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="connectivity / ergodicity report for a matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file {'n':..,'rows':..}")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="one asynchronous run, CSV of delta per step")
    p.add_argument("--matrix", required=True)
    p.add_argument("--schedule", help="JSON list of update sets to replay")
    p.add_argument("--scheduler", help="scheduler spec JSON file")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", default="random", help="'random' or a JSON vector file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--no-product", action="store_true",
                   help="skip the running product and its lambda column")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo tail probabilities over many trials")
    p.add_argument("--matrix", required=True)
    p.add_argument("--scheduler", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--summary", help="write the JSON summary here instead of stdout")
    p.add_argument("--no-lambda", action="store_true",
                   help="skip product tracking (lambda tail reported as all ones)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("verify-conditions",
                       help="check the almost-sure-consensus conditions")
    p.add_argument("--matrix", required=True)
    p.add_argument("--scheduler", required=True)
    p.add_argument("--q-max", type=int, default=16)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify_conditions)

    p = sub.add_parser("walk", help="backward cycle walk: match curve vs bound")
    p.add_argument("--cycle", help="cycle JSON file {'length':..,'labels':..}")
    p.add_argument("--auto-from-matrix",
                   help="build the cycle from a matrix's root component")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--kmax", type=int, default=200)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--summary", help="write the JSON summary here instead of stdout")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("repro", help="run a canned replay case and assert its outcome")
    p.add_argument("case", choices=REPLAY_CASES + ("all",))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_repro)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"async-dca: invalid input: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"async-dca: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"async-dca: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"async-dca: request too large: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
