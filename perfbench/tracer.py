"""Span tracing of async_dca's layers, installed from outside the package.

``install`` wraps the public entry points of each layer.  A function is
replaced in every async_dca module namespace that holds it, because
``cli``, ``montecarlo`` and ``walk`` bind ``stream``, ``step`` and friends
with ``from ... import``; a method is replaced on every class that defines
it.  Each call records a span ``(name, start, end, parent)`` in memory.
Hooks on the two kernels also record work counts computed from their
argument shapes and return values.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" wraps that method on the
# class and on every subclass that overrides it.
TARGETS = (
    ("cli", "dispatch", "cli.dispatch"),
    ("montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("montecarlo", "replay", "montecarlo.replay"),
    ("_kernels", "trajectory_batch", "kernels.trajectory_batch"),
    ("_kernels", "walk_match_batch", "kernels.walk_match_batch"),
    ("rng", "stream", "rng.stream"),
    ("schedulers", "Scheduler.sample_masks", "schedulers.sample_masks"),
    ("schedulers", "Scheduler.draw", "schedulers.draw"),
    ("schedulers", "check_conditions", "schedulers.check_conditions"),
    ("engine", "step", "engine.step"),
    ("matrices", "ergodic_coefficient", "matrices.ergodic_coefficient"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "roots", "graphs.roots"),
    ("graphs", "is_sia", "graphs.is_sia"),
    ("graphs", "build_labelled_cycle", "graphs.build_labelled_cycle"),
    ("walk", "match_probability_curve", "walk.match_probability_curve"),
    ("walk", "DistanceChain.rate_certificate", "walk.rate_certificate"),
)


def _trajectory_counts(counts, args, kwargs, out):
    masks = args[1]
    track = kwargs.get("track_lambda", args[3] if len(args) > 3 else True)
    T, K, n = masks.shape
    counts["kernels.trajectory_batch.trial_steps"] += T * K
    counts["kernels.trajectory_batch.lambda_evals"] += T * (K + 1) if track else 0
    # bool masks, and float64 delta and lambda series of shape (T, K+1)
    counts["kernels.trajectory_batch.mask_bytes"] = max(
        counts["kernels.trajectory_batch.mask_bytes"], T * K * n)
    counts["kernels.trajectory_batch.series_bytes"] = max(
        counts["kernels.trajectory_batch.series_bytes"], 2 * T * (K + 1) * 8)


def _walk_counts(counts, args, kwargs, out):
    T, transitions = args[2].shape
    counts["kernels.walk_match_batch.uniforms"] += T * transitions
    # a trial matched at time h ran h-1 transitions; an unmatched one ran all
    counts["kernels.walk_match_batch.trial_steps"] += int(
        ((out - 1) * (out > 0)).sum() + transitions * (out <= 0).sum())


HOOKS = {
    "kernels.trajectory_batch": _trajectory_counts,
    "kernels.walk_match_batch": _walk_counts,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []      # (name index, start, end, parent index or -1, outermost)
        self.counts = defaultdict(int)
        self._stack: list = []
        self._active = defaultdict(int)

    def wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[name_id] == 0
            stack.append(idx)
            active[name_id] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name_id] -= 1
                stack.pop()
                spans[idx] = (name_id, start, end, parent, outer)
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "async_dca") -> None:
        importlib.import_module(package)
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(f"{package}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(owner, cls_name)
                for cls in (base, *_subclasses(base)):
                    if meth in vars(cls):
                        setattr(cls, meth, self.wrap(vars(cls)[meth], name))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus tree checks.

        Inclusive time counts only outermost spans of a name, so a method
        that calls its own override is not counted twice.  Self time is a
        span's duration minus its children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict = {}
        roots = 0
        self_total = 0.0
        min_self = 0.0
        for idx, (name_id, start, end, parent, outer) in enumerate(self.spans):
            own = (end - start) - child_time[idx]
            self_total += own
            min_self = min(min_self, own)
            roots += parent < 0
            row = layers.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            if outer:
                row["s"] += end - start
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "roots": roots,
            "self_total_s": self_total,
            "min_self_s": min_self,
        }

    def dump(self) -> list:
        return [{"name": self.names[n], "start": s, "end": e, "parent": p}
                for n, s, e, p, _ in self.spans]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
