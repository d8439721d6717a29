"""One workload invocation in a fresh Python process.

Usage: child.py SPEC_JSON, where the spec holds ``argv``, ``src`` (the
directory async_dca must be imported from), ``traced`` and ``result`` (the
file this process writes its measurements to).

Set-up ends when the dispatch call is ready: the interpreter has started,
``async_dca`` (and numpy with it) is imported, and the workload's argv has
been parsed by the CLI's own parser and its matrix and scheduler JSON
loaded through the library, so bad inputs fail before timing starts.
``dispatch`` parses and loads them again inside the timed call.

From the start of this script until the call returns, a speed probe runs
every ``PROBE_PERIOD_S`` from a SIGALRM handler on the same CPU as the
workload.  It times a fixed pure-Python loop, which follows the
interpreter's speed, and two copies of a tuple of objects scattered over
about 2 MB, which follow cache contention.  The CPU speed of the shared
virtual machines this benchmark targets swings by up to 1.6x within
seconds, with no steal time visible to the guest.  The lower quartile of
the probe times tracks that swing (correlation 0.9 to 0.97 with the
dispatch time) and lets the harness rescale set-up and call times to a
reference speed, which halves their spread.  It costs about 2% of each.
"""
import signal
import time

PROBE_PERIOD_S = 0.01
PROBE_LOOP = 2000
PROBE_OBJECTS = 8000
# visited in a fixed scattered order (7919 is prime, so this is a permutation)
_scattered = [frozenset((i, -i)) for i in range(PROBE_OBJECTS)]
_scattered = [_scattered[(i * 7919) % PROBE_OBJECTS] for i in range(PROBE_OBJECTS)]
probes: list = []  # (start, duration)


def _probe(signum, frame):
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    tuple(_scattered)
    tuple(_scattered)
    probes.append((start, time.perf_counter() - start))


def _lower_quartile(values: list):
    return sorted(values)[len(values) // 4] if values else None


signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

spec = json.loads(sys.argv[1])

import async_dca  # noqa: E402
from async_dca import cli  # noqa: E402
from async_dca.matrices import StochasticMatrix  # noqa: E402
from async_dca.schedulers import scheduler_from_json  # noqa: E402

src = Path(spec["src"]).resolve()
if src not in Path(async_dca.__file__).resolve().parents:
    sys.exit(f"async_dca imported from {async_dca.__file__}, not from {src}")

args = cli.build_parser().parse_args(spec["argv"])
for path in filter(None, (getattr(args, "matrix", None), getattr(args, "auto_from_matrix", None))):
    StochasticMatrix.load(path)
if getattr(args, "scheduler", None):
    scheduler_from_json(json.loads(Path(args.scheduler).read_text()))

tracer = None
if spec["traced"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

ready = time.monotonic()
start = time.perf_counter()
rc = cli.dispatch(spec["argv"])
wall = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0.0)

result = {
    "rc": rc,
    "ready": ready,
    "wall_s": wall,
    "setup_probe_s": _lower_quartile([d for t, d in probes if t < start]),
    "probe_s": _lower_quartile([d for t, d in probes if t >= start]),
    "probes": len(probes),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "backend": async_dca.backend_name(),
    "numpy": sys.modules["numpy"].__version__,
    "python": sys.version.split()[0],
}
if tracer is not None:
    result["trace"] = tracer.summary()
    if spec.get("spans"):
        Path(spec["spans"]).write_text(json.dumps(tracer.dump()))
Path(spec["result"]).write_text(json.dumps(result))
