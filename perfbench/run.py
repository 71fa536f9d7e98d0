"""The repository's benchmark: one workload per call, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_programs --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``loads.py`` for why each was chosen): ``paper_programs``,
``notebook_session``, ``remote_lake``.

The command re-runs itself in a child process whose ``PYTHONHASHSEED``
comes from ``--seed``: the dataset generators seed from Python's salted
``hash()``, so the seed fixes the data as well as the op stream.  The
child sets the workload up several times (``setup_s`` is the median),
then runs whole rounds of ops from one single-threaded client until the
ops have taken ``--seconds``, checking every op's result against a
reference computed during set-up.  It prints a table, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

Times are *reference* times (see :class:`SpeedProbe`): on a shared
host the same code can run twice as slow from one stretch of seconds to
the next, so each interval's CPU seconds are scaled by how fast three
fixed kernels ran just before it, and its off-CPU wall time is kept as
measured.  A change that makes the program do more work still reads
slower; a busy neighbour does not.  The table also prints the measured
wall seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures the
same untraced phase, sets up again, then measures a second phase with
the per-layer wrappers of ``tracing.py`` installed, and reports the
per-layer metrics, all per op:

- ``*_ms`` is the layer's self time, except ``core.optimizer.total_ms``,
  which includes the passes it calls; ``workloads.runner.overhead_ms``
  is op time outside every layer span (the runner, or the client
  building its query);
- counts and sizes are read at the layer boundaries (optimizer report,
  scheduler stats, memory manager, node registry);
- ``rss_kb_per_op`` is the untraced phase's RSS growth per op;
- ``trace.coverage`` is the share of op wall time inside some layer
  span, and ``trace.overhead.*`` the traced minus the untraced number.

The spans are written to ``.perfbench/trace-<workload>-seed<seed>.json``
(Chrome trace-event format).

An op that raises or returns a result different from its reference is
*failed*: it counts against ``ok_share`` and is left out of the latency
and throughput numbers, so a later fix that turns a failure into a
success does not read as a slowdown.  ``correct`` is false when any op
returned a wrong result (an op that raised is failed but not wrong).

``--tiny`` and ``--corrupt-reference`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: end-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_mb", "MiB"),
    ("rss_peak_mb", "MiB"),
    ("ok_share", "ratio"),
)

#: per-layer metrics: (name, unit).  ``*_ms`` are self time per op.
PER_LAYER = (
    ("analysis.jit.rewrite_ms", "ms"),
    ("analysis.plan.gate_ms", "ms"),
    ("analysis.plan.calls", "count"),
    ("core.session.collect_ms", "ms"),
    ("core.optimizer.total_ms", "ms"),
    ("core.optimizer.cse_ms", "ms"),
    ("core.optimizer.pushdown_ms", "ms"),
    ("core.optimizer.projection_ms", "ms"),
    ("core.optimizer.metadata_ms", "ms"),
    ("core.optimizer.pruning_ms", "ms"),
    ("core.optimizer.shuffle_ms", "ms"),
    ("core.optimizer.rewrites", "count"),
    ("graph.scheduler.execute_ms", "ms"),
    ("graph.scheduler.estimate_ms", "ms"),
    ("graph.scheduler.order_ms", "ms"),
    ("graph.scheduler.queue_wait_ms", "ms"),
    ("graph.scheduler.nodes_executed", "count"),
    ("backends.op_ms", "ms"),
    ("io.read_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.fetch_ms", "ms"),
    ("io.fetch_count", "count"),
    ("io.bytes_read_mb", "MiB"),
    ("io.prefetch_hit_ratio", "ratio"),
    ("memory.registered_mb", "MiB"),
    ("memory.spilled_mb", "MiB"),
    ("session.nodes_per_op", "count"),
    ("rss_kb_per_op", "KiB"),
    ("workloads.runner.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead.latency_ms_p50", "ms"),
    ("trace.overhead.ops_per_s", "1/s"),
)

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: the speed probe's duration at the reference speed, and how often the
#: client re-probes while measuring.
REFERENCE_PROBE_S = 0.0012
PROBE_EVERY_S = 0.2
#: a phase stops after this many times ``--seconds`` of wall time even
#: if its ops took fewer reference seconds (a very slow machine).
WALL_CAP = 4
#: the child must finish well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170
MIB = float(1 << 20)


def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up (self-test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="break one reference on purpose (self-test)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` a benchmark seed maps to."""
    return seed % (2 ** 32)


# ---------------------------------------------------------------------------
# Parent: check the checkout, run the child with a pinned hash seed.
# ---------------------------------------------------------------------------


def _parent(args: argparse.Namespace, argv: List[str]) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(args.seed))
    # temporary files (spill directories) stay inside the checkout and
    # go with the run's work directory
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["PERFBENCH_WORKDIR"] = workdir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.abspath(__file__), "--child", *argv]
    # on SIGTERM, unwind through subprocess.run, which kills and reaps
    # the child before the exception leaves it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        return subprocess.run(command, env=env,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Child: set up, measure, report.
# ---------------------------------------------------------------------------


class SpeedProbe:
    """Scales measured times to a reference machine speed.

    On a shared host the same code runs at different speeds from one
    stretch of seconds to the next (a fixed pure-Python loop took from
    1.8 to 4.2 ms within two minutes on a 2-vCPU virtual machine).  So
    the client times three fixed kernels (:meth:`refresh`, at most
    every :data:`PROBE_EVERY_S`) -- interpreter arithmetic, small-object
    allocation and sorting, and NumPy array work, the three kinds of
    work the workloads do -- and :meth:`scale` converts a measured
    interval to *reference seconds*: its CPU seconds times
    ``REFERENCE_PROBE_S / probe``, plus its wall time spent off the CPU
    (waiting on a remote read, say), which does not depend on machine
    speed.  The kernels use no code of the program under test.
    """

    def __init__(self):
        import numpy as np

        n = 30_000
        self._array = (np.arange(n) * 7_919 % n) / n
        self.factor = 1.0
        self.probed_at = -float("inf")
        self.refresh()

    def _arithmetic(self) -> None:
        total = 0
        for i in range(10_000):
            total += i * i % 7

    def _objects(self) -> None:
        rows = [{"key": str(i * 7_919 % 1_500), "values": [i, i + 1]}
                for i in range(1_500)]
        rows.sort(key=lambda row: row["key"])

    def _arrays(self) -> None:
        array = self._array
        array.argsort()
        (array * 2.0 + 1.0).sum()
        array[array > 0.5].mean()

    def probe(self) -> float:
        """Geometric mean of the kernels' best-of-three seconds."""
        product = 1.0
        for kernel in (self._arithmetic, self._objects, self._arrays):
            best = float("inf")
            for _ in range(3):
                began = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - began)
            product *= best
        return product ** (1.0 / 3.0)

    def refresh(self) -> None:
        if time.perf_counter() - self.probed_at >= PROBE_EVERY_S:
            self.factor = REFERENCE_PROBE_S / self.probe()
            self.probed_at = time.perf_counter()

    def scale(self, wall: float, cpu: float) -> float:
        cpu = min(cpu, wall)
        return (wall - cpu) + cpu * self.factor


class Stopwatch:
    """Wall and process-CPU seconds of one interval."""

    def __enter__(self) -> "Stopwatch":
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


def timed_setup(workload) -> float:
    """One set-up, in reference seconds (probed before and after)."""
    speed = SpeedProbe()
    before = speed.factor
    with Stopwatch() as watch:
        workload.setup()
    speed.factor = (before + REFERENCE_PROBE_S / speed.probe()) / 2
    return speed.scale(watch.wall, watch.cpu)


@dataclasses.dataclass
class Phase:
    """One timed closed-loop phase; times are in reference seconds."""

    #: reference seconds the ops took, failed ops included.
    busy_s: float
    #: the same ops' measured wall seconds.
    wall_s: float
    attempted: int
    failed: int
    wrong: int
    latencies_ms: List[float]
    #: op shape -> latencies of its successful ops.
    shapes: Dict[str, List[float]]
    peak_bytes: int
    rss_growth_kib: float
    #: the process's peak resident set at the end of the phase.
    rss_peak_kib: float

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def _rss_kib() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def measure(workload, seconds: float, seed: int, tracer=None) -> Phase:
    """Run whole rounds of ops until they have taken ``seconds``
    reference seconds (or four times that on the wall clock)."""
    rng = random.Random(seed)
    latencies: List[float] = []
    shapes: Dict[str, List[float]] = {}
    attempted = failed = wrong = peak = 0
    busy = wall = 0.0
    gc.collect()
    rss_before = _rss_kib()
    speed = SpeedProbe()
    while busy < seconds and wall < WALL_CAP * seconds:
        for op in workload.round(rng):
            speed.refresh()
            if tracer is not None:
                tracer.begin_op(attempted)
            with Stopwatch() as watch:
                result = workload.execute(op)
            shape = workload.shape(op)
            if tracer is not None:
                tracer.end_op(shape)
            elapsed = speed.scale(watch.wall, watch.cpu)
            busy += elapsed
            wall += watch.wall
            attempted += 1
            peak = max(peak, result.peak_bytes)
            if result.raised:
                failed += 1
            elif not workload.matches(op, result.value):
                failed += 1
                wrong += 1
            else:
                latencies.append(elapsed * 1e3)
                shapes.setdefault(shape, []).append(elapsed * 1e3)
    return Phase(busy_s=busy, wall_s=wall, attempted=attempted,
                 failed=failed, wrong=wrong, latencies_ms=latencies,
                 shapes=shapes, peak_bytes=peak,
                 rss_growth_kib=_rss_kib() - rss_before,
                 rss_peak_kib=float(
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


def _percentile(values: List[float], pct: int) -> float:
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    lat = phase.latencies_ms
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ok / phase.busy_s,
        "latency_ms_p50": _percentile(lat, 50),
        "latency_ms_p90": _percentile(lat, 90),
        "peak_mb": phase.peak_bytes / MIB,
        "rss_peak_mb": phase.rss_peak_kib / 1024.0,
        "ok_share": phase.ok / max(1, phase.attempted),
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
    own, total, calls = tracer.self_times()
    counters = tracer.counters
    ops = max(1, traced.attempted)
    # spans are wall time; convert to reference time like the ops
    scale = traced.busy_s / traced.wall_s if traced.wall_s else 1.0

    def ms(name: str, times: Dict[str, float] = own) -> float:
        return times.get(name, 0.0) * 1e3 * scale / ops

    op_wall = total.get("op", 0.0)
    prefetched = counters["io.ranges_prefetched"]
    traced_p50 = _percentile(traced.latencies_ms, 50)
    untraced_p50 = _percentile(untraced.latencies_ms, 50)
    return {
        "analysis.jit.rewrite_ms": ms("analysis.jit.rewrite"),
        "analysis.plan.gate_ms": ms("analysis.plan.gate"),
        "analysis.plan.calls": calls.get("analysis.plan.gate", 0) / ops,
        "core.session.collect_ms": ms("core.session.collect"),
        "core.optimizer.total_ms": ms("core.optimizer.total", total),
        "core.optimizer.cse_ms": ms("core.optimizer.cse"),
        "core.optimizer.pushdown_ms": ms("core.optimizer.pushdown"),
        "core.optimizer.projection_ms": ms("core.optimizer.projection"),
        "core.optimizer.metadata_ms": ms("core.optimizer.metadata"),
        "core.optimizer.pruning_ms": ms("core.optimizer.pruning"),
        "core.optimizer.shuffle_ms": ms("core.optimizer.shuffle"),
        "core.optimizer.rewrites": counters["core.optimizer.rewrites"] / ops,
        "graph.scheduler.execute_ms": ms("graph.scheduler.execute"),
        "graph.scheduler.estimate_ms": ms("graph.scheduler.estimate"),
        "graph.scheduler.order_ms": ms("graph.scheduler.order"),
        "graph.scheduler.queue_wait_ms": ms("queue_wait", {
            "queue_wait": counters["graph.scheduler.queue_wait_s"]}),
        "graph.scheduler.nodes_executed":
            counters["graph.scheduler.nodes_executed"] / ops,
        "backends.op_ms": ms("backends.op"),
        "io.read_ms": ms("io.read"),
        "io.parse_ms": ms("io.parse"),
        "io.fetch_ms": ms("io.fetch"),
        "io.fetch_count": calls.get("io.fetch", 0) / ops,
        "io.bytes_read_mb": counters["io.bytes_read"] / MIB / ops,
        "io.prefetch_hit_ratio":
            counters["io.prefetch_hits"] / prefetched if prefetched else 0.0,
        "memory.registered_mb":
            counters["memory.registered_bytes"] / MIB / ops,
        "memory.spilled_mb": counters["memory.spilled_bytes"] / MIB / ops,
        "session.nodes_per_op": counters["session.nodes"] / ops,
        # RSS growth is read from the untraced phase: spans held in
        # memory would inflate the traced one.
        "rss_kb_per_op": untraced.rss_growth_kib / max(1, untraced.attempted),
        "workloads.runner.overhead_ms": ms("op"),
        "trace.coverage":
            1.0 - own.get("op", 0.0) / op_wall if op_wall else 0.0,
        "trace.overhead.latency_ms_p50": traced_p50 - untraced_p50,
        "trace.overhead.ops_per_s": (traced.ok / traced.busy_s
                                     - untraced.ok / untraced.busy_s),
    }


def _describe(label: str, phase: Phase) -> None:
    print(f"{label}: {phase.attempted} ops attempted, {phase.failed} failed "
          f"({phase.wrong} wrong), {len(phase.latencies_ms)} latency "
          f"samples; ops took {phase.busy_s:.2f} reference s, "
          f"{phase.wall_s:.2f} wall s")
    for shape, values in sorted(phase.shapes.items()):
        print(f"  {shape:<34} p50 {_percentile(values, 50):9.3f} ms"
              f"  (n={len(values)})")


def _table(title: str, metrics: Dict[str, float], units) -> None:
    print(f"== {title}")
    for name, unit in units:
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")


def _child(args: argparse.Namespace) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import loads
    import tracing

    import repro.workloads.runner  # noqa: F401 - imports stay out of setup_s

    root = os.getcwd()
    scratch = os.path.join(root, ".perfbench")
    workdir = os.environ["PERFBENCH_WORKDIR"]
    workload = loads.make(args.workload, workdir, tiny=args.tiny)
    try:
        setups = []
        for _ in range(1 if args.tiny else SETUP_REPEATS):
            setups.append(timed_setup(workload))
        if args.corrupt_reference:
            workload.corrupt_reference()
        print(f"workload={args.workload} seed={args.seed} "
              f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} "
              f"setups_s={[round(s, 3) for s in setups]}")
        untraced = measure(workload, args.seconds, args.seed)
        phases = [untraced]
        e2e = end_to_end(untraced, statistics.median(setups))
        _describe("untraced", untraced)
        # printed, not reported: failed_share is ok_share's complement;
        # only notebook_session has enough samples beyond p99; RSS growth
        # per op is ~0 where every op runs in a fresh session.
        _table("end to end (untraced)", dict(
            e2e, failed_share=untraced.failed / max(1, untraced.attempted),
            latency_ms_p99=_percentile(untraced.latencies_ms, 99),
            rss_kb_per_op=untraced.rss_growth_kib / max(1, untraced.attempted)),
            END_TO_END + (("failed_share", "ratio"), ("latency_ms_p99", "ms"),
                          ("rss_kb_per_op", "KiB")))
        print(f"  ({len(untraced.latencies_ms) // 100} samples beyond p99)")
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
        if args.trace:
            # a fresh set-up, so the traced phase starts from the state
            # the untraced one did (the notebook session grows per op)
            workload.setup()
            if args.corrupt_reference:
                workload.corrupt_reference()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, args.seed, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            layers = per_layer(tracer, traced, untraced)
            _describe(f"traced ({len(tracer.spans)} spans)", traced)
            _table("end to end (traced)",
                   end_to_end(traced, e2e["setup_s"]), END_TO_END)
            _table("per layer (traced, per op)", layers, PER_LAYER)
            trace_path = os.path.join(
                scratch, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write_chrome_trace(trace_path, {
                "workload": args.workload, "seed": args.seed,
                "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
                "seconds": args.seconds,
            })
            print(f"trace written to {os.path.relpath(trace_path, root)}")
            metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
        report = {
            "correct": all(phase.wrong == 0 for phase in phases),
            "attempted": sum(phase.attempted for phase in phases),
            "failed": sum(phase.failed for phase in phases),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        workload.close()
    sys.stdout.flush()
    print(json.dumps(report), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    if args.child:
        return _child(args)
    return _parent(args, argv)


if __name__ == "__main__":
    sys.exit(main())
