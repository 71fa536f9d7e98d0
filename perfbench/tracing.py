"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions each layer of ``repro``
exposes and records one *span* per call: name, start, end, parent span
and op id.  Spans stay in memory and are written once, at the end, as
Chrome trace-event JSON (open it in Perfetto or ``chrome://tracing``).
Nothing in ``src/`` knows about the tracer; the wrappers are installed
for the traced run only and removed afterwards.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Spans opened on a thread other than the client's
(scheduler workers, prefetch threads) have no open span of their own, so
they hang under the span the client thread has open at that moment:
the client is waiting on them there.

:data:`LAYERS` names the span of each layer and the functions it wraps.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, attribute) pairs.  ``module:Class.method``
#: wraps the method on the class and on every subclass that overrides
#: it; a module function is re-bound in every ``repro`` module that
#: imported it by name.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "analysis.jit.rewrite": ("repro.analysis.jit:optimize_source",),
    "analysis.plan.gate": ("repro.analysis.plan.rules:analyze_plan",),
    "core.session.collect": (
        "repro.core.session:Session.compute",
        "repro.core.session:Session.flush",
    ),
    "core.optimizer.total": ("repro.core.optimizer.pipeline:optimize",),
    "core.optimizer.cse": (
        "repro.core.optimizer.common_subexpr:eliminate_common_subexpressions",
    ),
    "core.optimizer.pushdown": (
        "repro.core.optimizer.predicate_pushdown:push_down_predicates",
        "repro.core.optimizer.predicate_pushdown:fold_predicates_into_scans",
    ),
    "core.optimizer.projection": (
        "repro.core.optimizer.projection:push_down_projections",
    ),
    "core.optimizer.metadata": (
        "repro.core.optimizer.metadata_opt:apply_metadata_hints",
    ),
    "core.optimizer.pruning": (
        "repro.core.optimizer.partition_pruning:prune_scan_partitions",
    ),
    "core.optimizer.shuffle": (
        "repro.core.optimizer.shuffle:lower_shuffle_nodes",
    ),
    "graph.scheduler.execute": (
        "repro.graph.scheduler.base:Scheduler.execute",
    ),
    "graph.scheduler.estimate": (
        "repro.graph.scheduler.estimates:estimate_node_bytes",
    ),
    "graph.scheduler.order": (
        "repro.graph.scheduler.order:static_priorities",
        "repro.graph.scheduler.order:priority_topological_order",
        "repro.graph.scheduler.order:simulate_peak_bytes",
    ),
    "backends.op": (
        "repro.backends.base:Backend.apply",
        "repro.backends.base:Backend.materialize",
        "repro.backends.base:Backend.persist",
    ),
    "io.read": (
        "repro.backends.base:Backend.read_csv",
        "repro.backends.base:Backend.scan",
    ),
    "io.parse": ("repro.frame.io_csv:read_csv",),
    "io.fetch": ("repro.io.fs:ByteRangeFilesystem.read_range",),
}

#: modules whose import registers every subclass the wrappers must see.
_PRELOAD = (
    "repro.backends.pandas_backend",
    "repro.backends.dask_backend",
    "repro.backends.modin_backend",
    "repro.graph.scheduler",
    "repro.io",
    "repro.workloads.runner",
    "repro.analysis.jit",
    "repro.analysis.plan",
    "repro.core.optimizer",
)

#: span name used for the op itself (the client's own time).
OP_SPAN = "op"

#: ``last_optimize_report`` keys that count plan rewrites.
_REWRITE_KEYS = ("cse", "pushdown", "scan_fold", "projection", "metadata",
                 "pruned_partitions", "shuffle_lowered", "persisted")


class _Hook:
    """Reads counters around one wrapped call: ``before(args)`` returns a
    state that ``after(args, result, state)`` receives (``result`` is
    None when the call raised)."""

    def __init__(self, before: Optional[Callable] = None,
                 after: Optional[Callable] = None):
        self.before = before or (lambda args: None)
        self.after = after or (lambda args, result, state: None)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        #: (span id, name, start, end, parent id, op id, thread id)
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               Optional[int], int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: List[int] = []
        self._client_thread = threading.get_ident()
        self._op: Optional[int] = None
        self._op_span: Optional[int] = None
        self._op_start = 0.0
        self._restore: List[Callable[[], None]] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        try:
            return self._client_stack[-1]
        except IndexError:
            return self._op_span

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_span = next(self._ids)
        self._client_stack.append(self._op_span)
        self._op_start = time.perf_counter()

    def end_op(self, shape: str) -> None:
        end = time.perf_counter()
        self._client_stack.pop()
        self.spans.append((self._op_span, f"{OP_SPAN}:{shape}",
                           self._op_start, end, None, self._op,
                           self._client_thread))

    def _wrap(self, name: str, fn: Callable,
              hook: Optional["_Hook"] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span = next(tracer._ids)
            op = tracer._op
            stack.append(span)
            state = hook.before(args) if hook is not None else None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span, name, start, end, parent, op,
                                     threading.get_ident()))
                if hook is not None:
                    hook.after(args, result, state)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`; :meth:`uninstall` undoes it."""
        for module in _PRELOAD:
            importlib.import_module(module)
        hooks = self._hooks()
        for name, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    self._wrap_method(getattr(module, cls_name), method,
                                      name, hooks.get(name))
                else:
                    self._wrap_function(getattr(module, attr), name,
                                        hooks.get(name))
        from repro.core.session import Session

        original = Session.register

        def register(session, node):
            self.counters["session.nodes"] += 1
            return original(session, node)

        Session.register = register
        self._restore.append(lambda: setattr(Session, "register", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap_method(self, base: type, method: str, name: str,
                     hook: Optional["_Hook"]) -> None:
        classes = [base]
        index = 0
        while index < len(classes):
            classes.extend(classes[index].__subclasses__())
            index += 1
        for cls in classes:
            original = cls.__dict__.get(method)
            if original is None:
                continue
            setattr(cls, method, self._wrap(name, original, hook))
            self._restore.append(
                functools.partial(setattr, cls, method, original))

    def _wrap_function(self, fn: Callable, name: str,
                       hook: Optional["_Hook"]) -> None:
        traced = self._wrap(name, fn, hook)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn))

    # -- counters read at layer boundaries -------------------------------

    def _hooks(self) -> Dict[str, "_Hook"]:
        counters = self.counters

        def optimize_after(args, report, state) -> None:
            if isinstance(report, dict):
                counters["core.optimizer.rewrites"] += sum(
                    report[key] for key in _REWRITE_KEYS)

        def execute_before(args) -> int:
            return args[0].memory.total_registered

        def execute_after(args, result, registered_before) -> None:
            scheduler = args[0]
            counters["memory.registered_bytes"] += (
                scheduler.memory.total_registered - registered_before)
            stats = scheduler.last_stats
            if stats is None:
                return
            counters["graph.scheduler.nodes_executed"] += stats.nodes_executed
            counters["graph.scheduler.queue_wait_s"] += sum(
                node.queue_wait_seconds for node in stats.nodes)
            counters["io.bytes_read"] += stats.bytes_read
            counters["io.ranges_prefetched"] += stats.ranges_prefetched
            counters["io.prefetch_hits"] += stats.prefetch_hits
            counters["memory.spilled_bytes"] += stats.bytes_spilled

        return {
            "core.optimizer.total": _Hook(after=optimize_after),
            "graph.scheduler.execute": _Hook(execute_before, execute_after),
        }

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float],
                                  Dict[str, int]]:
        """(self seconds, inclusive seconds, call count) per span name.

        Op spans are reported under :data:`OP_SPAN` whatever their shape.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        own: Dict[str, float] = defaultdict(float)
        total: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span, name, start, end, _, _, _ in self.spans:
            key = OP_SPAN if name.startswith(OP_SPAN + ":") else name
            covered = _covered(children.get(span, ()), start, end)
            own[key] += (end - start) - covered
            total[key] += end - start
            calls[key] += 1
        return own, total, calls

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """All spans as Chrome trace events ("X" complete events, µs)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[2] for span in self.spans)
        threads: Dict[int, int] = {}
        events = []
        for span, name, start, end, parent, op, thread in sorted(
                self.spans, key=lambda s: s[2]):
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": span, "parent": parent, "op": op},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "otherData": metadata}, f)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
