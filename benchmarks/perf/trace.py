"""The benchmark's external tracer: host-time spans around public calls.

Nothing under ``src/`` knows this file exists.  :func:`tracing` replaces,
at class level, the public methods listed in :data:`TARGETS` with timing
shims, hands back a :class:`Tracer`, and restores every original in a
``finally``.  Each call becomes one in-memory span ``(id, name, start_ns,
end_ns, parent, op, self_ns)``; nothing is written anywhere until the
caller asks for :meth:`Tracer.write_jsonl` after the timed region.
Spans live in one flat ``array('q')``, not as Python objects: a few
hundred thousand retained tuples would make the garbage collector walk
the simulated world more often and bill that to whichever span is open.

*Self time* of a span is its duration minus the durations of its direct
children (one Python stack, so children never overlap).  Summed over all
spans it equals the time spent inside *any* wrapped call, which is what
makes ``sum(layer self_s) + unattributed == traced wall`` exact.

Known bias: the shim's own bookkeeping (two clock reads, a list append,
a stack push/pop per call) lands in the *parent's* self time.  Layers
that make many small wrapped calls into other layers therefore read a
little high; ``trace.overhead_frac`` bounds the total.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

__all__ = ["TARGETS", "LAYERS", "Tracer", "tracing"]

#: layer = package under src/repro/ (``workload`` is the testbed builder)
LAYERS = ("sim", "net", "collection", "scheduler", "enactor", "hosts",
          "objects", "obs", "service", "recovery", "chaos", "workload")


class Target(NamedTuple):
    layer: str
    module: str
    #: class name, or "" for a module-level function
    cls: str
    methods: tuple
    #: methods here return a context manager whose enter/exit are timed too
    context_managers: tuple = ()


TARGETS = (
    Target("sim", "repro.sim.kernel", "Simulator",
           ("run_until", "step", "run")),
    Target("net", "repro.net.transport", "Transport",
           ("invoke", "parallel_invoke", "transfer")),
    Target("collection", "repro.collection.collection", "Collection",
           ("query", "update_entry", "join")),
    Target("scheduler", "repro.scheduler.base", "Scheduler",
           ("run", "compute_schedule", "viable_hosts")),
    Target("enactor", "repro.enactor.enactor", "Enactor",
           ("make_reservations", "enact_schedule", "cancel_reservations")),
    Target("hosts", "repro.hosts.host_object", "HostObject",
           ("make_reservation", "check_reservation", "cancel_reservation",
            "start_object", "start_objects", "reassess")),
    Target("objects", "repro.objects.class_object", "ClassObject",
           ("create_instance", "create_instances", "destroy_instance")),
    Target("obs", "repro.obs.spans", "SpanTracer",
           ("start_span", "end_span", "record_span", "event"),
           context_managers=("span", "span_if_active")),
    Target("obs", "repro.obs.registry", "MetricsRegistry",
           ("count", "observe", "set_gauge")),
    Target("obs", "repro.obs.timeseries", "MetricsSampler", ("flush",)),
    Target("service", "repro.service.gateway", "RequestGateway",
           ("submit", "finish", "requeue")),
    Target("service", "repro.service.queue", "PlacementQueue",
           ("offer", "pop", "requeue")),
    Target("recovery", "repro.recovery.journal", "RequestJournal",
           ("record",)),
    Target("recovery", "repro.recovery.leases", "LeaseTable",
           ("grant", "renew", "release", "expire")),
    Target("chaos", "repro.chaos.injector", "ChaosInjector",
           ("arm", "teardown")),
    Target("workload", "repro.workload.testbed", "", ("build_testbed",)),
)

def _layer_by_span_name() -> Dict[str, str]:
    out = {}
    for target in TARGETS:
        for method in target.methods + target.context_managers:
            name = f"{target.cls}.{method}" if target.cls else method
            out[name] = target.layer
        for method in target.context_managers:
            out[f"{target.cls}.{method}.enter"] = target.layer
            out[f"{target.cls}.{method}.exit"] = target.layer
    return out


LAYER_OF = _layer_by_span_name()

#: counters read from public attributes of the instances the shims see;
#: reported as the change over the timed region
WATCHED: Dict[str, Dict[str, Callable[[Any], float]]] = {
    "Simulator": {"sim.events": lambda s: s.events_processed},
    "Transport": {"net.messages": lambda t: t.messages_sent,
                  "net.messages_lost": lambda t: t.messages_lost,
                  "net.retries": lambda t: t.retries},
    "Scheduler": {
        "scheduler.collection_queries": lambda s: s.collection_queries,
        "scheduler.viable_cache_hits": lambda s: s.viable_cache_hits,
        "scheduler.viable_cache_misses": lambda s: s.viable_cache_misses},
    "Enactor": {
        "enactor.reservation_requests":
            lambda e: e.stats.reservation_requests,
        "enactor.reservations_granted":
            lambda e: e.stats.reservations_granted,
        "enactor.variant_attempts": lambda e: e.stats.variant_attempts,
        "enactor.cancellations": lambda e: e.stats.cancellations},
    "SpanTracer": {"obs.spans_retained": lambda t: len(t.spans)},
    "RequestJournal": {"recovery.journal_entries": lambda j: len(j.entries)},
}

#: sizes read the same way but reported as they stand when the region ends
GAUGES: Dict[str, Dict[str, Callable[[Any], float]]] = {
    "MetricsSampler": {"obs.sampler_windows": lambda s: len(s.windows)},
    "Collection": {"collection.members": len},
}


def _request_index(request_id: Any) -> Optional[int]:
    """``"req-000123"`` -> 123 (the gateway's submit index)."""
    if isinstance(request_id, str) and request_id.startswith("req-"):
        return int(request_id[4:])
    return None


class Tracer:
    """Span store, open-call stack, and per-instance counter baselines."""

    def __init__(self) -> None:
        #: finished spans, seven integers each, in the order calls *ended*:
        #: id (call order), name index, start_ns, end_ns, parent id, op,
        #: self_ns
        self._records = array("q")
        self._names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._next_id = 0
        #: open calls, innermost last: [span index, child_ns, op]
        self._stack: List[list] = []
        #: op index top-level spans are stamped with; the driver sets it
        #: per placement, request-bearing service calls override it
        self.op = -1
        #: spans from this id on belong to the timed region
        self.timed_from = 0
        self._timed_t0 = 0
        self._timed_t1 = 0
        #: id(instance) -> (instance, class key, baseline counters)
        self._seen: Dict[int, tuple] = {}
        #: sums the result hooks keep (scheduler tries, successes)
        self.tally: Dict[str, float] = defaultdict(float)
        #: op of the last request a worker popped, until its Scheduler.run
        #: claims it; then remembered per scheduler across retries
        self._popped_op: Optional[int] = None
        self._scheduler_op: Dict[int, int] = {}

    # -- regions --------------------------------------------------------------
    def begin_timed(self) -> None:
        """Everything before this call was set-up; re-base the counters."""
        self.timed_from = self._next_id
        for key, (obj, cls_key, _base) in list(self._seen.items()):
            self._seen[key] = (obj, cls_key, self._read(obj, cls_key))
        self._timed_t0 = perf_counter_ns()

    def end_timed(self) -> None:
        self._timed_t1 = perf_counter_ns()

    @property
    def timed_wall_s(self) -> float:
        return (self._timed_t1 - self._timed_t0) / 1e9

    # -- watched instances ------------------------------------------------------
    @staticmethod
    def _read(obj: Any, cls_key: str) -> Dict[str, float]:
        return {name: float(get(obj))
                for name, get in WATCHED.get(cls_key, {}).items()}

    def see(self, obj: Any, cls_key: str) -> None:
        if id(obj) not in self._seen:
            self._seen[id(obj)] = (obj, cls_key, self._read(obj, cls_key))

    def counters(self) -> Dict[str, float]:
        """Watched counters summed over instances, as change since the
        timed region began (or since first sight, if seen later)."""
        out: Dict[str, float] = {name: 0.0 for table in WATCHED.values()
                                 for name in table}
        for obj, cls_key, base in self._seen.values():
            for name, value in self._read(obj, cls_key).items():
                out[name] += value - base[name]
        return out

    def gauges(self) -> Dict[str, float]:
        out: Dict[str, float] = {name: 0.0 for table in GAUGES.values()
                                 for name in table}
        for obj, cls_key, _base in self._seen.values():
            for name, get in GAUGES.get(cls_key, {}).items():
                out[name] += float(get(obj))
        return out

    # -- the shim -----------------------------------------------------------------
    def name_index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    def call(self, name_index: int, fn: Callable, args: tuple, kwargs: dict,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Any:
        stack = self._stack
        index = self._next_id
        self._next_id = index + 1
        if stack:
            parent = stack[-1]
            parent_index, op = parent[0], parent[2]
        else:
            parent = None
            parent_index, op = -1, self.op
        frame = [index, 0, op]
        if pre is not None:
            pre(self, frame, args, kwargs)
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                post(self, frame, result)
            return result
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent[1] += duration
            self._records.extend((index, name_index, t0, t1, parent_index,
                                  frame[2], duration - frame[1]))

    def spans(self) -> List[tuple]:
        """``(name, start_ns, end_ns, parent, op, self_ns)`` by span id."""
        records, names = self._records, self._names
        out: List[Any] = [None] * (len(records) // 7)
        for at in range(0, len(records), 7):
            index, name, t0, t1, parent, op, self_ns = records[at:at + 7]
            out[index] = (names[name], t0, t1, parent, op, self_ns)
        return out

    # -- analysis -------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Timed-region roll-up: per span name ``calls`` (outermost only,
        so an override calling ``super()`` counts once), ``total_s`` and
        ``self_s``; per layer ``self_s``; the wall outside any span; and
        ``build_s``, the time in ``build_testbed`` set-up included."""
        by_name: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top_level_ns = 0
        build_ns = 0
        spans = self.spans()
        for index, span in enumerate(spans):
            name, t0, t1, parent, _op, self_ns = span
            if name == "build_testbed":
                build_ns += t1 - t0
            if index < self.timed_from:
                continue
            row = by_name[name]
            row["self_s"] += self_ns / 1e9
            if parent < 0:
                top_level_ns += t1 - t0
            if parent < 0 or spans[parent][0] != name:
                row["calls"] += 1
                row["total_s"] += (t1 - t0) / 1e9
        layers = {layer: 0.0 for layer in LAYERS}
        for name, row in by_name.items():
            layers[LAYER_OF[name]] += row["self_s"]
        wall = self.timed_wall_s
        return {"by_name": {k: dict(v) for k, v in sorted(by_name.items())},
                "layer_self_s": layers,
                "wall_s": wall,
                "unattributed_s": wall - top_level_ns / 1e9,
                "build_s": build_ns / 1e9}

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span, in call order.  ``parent`` is the
        line index of the calling span (-1 at top level)."""
        with open(path, "w", encoding="utf-8") as out:
            spans = self.spans()
            for index, span in enumerate(spans):
                name, t0, t1, parent, op, self_ns = span
                out.write(json.dumps({
                    "id": index, "name": name, "layer": LAYER_OF[name],
                    "start_ns": t0, "end_ns": t1, "self_ns": self_ns,
                    "parent": parent, "op": op,
                    "region": ("timed" if index >= self.timed_from
                               else "setup")}) + "\n")
        return len(spans)


# -- op attribution hooks ---------------------------------------------------------
def _stamp(frame: list, request_id: Any) -> Optional[int]:
    """Give the open span the op of the request it serves, if it names one."""
    op = _request_index(request_id)
    if op is not None:
        frame[2] = op
    return op


def _op_from_request_arg(tracer: Tracer, frame: list, args: tuple,
                         kwargs: dict) -> None:
    """Calls whose first argument is a ServiceRequest / Lease."""
    if len(args) > 1:
        _stamp(frame, getattr(args[1], "request_id", None))


def _op_from_request_id_arg(position: int) -> Callable:
    def pre(tracer: Tracer, frame: list, args: tuple, kwargs: dict) -> None:
        if len(args) > position:
            _stamp(frame, args[position])
    return pre


def _op_from_submit_result(tracer: Tracer, frame: list, result: Any) -> None:
    _stamp(frame, getattr(result, "request_id", None))


def _op_from_popped(tracer: Tracer, frame: list, result: Any) -> None:
    op = _stamp(frame, getattr(result, "request_id", None))
    if op is not None:
        tracer._popped_op = op


def _op_for_scheduler_run(tracer: Tracer, frame: list, args: tuple,
                          kwargs: dict) -> None:
    """A worker pops a request and calls ``Scheduler.run`` before it next
    yields, so the first run after a pop belongs to that request; later
    runs of the same scheduler (retries) keep it until the next pop."""
    key = id(args[0])
    if tracer._popped_op is not None:
        tracer._scheduler_op[key] = tracer._popped_op
        tracer._popped_op = None
    op = tracer._scheduler_op.get(key)
    if op is not None:
        frame[2] = op


def _tally_scheduling_outcome(tracer: Tracer, frame: list,
                              result: Any) -> None:
    tracer.tally["scheduler.tries"] += result.schedule_tries
    tracer.tally["scheduler.ok"] += 1 if result.ok else 0


_PRE = {
    "Scheduler.run": _op_for_scheduler_run,
    "RequestGateway.finish": _op_from_request_arg,
    "RequestGateway.requeue": _op_from_request_arg,
    "PlacementQueue.offer": _op_from_request_arg,
    "PlacementQueue.requeue": _op_from_request_arg,
    "LeaseTable.renew": _op_from_request_arg,
    "LeaseTable.release": _op_from_request_arg,
    "LeaseTable.expire": _op_from_request_arg,
    "LeaseTable.grant": _op_from_request_id_arg(1),
    "RequestJournal.record": _op_from_request_id_arg(2),
}
_POST = {
    "Scheduler.run": _tally_scheduling_outcome,
    "RequestGateway.submit": _op_from_submit_result,
    "PlacementQueue.pop": _op_from_popped,
}


# -- install / remove -----------------------------------------------------------
class _TimedContextManager:
    """Times ``__enter__`` / ``__exit__`` of a context manager the
    program built (the ``span`` / ``span_if_active`` generators)."""

    __slots__ = ("_inner", "_tracer", "_enter", "_exit")

    def __init__(self, inner: Any, tracer: Tracer, enter: int, exit: int):
        self._inner = inner
        self._tracer = tracer
        self._enter = enter
        self._exit = exit

    def __enter__(self) -> Any:
        return self._tracer.call(self._enter, self._inner.__enter__, (), {})

    def __exit__(self, *exc_info: Any) -> Any:
        return self._tracer.call(self._exit, self._inner.__exit__,
                                 exc_info, {})


def _shim(tracer: Tracer, name: str, original: Callable,
          watch_key: str, returns_context_manager: bool) -> Callable:
    pre, post = _PRE.get(name), _POST.get(name)
    call = tracer.call
    index = tracer.name_index(name)

    if returns_context_manager:
        enter = tracer.name_index(name + ".enter")
        exit = tracer.name_index(name + ".exit")

        def shim(*args: Any, **kwargs: Any) -> Any:
            inner = call(index, original, args, kwargs)
            return _TimedContextManager(inner, tracer, enter, exit)
    elif watch_key:
        see = tracer.see

        def shim(*args: Any, **kwargs: Any) -> Any:
            see(args[0], watch_key)
            return call(index, original, args, kwargs, pre, post)
    else:
        def shim(*args: Any, **kwargs: Any) -> Any:
            return call(index, original, args, kwargs, pre, post)
    return shim


def _defining_classes(cls: type, method: str) -> Iterator[type]:
    """``cls`` and every loaded subclass that overrides ``method``."""
    seen = set()
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if method in vars(klass):
            yield klass
        todo.extend(klass.__subclasses__())


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the shims, yield the tracer, always restore the originals."""
    import repro  # noqa: F401 - loads every subclass so overrides are found
    tracer = Tracer()
    patched: List[tuple] = []
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if not target.cls:
                for fn_name in target.methods:
                    original = getattr(module, fn_name)
                    patched.append((module, fn_name, original))
                    setattr(module, fn_name,
                            _shim(tracer, fn_name, original, "", False))
                continue
            base = getattr(module, target.cls)
            watch_key = (target.cls if target.cls in WATCHED
                         or target.cls in GAUGES else "")
            for method in target.methods + target.context_managers:
                name = f"{target.cls}.{method}"
                for klass in _defining_classes(base, method):
                    original = vars(klass)[method]
                    if isinstance(original, (staticmethod, classmethod)):
                        raise TypeError(f"{name}: cannot trace a static or "
                                        f"class method")
                    patched.append((klass, method, original))
                    setattr(klass, method, _shim(
                        tracer, name, original, watch_key,
                        method in target.context_managers))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
