"""Application models: the workload classes the paper's users ran.

Section 4.3 names the application families Legion targeted: "MPI-based or
PVM-based simulations, parameter space studies, and other modeling
applications".  Three models cover them:

* :class:`BagOfTasks` — independent equal-or-varying tasks (the generic
  throughput workload);
* :class:`ParameterStudy` — a sweep with heavy-tailed per-point cost;
* :class:`StencilApplication` — the 2-D nearest-neighbour ocean-simulation
  structure, with an explicit per-iteration communication cost model so
  placement quality is measurable (E11).

Each model creates Legion classes on a :class:`~repro.metasystem.Metasystem`
and provides ``run(scheduler)`` returning a :class:`RunReport` with
makespan and placement metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LegionError
from ..metasystem import Metasystem
from ..naming.loid import LOID
from ..objects.class_object import ClassObject, Implementation
from ..scheduler.base import ObjectClassRequest, Scheduler
from ..scheduler.stencil import StencilScheduler, grid_comm_cost
from ..sim.distributions import Distribution
from .testbed import implementations_for_all_platforms

__all__ = ["RunReport", "BagOfTasks", "ParameterStudy",
           "StencilApplication", "wait_for_completion"]


@dataclass
class RunReport:
    """Outcome of running one application through a Scheduler."""

    ok: bool
    scheduled: int = 0
    completed: int = 0
    makespan: float = float("nan")
    scheduling_time: float = 0.0
    collection_queries: int = 0
    schedule_tries: int = 0
    detail: str = ""
    #: application-specific extras (e.g. stencil comm cost)
    metrics: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_outcome(cls, outcome) -> "RunReport":
        """The scheduling half of a report, read off a Scheduler run."""
        return cls(ok=outcome.ok, scheduled=len(outcome.created),
                   scheduling_time=outcome.elapsed,
                   collection_queries=outcome.collection_queries,
                   schedule_tries=outcome.schedule_tries,
                   detail=outcome.detail)

    def wait(self, meta: Metasystem, class_obj: ClassObject,
             loids: Sequence[LOID], start: float,
             timeout: float) -> "RunReport":
        """Wait for ``loids`` to complete; the makespan counts from
        ``start`` and is set only when every one of them did."""
        completed, last_done = wait_for_completion(meta, class_obj, loids,
                                                   timeout=timeout)
        self.completed = completed
        if completed == len(loids):
            self.makespan = last_done - start
        return self


def wait_for_completion(meta: Metasystem, class_obj: ClassObject,
                        loids: Sequence[LOID],
                        timeout: float = 1e6,
                        poll: float = 5.0) -> Tuple[int, float]:
    """Advance virtual time until every instance reports ``completed_at``.

    Returns ``(completed_count, last_completion_time)``.
    """
    deadline = meta.now + timeout
    pending = set(loids)
    last_done = meta.now
    while pending and meta.now < deadline:
        done = set()
        for loid in pending:
            try:
                instance = class_obj.get_instance(loid)
            except LegionError:
                done.add(loid)  # killed — count as resolved
                continue
            completed = instance.attributes.get("completed_at")
            if completed is not None:
                last_done = max(last_done, float(completed))
                done.add(loid)
        pending -= done
        if pending:
            meta.advance(poll)
    return len(loids) - len(pending), last_done


class BagOfTasks:
    """N independent tasks of (possibly stochastic) size."""

    def __init__(self, meta: Metasystem, name: str, n_tasks: int,
                 work_units: float = 300.0,
                 work_dist: Optional[Distribution] = None,
                 memory_mb: float = 16.0,
                 implementations: Optional[
                     Sequence[Implementation]] = None):
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.meta = meta
        self.name = name
        self.n_tasks = n_tasks
        rng = meta.rngs.stream("app", name, "work")

        def attrs(_loid: LOID) -> Dict[str, float]:
            if work_dist is not None:
                return {"work_units": float(work_dist.sample(rng))}
            return {"work_units": float(work_units)}

        self.class_obj = meta.create_class(
            name,
            list(implementations or implementations_for_all_platforms(
                memory_mb)),
            memory_mb=memory_mb, attr_factory=attrs)

    def requests(self) -> List[ObjectClassRequest]:
        return [ObjectClassRequest(self.class_obj, count=self.n_tasks)]

    def run(self, scheduler: Scheduler,
            wait: bool = True, timeout: float = 1e6) -> RunReport:
        start = self.meta.now
        outcome = scheduler.run(self.requests())
        report = RunReport.from_outcome(outcome)
        if not outcome.ok or not wait:
            return report
        return report.wait(self.meta, self.class_obj, outcome.created,
                           start, timeout)


class ParameterStudy(BagOfTasks):
    """A parameter sweep: many points, heavy-tailed cost per point."""

    def __init__(self, meta: Metasystem, name: str, n_points: int,
                 base_work: float = 120.0, tail_alpha: float = 1.8,
                 memory_mb: float = 16.0,
                 implementations: Optional[
                     Sequence[Implementation]] = None):
        from ..sim.distributions import Pareto
        super().__init__(meta, name, n_points,
                         work_dist=Pareto(alpha=tail_alpha, xm=base_work),
                         memory_mb=memory_mb,
                         implementations=implementations)


class StencilApplication:
    """The section-4.3 workload: a rows x cols grid of communicating
    subtasks (one class, rows*cols instances).

    Execution model: each subtask performs ``iterations x work_per_iter``
    compute units; the *placement* determines the per-iteration
    communication cost (``grid_comm_cost``), reported as a metric and —
    because neighbours exchange messages synchronously — added to the
    effective per-instance work as ``comm_penalty_per_unit x edge cost
    share``.
    """

    def __init__(self, meta: Metasystem, name: str, rows: int, cols: int,
                 iterations: int = 100, work_per_iter: float = 2.0,
                 memory_mb: float = 32.0,
                 comm_penalty_per_unit: float = 0.02,
                 implementations: Optional[
                     Sequence[Implementation]] = None):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        self.meta = meta
        self.name = name
        self.rows, self.cols = rows, cols
        self.iterations = iterations
        self.work_per_iter = work_per_iter
        self.comm_penalty_per_unit = comm_penalty_per_unit
        base_work = iterations * work_per_iter
        self.class_obj = meta.create_class(
            name,
            list(implementations
                 or implementations_for_all_platforms(memory_mb)),
            work_units=base_work, memory_mb=memory_mb)

    @property
    def count(self) -> int:
        return self.rows * self.cols

    def requests(self) -> List[ObjectClassRequest]:
        return [ObjectClassRequest(self.class_obj, count=self.count)]

    def _host_domains(self) -> Dict[LOID, str]:
        return {h.loid: h.domain for h in self.meta.hosts}

    def placement_cost(self, entries) -> float:
        """Per-iteration communication cost of an entry list laid out in
        snake order (the same convention StencilScheduler uses)."""
        from ..scheduler.stencil import snake_order
        cells = snake_order(self.rows, self.cols)
        cell_host = {cell: entries[i].host_loid
                     for i, cell in enumerate(cells)}
        return grid_comm_cost(self.rows, self.cols, cell_host,
                              self._host_domains())

    def run(self, scheduler: Scheduler, wait: bool = True,
            timeout: float = 1e6) -> RunReport:
        start = self.meta.now
        outcome = scheduler.run(self.requests())
        report = RunReport.from_outcome(outcome)
        if not outcome.ok:
            return report
        entries = outcome.feedback.reserved_entries
        comm = self.placement_cost(entries)
        report.metrics["comm_cost_per_iter"] = comm
        # synchronous neighbour exchange: every instance pays the comm bill
        penalty = (self.comm_penalty_per_unit * comm * self.iterations
                   / max(1, self.count))
        for loid in outcome.created:
            instance = self.class_obj.get_instance(loid)
            host = self.meta.resolve(instance.host_loid)
            if host is None:
                continue
            placed = host.placed.get(loid)
            if placed is not None and placed.job is not None:
                # charge the communication penalty as extra work
                host.machine.add_work(placed.job, penalty)
        if not wait:
            return report
        return report.wait(self.meta, self.class_obj, outcome.created,
                           start, timeout)
