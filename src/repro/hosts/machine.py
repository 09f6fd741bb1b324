"""Simulated physical machines.

A :class:`SimMachine` stands in for the paper's real testbed hosts: it has an
architecture, operating system, CPU count, relative speed, and memory, and it
*executes* placed objects under processor sharing while a stochastic
background load (other users' processes — this was a 1999 shared-workstation
world) competes for cycles.

Processor-sharing execution is exact, not fixed-at-dispatch: on every state
change (job arrival, departure, background-load step) the machine integrates
the work each job completed since the last change and reschedules the next
completion.  Load spikes therefore genuinely slow running objects, which is
what makes Monitor-driven migration (experiment E12) worth anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import InsufficientResourcesError, ObjectStateError
from ..net.topology import NetLocation
from ..sim.kernel import Simulator, Ticker
from ..sim.rng import RngRegistry

__all__ = ["MachineSpec", "SimMachine", "SimJob", "LoadWalk"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a machine."""

    arch: str = "sparc"
    os_name: str = "SunOS"
    os_version: str = "5.7"
    cpus: int = 1
    speed: float = 1.0         # work units per second per CPU (1.0 = baseline)
    memory_mb: float = 128.0


class SimJob:
    """One unit of placed work executing under processor sharing."""

    _ids = itertools.count()

    def __init__(self, work: float, memory_mb: float,
                 on_complete: Optional[Callable[["SimJob"], None]] = None,
                 name: str = ""):
        if work < 0:
            raise ValueError("job work must be non-negative")
        self.job_id = next(SimJob._ids)
        self.name = name or f"job{self.job_id}"
        self.work = float(work)
        self.remaining = float(work)
        self.memory_mb = float(memory_mb)
        self.on_complete = on_complete
        self.started_at: float = 0.0
        self.finished_at: Optional[float] = None
        self.preempted = False

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimJob {self.name} rem={self.remaining:.3g}>"


class LoadWalk:
    """Mean-reverting random walk for background load.

    ``L(t+dt) = clip(L + kappa*(mean - L) + sigma*N(0,1), 0, cap)`` stepped
    every ``interval`` seconds.  Occasional spikes (probability
    ``spike_prob`` per step, magnitude ``spike_size``) model another user
    starting a heavy job.
    """

    def __init__(self, mean: float = 0.5, kappa: float = 0.2,
                 sigma: float = 0.15, cap: float = 8.0,
                 interval: float = 10.0,
                 spike_prob: float = 0.0, spike_size: float = 3.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.mean, self.kappa, self.sigma = mean, kappa, sigma
        self.cap, self.interval = cap, interval
        self.spike_prob, self.spike_size = spike_prob, spike_size

    def step(self, rng, current: float) -> float:
        """The load one interval after ``current``."""
        return self.advance(rng, current, 1)

    def advance(self, rng, load: float, n: int) -> float:
        """The load ``n`` steps after ``load``.  A spike-free walk takes
        its normals in one call, which numpy fills from the stream
        exactly as ``n`` scalar draws; a spiky one interleaves ``random()``."""
        spiky = self.spike_prob > 0.0
        kappa, mean, sigma = self.kappa, self.mean, self.sigma
        cap = float(self.cap)
        for z in range(n) if spiky else rng.standard_normal(n).tolist():
            if spiky:
                z = rng.standard_normal()
            load = load + kappa * (mean - load) + sigma * z
            if spiky and rng.random() < self.spike_prob:
                load += self.spike_size
            if load < 0.0:  # min(max(load, 0.0), cap), without the calls
                load = 0.0
            if load > cap:
                load = cap
        return load


class SimMachine:
    """A machine in the simulated metasystem."""

    __slots__ = ("name", "spec", "location", "sim", "_rng", "load_walk",
                 "_background_load", "up", "jobs", "_last_advance",
                 "_epoch", "_grid", "_steps_taken", "completed_jobs",
                 "total_work_done", "failures")

    def __init__(self, name: str, spec: MachineSpec, location: NetLocation,
                 sim: Simulator, rngs: RngRegistry,
                 load_walk: Optional[LoadWalk] = None,
                 initial_load: float = 0.0):
        self.name = name
        self.spec = spec
        self.location = location
        self.sim = sim
        self._rng = rngs.stream("machine", name, "load")
        self.load_walk = load_walk
        self._background_load = float(initial_load)
        self.up = True
        self.jobs: Dict[int, SimJob] = {}
        self._last_advance = sim.now
        self._epoch = 0  # invalidates stale completion callbacks
        #: the load-step ticker this machine rides (None: down, or built
        #: without a walk) and how many of its ticks the walk has taken
        self._grid: Optional[Ticker] = None
        self._steps_taken = 0
        self.completed_jobs = 0
        self.total_work_done = 0.0
        self.failures = 0
        self._join_grid()

    # -- background load process ------------------------------------------------
    def _join_grid(self) -> None:
        """Ride the ticker that fires one walk interval from now."""
        if self.load_walk is not None:
            self._grid = grid = self.sim.ticker(self.load_walk.interval)
            grid.members += 1
            self._steps_taken = grid.count

    def _settle(self) -> None:
        """Integrate work up to now, then take the load steps the grid
        has ticked since this machine last looked: the same draws, in
        the same order, as one step per tick.  An idle machine is
        stepped only when somebody reads or changes it; one with jobs
        subscribes this to the grid (see :meth:`_reschedule`) so their
        rate changes at the tick.  A cleared walk owes no draws."""
        self._advance()
        grid, walk = self._grid, self.load_walk
        if grid is None or grid.count == self._steps_taken:
            return
        owed = grid.count - self._steps_taken
        self._steps_taken = grid.count
        if walk is not None:
            self._background_load = walk.advance(
                self._rng, self._background_load, owed)
            if self.jobs:
                self._reschedule()

    @property
    def background_load(self) -> float:
        """Other users' runnable processes, as of now."""
        self._settle()
        return self._background_load

    def set_background_load(self, value: float) -> None:
        """Force the background load (used by experiments to inject spikes)."""
        self._settle()
        self._background_load = max(0.0, float(value))
        self._reschedule()

    # -- derived state ----------------------------------------------------------
    @property
    def load_average(self) -> float:
        """Runnable-process count analogue: background + placed jobs."""
        grid = self._grid
        if grid is not None and grid.count != self._steps_taken:
            self._settle()
        return self._background_load + len(self.jobs)

    @property
    def available_memory_mb(self) -> float:
        if not self.jobs:
            return max(0.0, self.spec.memory_mb)
        used = sum(j.memory_mb for j in self.jobs.values())
        return max(0.0, self.spec.memory_mb - used)

    def per_job_rate(self) -> float:
        """Work units/second each running job currently receives.

        ``cpus`` are shared by (jobs + background load) runnable entities; a
        job's share is capped at one full CPU.  (The load in force since
        the last state change: what the integrator needs.)
        """
        if not self.up:
            return 0.0
        competitors = len(self.jobs) + self._background_load
        if competitors <= 0:
            return self.spec.speed
        share = min(1.0, self.spec.cpus / competitors)
        return self.spec.speed * share

    # -- processor-sharing engine -------------------------------------------------
    def _advance(self) -> None:
        """Integrate work done since the last state change."""
        now = self.sim.now
        dt = now - self._last_advance
        if dt > 0 and self.jobs:
            rate = self.per_job_rate()
            for job in self.jobs.values():
                credit = min(job.remaining, rate * dt)
                job.remaining -= credit
                self.total_work_done += credit
        self._last_advance = now

    def _reschedule(self) -> None:
        """Schedule the completion of the job that will finish first,
        and step the load walk at the grid's tick while there is one."""
        self._epoch += 1
        grid = self._grid
        if not self.jobs or not self.up:
            if grid is not None:
                grid.unsubscribe(self)
            return
        if grid is not None:
            grid.subscribe(self, self._settle)
        rate = self.per_job_rate()
        if rate <= 0.0:
            return
        soonest = min(self.jobs.values(), key=lambda j: j.remaining)
        delay = soonest.remaining / rate
        epoch = self._epoch
        self.sim.schedule(delay, lambda: self._maybe_complete(epoch))

    def _maybe_complete(self, epoch: int) -> None:
        if epoch != self._epoch or not self.up:
            return
        self._advance()
        finished = [j for j in self.jobs.values() if j.remaining <= 1e-9]
        for job in finished:
            del self.jobs[job.job_id]
            job.remaining = 0.0
            job.finished_at = self.sim.now
            self.completed_jobs += 1
        self._reschedule()
        for job in finished:
            if job.on_complete is not None:
                job.on_complete(job)

    # -- job management -------------------------------------------------------------
    def start_job(self, job: SimJob) -> SimJob:
        """Admit a job; raises if the machine is down or out of memory."""
        if not self.up:
            raise ObjectStateError(f"machine {self.name} is down")
        if job.memory_mb > self.available_memory_mb:
            raise InsufficientResourcesError(
                f"machine {self.name}: need {job.memory_mb} MB, "
                f"have {self.available_memory_mb:.1f} MB")
        self._settle()
        job.started_at = self.sim.now
        self.jobs[job.job_id] = job
        self._reschedule()
        return job

    def add_work(self, job: SimJob, extra: float) -> None:
        """Extend a running job's remaining work (e.g. a communication
        penalty charged after placement)."""
        if extra < 0:
            raise ValueError("extra work must be non-negative")
        self._settle()
        if job.job_id in self.jobs:
            job.remaining += float(extra)
            self._reschedule()
        else:
            job.remaining += float(extra)

    def remove_job(self, job: SimJob) -> float:
        """Preempt/remove a job, returning its remaining work."""
        self._settle()
        if job.job_id in self.jobs:
            del self.jobs[job.job_id]
            job.preempted = True
            self._reschedule()
        return job.remaining

    # -- failure ----------------------------------------------------------------------
    def fail(self) -> List[SimJob]:
        """Crash: all running jobs are lost (returned for bookkeeping).

        Idempotent: failing a machine that is already down returns an
        empty list, so callers summing lost jobs never double-count.
        """
        if not self.up:
            return []
        self._settle()
        lost = list(self.jobs.values())
        for job in lost:
            job.preempted = True
        self.jobs.clear()
        self.up = False
        self._epoch += 1
        grid, self._grid = self._grid, None  # a down machine owes no steps
        if grid is not None:
            grid.unsubscribe(self)
            grid.members -= 1
        self.failures += 1
        return lost

    def recover(self) -> None:
        """Bring the machine back up.  Idempotent: recovering an up
        machine is a no-op (in particular it never joins a second
        load-step grid)."""
        if self.up:
            return
        self.up = True
        self._last_advance = self.sim.now
        self._join_grid()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SimMachine {self.name} {self.spec.arch}/"
                f"{self.spec.os_name} load={self.load_average:.2f}>")
