"""Open-loop traffic: seeded diurnal/bursty user populations.

The generator emits submits as a **non-homogeneous Poisson process**
via Lewis–Shedler thinning: candidate arrivals are drawn at the peak
rate ``λmax`` and accepted with probability ``λ(t)/λmax``, where

    λ(t) = users × rate_per_user × diurnal(t) × burst(t) × surge(t)

* ``diurnal(t)`` is a sinusoid over ``day_length`` (amplitude
  ``diurnal_amplitude``) — the daily tide of a user population;
* ``burst(t)`` is a seeded two-state flare process (Lazarevic & Sacks,
  PAPERS.md): bursts arrive every ``mean_burst_every`` seconds on
  average, last ``mean_burst_length``, and multiply the rate by
  ``burst_multiplier``;
* ``surge(t)`` is an optional *deterministic* overload window
  (``surge_start``/``surge_length``/``surge_multiplier``) — the
  controlled burst the shedding-vs-no-shedding comparison leans on.

Because cost is O(arrivals), not O(users), ``users`` scales to millions
of simulated users without changing the price of a run: ten million
users at a tiny per-user rate is just a higher λ(t).  All randomness
comes from one seeded stream, so a traffic trace is a pure function of
``(seed, model, duration)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

__all__ = ["TrafficGenerator", "TrafficModel"]


@dataclass(frozen=True)
class TrafficModel:
    """The shape of one simulated user population."""

    #: simulated user population (cost is O(arrivals), so go big)
    users: int = 1000
    #: mean submits per user per hour at the diurnal midpoint
    requests_per_user_hour: float = 0.5
    #: relative swing of the daily sinusoid (0 = flat)
    diurnal_amplitude: float = 0.4
    #: period of the diurnal cycle in virtual seconds
    day_length: float = 86400.0
    #: rate multiplier while a stochastic burst is active (1 = no bursts)
    burst_multiplier: float = 3.0
    #: mean virtual seconds between burst onsets
    mean_burst_every: float = 600.0
    #: mean virtual seconds a burst lasts
    mean_burst_length: float = 60.0
    #: deterministic overload window: start offset (<0 disables)
    surge_start: float = -1.0
    #: deterministic overload window: duration in virtual seconds
    surge_length: float = 0.0
    #: rate multiplier inside the surge window
    surge_multiplier: float = 1.0
    #: relative weights of priorities 0, 1, 2, ... for each arrival
    priority_weights: Tuple[float, ...] = (0.8, 0.15, 0.05)

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.requests_per_user_hour <= 0:
            raise ValueError("requests_per_user_hour must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.day_length <= 0:
            raise ValueError("day_length must be positive")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if self.mean_burst_every <= 0 or self.mean_burst_length <= 0:
            raise ValueError("burst timing parameters must be positive")
        if self.surge_multiplier < 1.0:
            raise ValueError("surge_multiplier must be >= 1")
        if self.surge_start >= 0 and self.surge_length <= 0:
            raise ValueError("surge_length must be positive when a "
                             "surge is scheduled")
        if not self.priority_weights or \
                any(w < 0 for w in self.priority_weights) or \
                sum(self.priority_weights) <= 0:
            raise ValueError("priority_weights must be non-negative "
                             "with a positive sum")

    @property
    def base_rate(self) -> float:
        """Population-wide mean arrival rate (req/s) at the midpoint."""
        return self.users * self.requests_per_user_hour / 3600.0

    @property
    def peak_rate(self) -> float:
        """λmax: the thinning envelope (every multiplier at its worst)."""
        return (self.base_rate * (1.0 + self.diurnal_amplitude)
                * self.burst_multiplier * self.surge_multiplier)

    def rate(self, t: float, bursting: bool) -> float:
        """λ(t): instantaneous arrival rate ``t`` seconds into the run."""
        lam = self.base_rate * (
            1.0 + self.diurnal_amplitude
            * math.sin(2.0 * math.pi * t / self.day_length))
        if bursting:
            lam *= self.burst_multiplier
        if self.surge_start >= 0 and \
                self.surge_start <= t < self.surge_start + self.surge_length:
            lam *= self.surge_multiplier
        return lam


class TrafficGenerator:
    """One seeded arrival process feeding ``gateway.submit`` open-loop."""

    def __init__(self, sim: Any, rng: Any, model: TrafficModel,
                 submit: Callable[..., Any], duration: float):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.sim = sim
        self.rng = rng
        self.model = model
        self.submit = submit
        self.duration = duration
        self.arrivals = 0
        self.accepted = 0
        self.by_priority: Dict[int, int] = {}
        self._bursting = False
        self._next_toggle = 0.0
        self._proc = None
        # normalised cumulative priority distribution
        total = sum(model.priority_weights)
        acc = 0.0
        self._cum_weights = []
        for w in model.priority_weights:
            acc += w / total
            self._cum_weights.append(acc)

    def start(self) -> None:
        """Launch the arrival process (idempotent)."""
        if self._proc is None:
            self._proc = self.sim.process(self._run(),
                                          name="service-traffic")

    # -- the arrival process --------------------------------------------------
    def _run(self):
        model, rng = self.model, self.rng
        t0 = self.sim.now
        end = t0 + self.duration
        lam_max = model.peak_rate
        self._next_toggle = t0 + float(rng.exponential(
            model.mean_burst_every))
        # Thinned candidates never reach the kernel: their times are
        # accumulated here (the same floating-point sum the clock would
        # make) and the process wakes only for an accepted arrival.
        t = t0
        while True:
            gap = float(rng.exponential(1.0 / lam_max))
            if t + gap >= end:
                break
            t += gap
            self._advance_bursts(t)
            lam = model.rate(t - t0, self._bursting)
            if float(rng.random()) >= lam / lam_max:
                continue  # thinned candidate
            arrival = self.sim.event("service-arrival")
            self.sim.schedule_at(t, arrival.succeed)
            yield arrival
            self.arrivals += 1
            user = f"user-{int(rng.integers(model.users)):07d}"
            priority = self._draw_priority()
            self.by_priority[priority] = self.by_priority.get(priority, 0) + 1
            if self.submit(user=user, priority=priority):
                self.accepted += 1

    def _advance_bursts(self, now: float) -> None:
        if self.model.burst_multiplier <= 1.0:
            return
        while now >= self._next_toggle:
            self._bursting = not self._bursting
            dwell = (self.model.mean_burst_length if self._bursting
                     else self.model.mean_burst_every)
            self._next_toggle += float(self.rng.exponential(dwell))

    def _draw_priority(self) -> int:
        u = float(self.rng.random())
        for priority, cum in enumerate(self._cum_weights):
            if u < cum:
                return priority
        return len(self._cum_weights) - 1

    def stats(self) -> Dict[str, Any]:
        return {
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "by_priority": {str(k): v
                            for k, v in sorted(self.by_priority.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TrafficGenerator users={self.model.users} "
                f"arrivals={self.arrivals}>")
