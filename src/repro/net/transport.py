"""The RPC transport: latency-charged method invocation over the simulator.

Design (DESIGN.md section 4): RMI protocol code runs on the Python stack, but
every remote invocation passes through :meth:`Transport.invoke`, which

1. checks reachability (raising :class:`HostUnreachableError` on partition or
   node failure) and samples message loss;
2. samples the request latency, advances the virtual clock by it, and drains
   world events up to the new time (``Simulator.run_until``) so the callee
   observes a current world;
3. executes the target callable;
4. charges the reply latency the same way.

:meth:`Transport.parallel_invoke` models the Enactor issuing reservation
requests (and, once they hold, ``create_instance`` calls) to several Hosts
*concurrently*: calls execute in arrival order, and the clock finishes at the
**max** completion time rather than the sum, so co-allocation cost scales
with the slowest resource — the behaviour E8 measures.
:meth:`Transport.invoke_each` is its one-call-after-another twin.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CircuitOpenError,
    HostUnreachableError,
    MessageLostError,
    NetworkError,
)
from ..obs.registry import DEFAULT_SIZE_BUCKETS, NULL_METRICS
from ..obs.spans import NULL_SPANS, TraceContext
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .latency import LatencyModel
from .topology import NetLocation, Topology

__all__ = ["Transport", "Call", "CallOutcome"]


@dataclass(frozen=True, slots=True)
class Call:
    """One remote invocation for :meth:`Transport.parallel_invoke`."""

    src: Optional[NetLocation]
    dst: NetLocation
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    #: carried trace context — callee-side spans parent under the sender
    context: Optional[TraceContext] = None
    #: the caller must hear the reply: charge it like :meth:`invoke`'s
    #: (reachability, loss, the timeout wait), so an executed call can
    #: still fail in its slot with its ack lost
    acked: bool = False


@dataclass(slots=True)
class CallOutcome:
    """Result slot from a parallel invocation."""

    ok: bool
    value: Any = None
    error: Optional[Exception] = None
    completed_at: float = 0.0

    def __post_init__(self) -> None:
        # a stored error is data: its traceback (and its context's) would
        # pin the failed call's frames, and through f_back the frame that
        # holds this outcome, in a reference cycle only the GC can free
        err = self.error
        while err is not None:
            err.__traceback__ = None
            err = err.__context__


class Transport:
    """Latency-charging invocation layer bound to one simulator."""

    #: a lost message costs the sender this many request latencies before
    #: the timeout fires (instances may override via ``loss_timeout_factor``)
    LOSS_TIMEOUT_FACTOR = 4.0

    def __init__(self, sim: Simulator, topology: Topology,
                 latency_model: LatencyModel, rngs: RngRegistry,
                 loss_probability: float = 0.0,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.sim = sim
        self.topology = topology
        self.latency_model = latency_model
        self.rng = rngs.stream("net", "latency")
        self._loss_rng = rngs.stream("net", "loss")
        self.metrics = metrics
        self.spans = spans
        self.loss_probability = loss_probability
        self.loss_timeout_factor = self.LOSS_TIMEOUT_FACTOR
        #: opt-in retry layer (duck-typed; see repro.chaos.retry.RetryPolicy)
        self.retry_policy = None
        #: opt-in per-destination circuit breakers (duck-typed; see
        #: repro.guardrails.breaker.BreakerBoard)
        self.breakers = None
        # chaos hooks: additive spikes compose as max(base, spikes) and
        # multiplicative factors as a product, so overlapping faults can
        # revert in any order without clobbering each other's state.
        self._loss_spikes: List[float] = []
        self._latency_factors: List[float] = []
        self.messages_sent = 0
        self.messages_lost = 0
        self.retries = 0

    # -- chaos hooks ---------------------------------------------------------
    def push_loss_spike(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss spike probability must be in [0, 1]")
        self._loss_spikes.append(float(probability))

    def pop_loss_spike(self, probability: float) -> None:
        self._loss_spikes.remove(float(probability))

    def push_latency_factor(self, factor: float) -> None:
        if factor <= 0.0:
            raise ValueError("latency factor must be positive")
        self._latency_factors.append(float(factor))

    def pop_latency_factor(self, factor: float) -> None:
        self._latency_factors.remove(float(factor))

    def clear_spikes(self) -> int:
        """Drop all chaos spikes (injector teardown safety net)."""
        n = len(self._loss_spikes) + len(self._latency_factors)
        self._loss_spikes.clear()
        self._latency_factors.clear()
        return n

    def effective_loss_probability(self) -> float:
        if not self._loss_spikes:
            return self.loss_probability
        return max(self.loss_probability, max(self._loss_spikes))

    def _sample_latency(self, src: Optional[NetLocation],
                        dst: Optional[NetLocation]) -> float:
        lat = self.latency_model.sample_latency(self.rng, src, dst)
        for factor in self._latency_factors:
            lat *= factor
        return lat

    def _count_message(self, lost: bool = False) -> None:
        self.messages_sent += 1
        self.metrics.count("transport_messages_total", kind="sent")
        if lost:
            self.messages_lost += 1
            self.metrics.count("transport_messages_total", kind="lost")

    # -- single call --------------------------------------------------------
    def _hop(self, src: Optional[NetLocation], dst: NetLocation,
             label: str) -> Tuple[float, bool]:
        """Draw one message hop: ``(delay, lost)``, or raise when
        unreachable.  A lost message's delay is the timeout the sender
        still waits out before seeing the loss."""
        if not self.topology.reachable(src, dst):
            raise HostUnreachableError(f"{src} -> {dst} unreachable "
                                       f"({label})")
        p = self.effective_loss_probability()
        lost = p > 0.0 and self._loss_rng.random() < p
        lat = self._sample_latency(src, dst)
        return (self.loss_timeout_factor * lat if lost else lat), lost

    def _one_way(self, src: Optional[NetLocation], dst: NetLocation,
                 label: str) -> None:
        """Charge one message hop, or raise."""
        delay, lost = self._hop(src, dst, label)
        self._count_message(lost=lost)
        self.sim.run_until(self.sim.now + delay)
        if lost:
            raise MessageLostError(f"message {src} -> {dst} lost ({label})")

    def _reply_hop(self, src: Optional[NetLocation], dst: NetLocation,
                   label: str) -> None:
        """Charge the reply message from ``dst`` back to ``src``.

        When ``src`` is a well-connected service endpoint (None), the reply
        is charged with the same src=None distribution as the request.
        """
        if src is not None:
            self._one_way(dst, src, label)
        else:
            self._one_way(None, dst, label)

    def invoke(self, src: Optional[NetLocation], dst: NetLocation,
               fn: Callable[..., Any], *args: Any,
               label: str = "", idempotent: bool = False,
               **kwargs: Any) -> Any:
        """Synchronous remote call: request hop, execute, reply hop.

        When a :attr:`retry_policy` is installed and the caller marks the
        call ``idempotent=True``, network failures are retried with seeded
        backoff; without a policy (the default) the flag is a no-op, so
        callers may tag idempotent calls unconditionally.
        """
        policy = self.retry_policy
        if policy is None or not idempotent:
            return self._invoke_once(src, dst, fn, *args, label=label,
                                     **kwargs)
        name = label or getattr(fn, "__name__", "call")
        first_try = self.sim.now
        attempt = 0
        while True:
            try:
                return self._invoke_once(src, dst, fn, *args, label=label,
                                         **kwargs)
            except NetworkError as exc:
                attempt += 1
                delay = policy.next_delay(exc, attempt,
                                          self.sim.now - first_try)
                if delay is None:
                    raise
                self.retries += 1
                self.metrics.count("transport_retries_total", label=name)
                self.sim.run_until(self.sim.now + delay)

    def _invoke_once(self, src: Optional[NetLocation], dst: NetLocation,
                     fn: Callable[..., Any], *args: Any,
                     label: str = "", **kwargs: Any) -> Any:
        breakers = self.breakers
        if breakers is not None:
            # fail fast before charging any hop; CircuitOpenError is
            # non-retryable so a RetryPolicy gives up immediately
            breakers.check(dst)
        t0 = self.sim.now
        name = label or getattr(fn, "__name__", "call")
        # a flag, not the callee's exception: a local naming the error
        # would sit in a frame its own traceback pins
        error_replied = False
        try:
            # interned: every retained span of a label shares one name
            with self.spans.span_if_active(sys.intern(f"rpc:{name}"),
                                           src=str(src), dst=str(dst)):
                self._one_way(src, dst, name)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self._reply_hop(src, dst, "error-reply")
                    error_replied = True
                    raise
                self._reply_hop(src, dst, "reply")
        except NetworkError:
            if breakers is not None:
                if error_replied:
                    # the callee raised it (e.g. a nested invoke further
                    # downstream) and the error-reply landed: dst is alive
                    breakers.record_success(dst)
                else:
                    breakers.record_failure(dst)
            raise
        except Exception:
            # application error with a delivered error-reply: dst is alive
            if breakers is not None:
                breakers.record_success(dst)
            raise
        if breakers is not None:
            breakers.record_success(dst)
        self.metrics.observe("transport_invoke_rtt_seconds",
                             self.sim.now - t0)
        return result

    def transfer(self, src: Optional[NetLocation], dst: NetLocation,
                 nbytes: float, label: str = "transfer") -> float:
        """Charge a bulk data transfer (e.g. moving an OPR between vaults).

        Returns the elapsed transfer time."""
        if not self.topology.reachable(src, dst):
            raise HostUnreachableError(f"{src} -> {dst} unreachable "
                                       f"({label})")
        elapsed = self.latency_model.transfer_time(self.rng, nbytes, src,
                                                   dst)
        for factor in self._latency_factors:
            elapsed *= factor
        with self.spans.span_if_active(f"transfer:{label}", src=str(src),
                                       dst=str(dst), nbytes=nbytes):
            self._count_message()
            self.metrics.count("transport_transfer_bytes_total", nbytes)
            self.sim.run_until(self.sim.now + elapsed)
        return elapsed

    # -- batches of calls -----------------------------------------------------
    def invoke_each(self, calls: Sequence[Call]) -> List[CallOutcome]:
        """Issue a batch one :meth:`invoke` after another, each failure
        captured in its slot as :meth:`parallel_invoke` does — the
        sequential ablation, and the exchange a batch of one *is*."""
        outcomes: List[CallOutcome] = []
        for call in calls:
            try:
                value = self.invoke(call.src, call.dst, call.fn, *call.args,
                                    label=call.label, **call.kwargs)
                outcomes.append(CallOutcome(True, value=value,
                                            completed_at=self.sim.now))
            except Exception as exc:
                outcomes.append(CallOutcome(False, error=exc,
                                            completed_at=self.sim.now))
        return outcomes

    def _rpc_span(self, call: Call):
        """The ``rpc:`` span of one call of a parallel batch."""
        name = call.label or getattr(call.fn, "__name__", "call")
        return self.spans.span_if_active(sys.intern(f"rpc:{name}"),
                                         src=str(call.src),
                                         dst=str(call.dst))

    def _failed_span(self, call: Call, caller_ctx: Optional[TraceContext],
                     error: Exception) -> None:
        """A zero-length error span for a call that never executed."""
        with self.spans.activate(call.context or caller_ctx):
            with self._rpc_span(call) as sp:
                sp.set_status("error")
                sp.set_attribute("error", f"{type(error).__name__}: {error}")

    def parallel_invoke(self, calls: Sequence[Call]) -> List[CallOutcome]:
        """Issue several calls concurrently; finish at the slowest one.

        Outcomes are returned in input order.  Individual failures (network
        or callee exceptions) are captured per-slot, not raised — the Enactor
        needs all outcomes to decide between master and variant schedules.
        Replies always arrive unless the call is :attr:`Call.acked`.
        """
        start = self.sim.now
        outcomes: List[CallOutcome] = [CallOutcome(False) for _ in calls]
        if not calls:
            return outcomes

        # The caller's context backs any call that carries none of its own.
        caller_ctx = self.spans.current_context()

        # Sample all request latencies up front, execute in arrival order.
        breakers = self.breakers
        p = self.effective_loss_probability()  # all requests leave now
        arrivals: List[Tuple[float, int]] = []
        for i, call in enumerate(calls):
            if breakers is not None and not breakers.allow(call.dst):
                err: Exception = CircuitOpenError(
                    f"circuit open for {call.dst}")
                outcomes[i] = CallOutcome(False, error=err,
                                          completed_at=start)
                self._failed_span(call, caller_ctx, err)
                continue
            if not self.topology.reachable(call.src, call.dst):
                err = HostUnreachableError(
                    f"{call.src} -> {call.dst}")
                outcomes[i] = CallOutcome(False, error=err,
                                          completed_at=start)
                self._failed_span(call, caller_ctx, err)
                if breakers is not None:
                    breakers.record_failure(call.dst)
                continue
            lost = p > 0.0 and self._loss_rng.random() < p
            self._count_message(lost=lost)
            if lost:
                lat = self._sample_latency(call.src, call.dst)
                err = MessageLostError(str(call.dst))
                outcomes[i] = CallOutcome(
                    False, error=err,
                    completed_at=start + self.loss_timeout_factor * lat)
                self._failed_span(call, caller_ctx, err)
                if breakers is not None:
                    breakers.record_failure(call.dst)
                continue
            lat = self._sample_latency(call.src, call.dst)
            arrivals.append((start + lat, i))

        completion = start
        replies = lost_replies = 0
        for arrive_at, i in sorted(arrivals):
            call = calls[i]
            self.sim.run_until(arrive_at)
            with self.spans.activate(call.context or caller_ctx):
                with self._rpc_span(call) as sp:
                    try:
                        value = call.fn(*call.args, **call.kwargs)
                        ok, err2 = True, None
                    except Exception as exc:
                        ok, err2, value = False, exc, None
                        sp.set_status("error")
                        sp.set_attribute(
                            "error", f"{type(exc).__name__}: {exc}")
            back = ((call.dst, call.src) if call.src is not None
                    else (None, call.dst))
            ack_error: Optional[NetworkError] = None
            if call.acked:
                # invoke's reply rule: the ack is a hop that can fail
                label = "reply" if ok else "error-reply"
                try:
                    reply_lat, lost = self._hop(*back, label)
                except HostUnreachableError as exc:
                    reply_lat, ack_error = 0.0, exc
                else:
                    replies += 1
                    if lost:
                        lost_replies += 1
                        ack_error = MessageLostError(
                            f"message {back[0]} -> {back[1]} lost "
                            f"({label})")
            else:
                reply_lat = self._sample_latency(*back)
                replies += 1
            if breakers is not None:
                if ack_error is None:
                    # the callee ran, so the destination is reachable —
                    # even when it answered with an application error
                    breakers.record_success(call.dst)
                else:
                    breakers.record_failure(call.dst)
            done = self.sim.now + reply_lat
            if sp.end is not None:
                # stretch the rpc span over the full request->reply window
                # (the call executed mid-batch; its cost is the round trip)
                sp.start, sp.end = start, done
            if ack_error is not None:
                ok, err2, value = False, ack_error, None
                sp.set_status("error")
                sp.set_attribute("error", f"{type(ack_error).__name__}: "
                                          f"{ack_error}")
            outcomes[i] = CallOutcome(ok, value=value, error=err2,
                                      completed_at=done)
            completion = max(completion, done)
        if replies:
            # reply hops are accounted in one batch: same totals as the
            # per-hop path, one counter update instead of len(arrivals)
            self.messages_sent += replies
            self.metrics.count("transport_messages_total", replies,
                               kind="sent")
        if lost_replies:
            self.messages_lost += lost_replies
            self.metrics.count("transport_messages_total", lost_replies,
                               kind="lost")

        # Failed/lost slots may have later timeout completions.
        for o in outcomes:
            completion = max(completion, o.completed_at)
        self.sim.run_until(completion)
        self.metrics.observe("transport_parallel_batch_size", len(calls),
                             buckets=DEFAULT_SIZE_BUCKETS)
        return outcomes
