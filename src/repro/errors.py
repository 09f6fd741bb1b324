"""Exception hierarchy for the Legion RMS reproduction.

Every error raised by the library derives from :class:`LegionError` so callers
can catch library failures without catching programming errors.  The hierarchy
mirrors the paper's failure surfaces: reservation negotiation (section 3.1),
Collection queries (section 3.2), schedule enactment (section 3.4), and the
underlying simulated metasystem substrate.
"""

from __future__ import annotations


class LegionError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` classifies whether retrying the *same* operation after a
    backoff can plausibly succeed while the fault persists.  The
    :class:`~repro.chaos.retry.RetryPolicy` consults this flag; subclasses
    override it where the failure mode is transient.
    """

    #: may an idempotent retry of the same call succeed?
    retryable = False


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------

class SimulationError(LegionError):
    """Base class for discrete-event simulation kernel errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (e.g. yielded an unknown value)."""


# ---------------------------------------------------------------------------
# Network / transport
# ---------------------------------------------------------------------------

class NetworkError(LegionError):
    """Base class for simulated-network failures."""


class HostUnreachableError(NetworkError):
    """The destination object's host cannot be reached (partition/down).

    Not retryable by default: a partition or node failure persists on
    simulation timescales, so an immediate retry hits the same wall.
    (:class:`~repro.chaos.retry.RetryPolicy` has a ``retry_unreachable``
    knob for callers that expect fast repair.)
    """

    retryable = False


class MessageLostError(NetworkError):
    """A message was dropped by the simulated network.

    Retryable: loss is a per-message coin flip, so resending an idempotent
    request is exactly the right response.
    """

    retryable = True


class CircuitOpenError(NetworkError):
    """A per-destination circuit breaker refused the call without sending.

    Deliberately **not** a subclass of :class:`HostUnreachableError`: the
    breaker is a *local* judgement that the destination has been failing,
    and the ``retry_unreachable`` knob must not resurrect it.  Not
    retryable — the whole point of the breaker is to fail fast instead of
    burning the retry budget against a destination known to be sick; the
    half-open probe (not the caller) decides when to try again.
    """

    retryable = False


# ---------------------------------------------------------------------------
# Naming / object runtime
# ---------------------------------------------------------------------------

class NamingError(LegionError):
    """Base class for LOID / context-space errors."""


class InvalidLOIDError(NamingError):
    """A LOID string or component sequence could not be parsed."""


class BindingError(NamingError):
    """Context-space lookup or bind failure."""


class ObjectError(LegionError):
    """Base class for Legion object lifecycle errors."""


class ObjectStateError(ObjectError):
    """Operation invalid for the object's current lifecycle state."""


class UnknownObjectError(ObjectError):
    """No object with the given LOID is known to the class/manager."""


class NoImplementationError(ObjectError):
    """A class has no implementation compatible with the target platform."""


# ---------------------------------------------------------------------------
# Hosts, vaults, reservations (paper section 3.1)
# ---------------------------------------------------------------------------

class ResourceError(LegionError):
    """Base class for Host/Vault resource errors."""


class ReservationError(ResourceError):
    """Base class for reservation-management failures."""


class ReservationDeniedError(ReservationError):
    """The Host refused to grant the requested reservation."""


class AdmissionRejected(ReservationDeniedError):
    """Load-aware site-autonomy refusal: the Host's admission controller
    turned the request away before it reached the reservation table —
    its pending-reservation queue is full or the machine is saturated.

    Table 1's "accept/reject" made load-aware.  Not retryable: an
    immediate retry lands on the same overloaded host; the Enactor
    should fall back to a variant schedule instead.
    """

    retryable = False


class InvalidReservationError(ReservationError):
    """A presented token is unknown, expired, cancelled, or forged."""


class PlacementPolicyError(ResourceError):
    """Local placement policy (site autonomy) rejected the request."""


class VaultIncompatibleError(ResourceError):
    """The requested vault is not reachable/compatible with the host."""


class InsufficientResourcesError(ResourceError):
    """The host lacks memory/CPU/slots to honor the request."""


# ---------------------------------------------------------------------------
# Collection (paper section 3.2)
# ---------------------------------------------------------------------------

class CollectionError(LegionError):
    """Base class for Collection failures."""


class QuerySyntaxError(CollectionError):
    """The query string does not conform to the Collection grammar."""


class QueryEvaluationError(CollectionError):
    """A syntactically valid query failed during evaluation."""


class AuthenticationError(CollectionError):
    """The caller is not allowed to update the data in the Collection."""


class NotAMemberError(CollectionError):
    """Update/leave for a LOID that never joined the Collection."""


# ---------------------------------------------------------------------------
# Schedules, Enactor, Monitor (paper sections 3.3-3.5)
# ---------------------------------------------------------------------------

class ScheduleError(LegionError):
    """Base class for schedule data-structure errors."""


class MalformedScheduleError(ScheduleError):
    """A schedule violates structural invariants (e.g. bad variant bitmap)."""


class EnactmentError(LegionError):
    """Base class for Enactor failures."""


class SchedulingError(LegionError):
    """A Scheduler could not produce any feasible schedule."""


class MigrationError(LegionError):
    """Object migration (deactivate / move OPR / reactivate) failed."""


class BudgetExceededError(SchedulingError):
    """An economic scheduler could not place within the user's remaining
    budget (no feasible host clears the auction under the spend cap).

    A subclass of :class:`SchedulingError` so the generic negotiate/enact
    wrapper degrades to a failed :class:`SchedulingOutcome` instead of
    crashing the placement loop."""


# ---------------------------------------------------------------------------
# Service tier
# ---------------------------------------------------------------------------

class RequestStateError(LegionError):
    """A service request was sent an event its state machine
    (``repro.service.request.FIRES_FROM``) forbids."""


# ---------------------------------------------------------------------------
# Chaos / fault injection
# ---------------------------------------------------------------------------

class ChaosError(LegionError):
    """A fault action could not be applied or reverted (e.g. crashing a
    host that is already down, or a shard outage on an unfederated
    metasystem)."""


# ---------------------------------------------------------------------------
# Recovery / checkpointing
# ---------------------------------------------------------------------------

class RecoveryError(LegionError):
    """The recovery layer hit an invariant violation: a double lease
    grant, a checkpoint captured at a non-quiescent point, or a restore
    against a metasystem whose service tier is still running."""
