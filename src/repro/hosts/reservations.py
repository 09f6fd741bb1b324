"""Reservations: non-forgeable tokens and the per-Host reservation table.

Paper section 3.1: "To support scheduling, Hosts grant reservations for
future service. ... they must be non-forgeable tokens; the Host Object must
recognize these tokens when they are passed in with service requests. ...
Our current implementation of reservations encodes both the Host and the
Vault which will be used for execution of the object."

"Legion reservations have a start time, a duration, and an optional timeout
period. ... The timeout period indicates how long the recipient has to
confirm the reservation if the start time indicates an instantaneous
reservation.  Confirmation is implicit when the reservation token is
presented with the StartObject() call.  Our reservations have two type bits:
reuse and share" — giving the four types of Table 2:

====================  =======  =======
type                  share    reuse
====================  =======  =======
one-shot space        0        0
reusable space        0        1
one-shot timesharing  1        0
reusable timesharing  1        1
====================  =======  =======

An *unshared* reservation allocates the entire resource for its window; a
*shared* one multiplexes the resource (bounded by the host's slot count).  A
*reusable* token may be presented to multiple StartObject() calls.

Non-forgeability is realized with an HMAC-SHA256 signature over the token
fields using a per-host secret; only the issuing Host can mint or verify its
tokens.  "It is not necessary for any other object in the system to be able
to decode the reservation token."
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import InvalidReservationError, ReservationDeniedError
from ..naming.loid import LOID

__all__ = [
    "ReservationType",
    "ONE_SHOT_SPACE",
    "REUSABLE_SPACE",
    "ONE_SHOT_TIME",
    "REUSABLE_TIME",
    "ReservationToken",
    "ReservationTable",
]


@dataclass(frozen=True)
class ReservationType:
    """The two type bits of a Legion reservation (Table 2)."""

    share: bool
    reuse: bool
    #: "one-shot space" ... "reusable timesharing", fixed by the two bits
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind = "timesharing" if self.share else "space"
        shot = "reusable" if self.reuse else "one-shot"
        object.__setattr__(self, "name", f"{shot} {kind}")

    def __str__(self) -> str:
        return self.name


ONE_SHOT_SPACE = ReservationType(share=False, reuse=False)
REUSABLE_SPACE = ReservationType(share=False, reuse=True)
ONE_SHOT_TIME = ReservationType(share=True, reuse=False)
REUSABLE_TIME = ReservationType(share=True, reuse=True)

ALL_TYPES = (ONE_SHOT_SPACE, REUSABLE_SPACE, ONE_SHOT_TIME, REUSABLE_TIME)

#: start_time value meaning "now" — an instantaneous reservation, subject to
#: the confirmation timeout.
INSTANTANEOUS = -1.0


def _payload(token_id: int, host_loid: LOID, vault_loid: LOID,
             class_loid: LOID, rtype: ReservationType, start_time: float,
             duration: float, timeout: float, issued_at: float) -> bytes:
    """The bytes a token's signature covers: every field but itself."""
    return "|".join([
        str(token_id), str(host_loid), str(vault_loid), str(class_loid),
        str(int(rtype.share)), str(int(rtype.reuse)), repr(start_time),
        repr(duration), repr(timeout), repr(issued_at),
    ]).encode("utf-8")


def _sign(secret: bytes, payload: bytes) -> bytes:
    return hmac.new(secret, payload, hashlib.sha256).digest()


@dataclass(frozen=True)
class ReservationToken:
    """An unforgeable grant of future service on one (Host, Vault) pair."""

    token_id: int
    host_loid: LOID
    vault_loid: LOID
    class_loid: LOID
    rtype: ReservationType
    start_time: float          # absolute virtual time; INSTANTANEOUS for "now"
    duration: float
    timeout: float             # confirmation window for instantaneous grants
    issued_at: float
    signature: bytes = b""

    def _fields(self) -> tuple:
        """Every field but the signature: what the signature covers."""
        return (self.token_id, self.host_loid, self.vault_loid,
                self.class_loid, self.rtype, self.start_time, self.duration,
                self.timeout, self.issued_at)

    def payload(self) -> bytes:
        return _payload(*self._fields())

    def signed(self, secret: bytes) -> "ReservationToken":
        return ReservationToken(*self._fields(),
                                _sign(secret, self.payload()))

    def verify(self, secret: bytes) -> bool:
        return hmac.compare_digest(_sign(secret, self.payload()),
                                   self.signature)

    @property
    def instantaneous(self) -> bool:
        return self.start_time == INSTANTANEOUS

    def window(self) -> Tuple[float, float]:
        """The reserved interval; instantaneous windows start at issue time."""
        start = self.issued_at if self.instantaneous else self.start_time
        return (start, start + self.duration)


class _Entry:
    __slots__ = ("token", "cancelled", "redeemed", "start", "end",
                 "deadline")

    def __init__(self, token: ReservationToken):
        self.token = token
        self.cancelled = False
        self.redeemed = 0      # StartObject presentations (the first confirms)
        # the token is frozen, so its interval and its confirmation
        # deadline (inf: none to meet) are fixed here once
        self.start, self.end = token.window()
        self.deadline = (token.issued_at + token.timeout
                         if token.instantaneous and token.timeout > 0
                         else float("inf"))

    def expired(self, now: float) -> bool:
        return now > self.end or (now > self.deadline
                                  and not self.redeemed)


class ReservationTable:
    """The Host-side reservation ledger (the paper's "reservation table").

    Admission rules over any instant ``t``:

    * an **unshared** reservation may be granted only if no other live
      reservation overlaps its window, and it blocks all later overlaps;
    * **shared** reservations may overlap each other up to ``slots``
      concurrent grants, but never overlap an unshared one.

    Token ids count from 1 per table: a token is named by its host and
    its id together.
    """

    __slots__ = ("host_loid", "_secret", "slots", "_ids", "_entries",
                 "grants", "denials", "cancellations")

    def __init__(self, host_loid: LOID, secret: bytes, slots: int = 4):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.host_loid = host_loid
        self._ids = itertools.count(1)
        self._secret = secret
        self.slots = slots
        self._entries: Dict[int, _Entry] = {}
        self.grants = 0
        self.denials = 0
        self.cancellations = 0

    # -- internal helpers ---------------------------------------------------
    def _live_entries(self, now: float) -> List[_Entry]:
        return [e for e in self._entries.values()
                if not e.cancelled and not e.expired(now)]

    def _admissible(self, start: float, end: float, share: bool,
                    now: float) -> bool:
        overlapping = [e for e in self._entries.values()
                       if start < e.end and e.start < end
                       and not e.cancelled and not e.expired(now)]
        if not share:
            return not overlapping
        if any(not e.token.rtype.share for e in overlapping):
            return False
        return len(overlapping) < self.slots

    # -- the Table 1 reservation-management interface -------------------------
    def make_reservation(self, vault_loid: LOID, class_loid: LOID,
                         rtype: ReservationType, now: float,
                         start_time: float = INSTANTANEOUS,
                         duration: float = 3600.0,
                         timeout: float = 60.0) -> ReservationToken:
        """Grant and sign a reservation, or raise ReservationDeniedError."""
        if duration <= 0:
            raise ReservationDeniedError("non-positive duration")
        if start_time != INSTANTANEOUS and start_time < now:
            raise ReservationDeniedError(
                f"start_time {start_time} is in the past (now={now})")
        # the id is drawn before admission, so a denial consumes one
        fields = (next(self._ids), self.host_loid, vault_loid, class_loid,
                  rtype, start_time, duration, timeout, now)
        start = now if start_time == INSTANTANEOUS else start_time
        window = (start, start + duration)  # what the token's window() is
        if not self._admissible(*window, rtype.share, now):
            self.denials += 1
            raise ReservationDeniedError(
                f"host {self.host_loid}: window {window} "
                f"conflicts under type {rtype}")
        token = ReservationToken(*fields,
                                 _sign(self._secret, _payload(*fields)))
        self._entries[token.token_id] = _Entry(token)
        self.grants += 1
        return token

    def check_reservation(self, token: ReservationToken, now: float) -> bool:
        """Is this token one of ours, live, and currently honorable?"""
        entry = self._entries.get(token.token_id)
        if entry is None or entry.cancelled:
            return False
        if not token.verify(self._secret):
            return False
        if entry.token != token:
            return False  # altered fields with a stale signature
        if entry.expired(now):
            return False
        if not token.rtype.reuse and entry.redeemed > 0:
            return False
        if not token.instantaneous and now < token.start_time:
            return False  # too early to redeem a future reservation
        return True

    def timed_out(self, token: ReservationToken, now: float) -> bool:
        """True when an instantaneous grant expired unconfirmed — the
        reservation-timeout case the observability layer counts apart
        from ordinary denials."""
        entry = self._entries.get(token.token_id)
        if entry is None or entry.cancelled or entry.redeemed:
            return False
        return now > entry.deadline

    def redeem(self, token: ReservationToken, now: float) -> None:
        """Consume the token for one StartObject (implicit confirmation)."""
        if not self.check_reservation(token, now):
            raise InvalidReservationError(
                f"token {token.token_id} is not redeemable on "
                f"{self.host_loid}")
        entry = self._entries[token.token_id]
        entry.redeemed += 1

    def cancel_reservation(self, token: ReservationToken, now: float) -> None:
        entry = self._entries.get(token.token_id)
        if entry is None or not token.verify(self._secret):
            raise InvalidReservationError(
                f"cannot cancel unknown/forged token {token.token_id}")
        if not entry.cancelled:
            entry.cancelled = True
            self.cancellations += 1

    # -- bookkeeping ------------------------------------------------------------
    def live_count(self, now: float) -> int:
        return len(self._live_entries(now))

    def active_at(self, t: float, now: float) -> int:
        """Live reservations whose window covers instant ``t``."""
        return sum(1 for e in self._live_entries(now)
                   if e.start <= t < e.end)

    def pending_count(self, now: float) -> int:
        """Live grants not yet presented to any StartObject call.

        These are outstanding promises of future capacity — the queue the
        admission controller bounds."""
        return sum(1 for e in self._live_entries(now) if e.redeemed == 0)

    def purge(self, now: float) -> int:
        """Drop expired/cancelled entries; returns the number removed."""
        if not self._entries:
            return 0
        dead = [tid for tid, e in self._entries.items()
                if e.cancelled or e.expired(now)]
        for tid in dead:
            del self._entries[tid]
        return len(dead)

    def __len__(self) -> int:
        return len(self._entries)
