"""Tests for reservation tokens and the reservation table (Table 2)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidReservationError, ReservationDeniedError
from repro.hosts import (
    ALL_TYPES,
    ONE_SHOT_SPACE,
    ONE_SHOT_TIME,
    REUSABLE_SPACE,
    REUSABLE_TIME,
    ReservationTable,
    ReservationType,
)
from repro.hosts.reservations import INSTANTANEOUS
from repro.naming import LOID

HOST = LOID(("d", "host", "h"))
VAULT = LOID(("d", "vault", "v"))
CLASS = LOID(("d", "class", "C"))
SECRET = b"test-secret-0123"


def table(slots=4):
    return ReservationTable(HOST, SECRET, slots=slots)


class TestTypes:
    def test_four_types_table2(self):
        names = {t.name for t in ALL_TYPES}
        assert names == {
            "one-shot space", "reusable space",
            "one-shot timesharing", "reusable timesharing"}

    def test_bits(self):
        assert not ONE_SHOT_SPACE.share and not ONE_SHOT_SPACE.reuse
        assert not REUSABLE_SPACE.share and REUSABLE_SPACE.reuse
        assert ONE_SHOT_TIME.share and not ONE_SHOT_TIME.reuse
        assert REUSABLE_TIME.share and REUSABLE_TIME.reuse


class TestTokenIntegrity:
    def test_signature_verifies(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        assert tok.verify(SECRET)
        assert not tok.verify(b"other-secret")

    def test_forged_field_detected(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 duration=10.0)
        forged = dataclasses.replace(tok, duration=1e9)
        assert not t.check_reservation(forged, now=0.0)

    def test_unknown_token_not_honored(self):
        t1, t2 = table(), ReservationTable(HOST, b"another-secret-xx")
        tok = t2.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        assert not t1.check_reservation(tok, now=0.0)

    def test_token_encodes_host_and_vault(self):
        tok = table().make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        assert tok.host_loid == HOST
        assert tok.vault_loid == VAULT


def _tampered(tok):
    """Copies of ``tok`` that differ in one field and keep its (now
    stale) signature, plus one with the fields intact and the signature
    altered."""
    return {
        "duration": dataclasses.replace(tok, duration=tok.duration * 2),
        "vault": dataclasses.replace(tok, vault_loid=LOID(("d", "vault",
                                                           "w"))),
        "start": dataclasses.replace(tok, start_time=tok.issued_at + 1.0),
        "timeout": dataclasses.replace(tok, timeout=1e9),
        "signature": dataclasses.replace(
            tok, signature=bytes([tok.signature[0] ^ 1])
            + tok.signature[1:]),
    }


class TestNoVerdictLeaksToACopy:
    """The table keeps derived values (window, deadline) per entry; none
    of them, and no earlier verdict, may vouch for a rebuilt token: every
    presentation is verified over the *presented* token's own fields."""

    @pytest.mark.parametrize("field", ["duration", "vault", "start",
                                       "timeout", "signature"])
    def test_copy_refused_after_genuine_was_checked(self, field):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 duration=10.0)
        assert t.check_reservation(tok, now=1.0)   # genuine, checked once
        t.redeem(tok, now=1.0)                     # ...and redeemed once
        copy = _tampered(tok)[field]
        assert not t.check_reservation(copy, now=2.0)
        with pytest.raises(InvalidReservationError):
            t.redeem(copy, now=2.0)
        with pytest.raises(InvalidReservationError):
            t.cancel_reservation(copy, now=2.0)
        # the refusals changed nothing: the genuine token still stands
        assert t.check_reservation(tok, now=2.0)
        assert t.cancellations == 0

    def test_longer_copy_cannot_outlive_the_entry(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 duration=10.0, timeout=0.0)
        assert t.check_reservation(tok, now=10.0)
        longer = dataclasses.replace(tok, duration=1e9)
        assert not t.check_reservation(longer, now=5.0)
        assert not t.check_reservation(longer, now=11.0)
        assert not t.check_reservation(tok, now=11.0)  # really expired

    def test_signed_returns_a_new_token(self):
        tok = table().make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        unsigned = dataclasses.replace(tok, signature=b"")
        resigned = unsigned.signed(SECRET)
        assert unsigned.signature == b"" and not unsigned.verify(SECRET)
        assert resigned == tok and resigned is not unsigned


class TestSignedOnce:
    """The table signs one token per grant; the id is still drawn before
    the admission check, so a denial consumes one."""

    def test_a_denial_consumes_a_token_id(self):
        t = table()
        first = t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                                   duration=10.0)
        with pytest.raises(ReservationDeniedError, match=(
                r"window \(0\.0, 10\.0\) conflicts under type "
                r"one-shot space")):
            t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                               duration=10.0)
        later = t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                                   start_time=20.0, duration=5.0)
        assert later.token_id == first.token_id + 2
        assert later == dataclasses.replace(later,
                                            signature=b"").signed(SECRET)


class TestExpiryBoundaries:
    """``expired`` is strict (``now > bound``) on both the confirmation
    deadline and the window end, exactly as before the entry recorded
    them."""

    def test_instantaneous_deadline_boundary(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=5.0,
                                 timeout=30.0, duration=1000.0)
        assert t.check_reservation(tok, now=35.0)      # now == deadline
        assert not t.timed_out(tok, now=35.0)
        later = 35.0 + 1e-9
        assert not t.check_reservation(tok, now=later)
        assert t.timed_out(tok, now=later)
        assert t.live_count(now=35.0) == 1
        assert t.live_count(now=later) == 0

    def test_redeem_at_the_deadline_confirms(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=5.0,
                                 timeout=30.0, duration=1000.0)
        t.redeem(tok, now=35.0)
        assert not t.timed_out(tok, now=500.0)
        assert t.check_reservation(tok, now=1005.0)    # now == window end
        assert not t.check_reservation(tok, now=1005.0 + 1e-6)

    def test_window_end_beats_a_later_deadline(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 timeout=60.0, duration=10.0)
        assert t.check_reservation(tok, now=10.0)
        assert not t.check_reservation(tok, now=10.5)

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_no_deadline_without_a_positive_timeout(self, timeout):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 timeout=timeout, duration=100.0)
        assert not t.timed_out(tok, now=99.0)
        assert t.check_reservation(tok, now=100.0)

    def test_future_start_has_no_confirmation_deadline(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 start_time=100.0, duration=10.0,
                                 timeout=30.0)
        # unconfirmed long past issued_at + timeout, still live
        assert t.live_count(now=99.0) == 1
        assert not t.timed_out(tok, now=99.0)
        assert not t.check_reservation(tok, now=100.0 - 1e-9)  # too early
        assert t.check_reservation(tok, now=100.0)
        assert t.check_reservation(tok, now=110.0)     # now == window end
        assert not t.check_reservation(tok, now=110.0 + 1e-6)
        assert t.active_at(110.0, now=50.0) == 0       # end is exclusive
        assert t.active_at(100.0, now=50.0) == 1

    def test_purge_agrees_with_expired(self):
        t = table()
        t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                           timeout=30.0, duration=1000.0)
        assert t.purge(now=30.0) == 0
        assert t.purge(now=30.0 + 1e-9) == 1


class TestGranting:
    def test_shared_up_to_slots(self):
        t = table(slots=3)
        for _ in range(3):
            t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        with pytest.raises(ReservationDeniedError):
            t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        assert t.grants == 3 and t.denials == 1

    def test_unshared_excludes_everything(self):
        t = table(slots=4)
        t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0)
        for rtype in ALL_TYPES:
            with pytest.raises(ReservationDeniedError):
                t.make_reservation(VAULT, CLASS, rtype, now=0.0)

    def test_shared_blocks_unshared(self):
        t = table(slots=4)
        t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        with pytest.raises(ReservationDeniedError):
            t.make_reservation(VAULT, CLASS, REUSABLE_SPACE, now=0.0)

    def test_disjoint_windows_coexist(self):
        t = table(slots=1)
        t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                           start_time=100.0, duration=50.0)
        tok = t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                                 start_time=200.0, duration=50.0)
        assert tok.window() == (200.0, 250.0)

    @pytest.mark.parametrize("first, second", [
        ((100.0, 50.0), (150.0, 50.0)),   # the new window starts at the end
        ((150.0, 50.0), (100.0, 50.0)),   # the new window ends at the start
    ], ids=["after", "before"])
    def test_touching_windows_do_not_overlap(self, first, second):
        """Windows are half-open: [100, 150) and [150, 200) share no
        instant, so an unshared grant on either side of a touching edge
        is admitted."""
        t = table(slots=1)
        for start, duration in (first, second):
            t.make_reservation(VAULT, CLASS, ONE_SHOT_SPACE, now=0.0,
                               start_time=start, duration=duration)
        assert t.grants == 2 and t.denials == 0

    def test_future_reservation_in_past_rejected(self):
        t = table()
        with pytest.raises(ReservationDeniedError):
            t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=100.0,
                               start_time=50.0)

    def test_nonpositive_duration_rejected(self):
        t = table()
        with pytest.raises(ReservationDeniedError):
            t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                               duration=0.0)


class TestRedemption:
    def test_one_shot_single_use(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, ONE_SHOT_TIME, now=0.0)
        t.redeem(tok, now=1.0)
        assert not t.check_reservation(tok, now=2.0)
        with pytest.raises(InvalidReservationError):
            t.redeem(tok, now=2.0)

    def test_reusable_multi_use(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        for i in range(5):
            t.redeem(tok, now=float(i))
        assert t.check_reservation(tok, now=5.0)

    def test_future_reservation_cannot_redeem_early(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 start_time=100.0, duration=10.0)
        assert not t.check_reservation(tok, now=50.0)
        assert t.check_reservation(tok, now=100.0)
        assert not t.check_reservation(tok, now=111.0)

    def test_confirmation_timeout_expires_unconfirmed(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 timeout=30.0, duration=1000.0)
        assert t.check_reservation(tok, now=29.0)
        assert not t.check_reservation(tok, now=31.0)

    def test_confirmation_timeout_stops_after_redeem(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 timeout=30.0, duration=1000.0)
        t.redeem(tok, now=10.0)  # implicit confirmation
        assert t.check_reservation(tok, now=500.0)

    def test_expiry_at_window_end(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                 duration=100.0, timeout=0.0)
        assert t.check_reservation(tok, now=100.0)
        assert not t.check_reservation(tok, now=100.1)


class TestCancellation:
    def test_cancel_frees_slot(self):
        t = table(slots=1)
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        t.cancel_reservation(tok, now=1.0)
        assert not t.check_reservation(tok, now=1.0)
        # slot is free again
        t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=1.0)
        assert t.cancellations == 1

    def test_cancel_unknown_rejected(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        other = ReservationTable(HOST, b"zz")
        with pytest.raises(InvalidReservationError):
            other.cancel_reservation(tok, now=0.0)

    def test_cancel_idempotent(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        t.cancel_reservation(tok, now=0.0)
        t.cancel_reservation(tok, now=0.0)
        assert t.cancellations == 1


class TestBookkeeping:
    def test_live_count_and_purge(self):
        t = table(slots=8)
        for _ in range(3):
            t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                               duration=10.0, timeout=0.0)
        assert t.live_count(now=5.0) == 3
        assert t.live_count(now=20.0) == 0
        assert len(t) == 3
        assert t.purge(now=20.0) == 3
        assert len(t) == 0

    def test_active_at(self):
        t = table(slots=8)
        t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                           start_time=10.0, duration=10.0)
        t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                           start_time=15.0, duration=10.0)
        assert t.active_at(5.0, now=0.0) == 0
        assert t.active_at(12.0, now=0.0) == 1
        assert t.active_at(17.0, now=0.0) == 2

    def test_slots_validation(self):
        for slots in (0, -1):
            with pytest.raises(ValueError):
                ReservationTable(HOST, SECRET, slots=slots)
        assert ReservationTable(HOST, SECRET, slots=1).slots == 1

    def test_pending_counts_only_unredeemed_live_grants(self):
        t = table(slots=8)
        fresh = [t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
                 for _ in range(2)]
        used = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        dropped = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        t.redeem(used, now=1.0)
        t.cancel_reservation(dropped, now=1.0)
        assert t.pending_count(now=1.0) == len(fresh) == 2
        t.redeem(fresh[0], now=2.0)
        assert t.pending_count(now=2.0) == 1

    def test_redeem_counts_each_presentation_once(self):
        t = table()
        tok = t.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        t.redeem(tok, now=1.0)
        assert t._entries[tok.token_id].redeemed == 1
        t.redeem(tok, now=2.0)
        assert t._entries[tok.token_id].redeemed == 2

    def test_purge_of_an_empty_table_removes_nothing(self):
        t = table()
        assert t.purge(now=0.0) == 0
        assert len(t) == 0


# ---------------------------------------------------------------------------
# property-based: the capacity invariant under arbitrary grant sequences
# ---------------------------------------------------------------------------

@st.composite
def reservation_requests(draw):
    share = draw(st.booleans())
    reuse = draw(st.booleans())
    start = draw(st.one_of(
        st.just(INSTANTANEOUS),
        st.floats(min_value=0.0, max_value=100.0)))
    duration = draw(st.floats(min_value=1.0, max_value=100.0))
    return (ReservationType(share, reuse), start, duration)


class TestTableInvariants:
    @given(st.lists(reservation_requests(), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, requests, slots):
        """At every instant: no unshared overlap with anything, and at most
        ``slots`` shared reservations overlapping."""
        t = ReservationTable(HOST, SECRET, slots=slots)
        granted = []
        for rtype, start, duration in requests:
            try:
                tok = t.make_reservation(VAULT, CLASS, rtype, now=0.0,
                                         start_time=start,
                                         duration=duration, timeout=0.0)
                granted.append(tok)
            except ReservationDeniedError:
                pass
        # check the invariant at every window boundary
        points = sorted({p for tok in granted for p in tok.window()})
        for p in points:
            active = [tok for tok in granted
                      if tok.window()[0] <= p < tok.window()[1]]
            unshared = [tok for tok in active if not tok.rtype.share]
            shared = [tok for tok in active if tok.rtype.share]
            if unshared:
                assert len(active) == 1, (
                    f"unshared overlap at t={p}: {active}")
            assert len(shared) <= slots
