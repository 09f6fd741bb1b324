"""Tests for the Fig. 5 Schedule data structure and its bitmap invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedScheduleError
from repro.naming import LOID
from repro.schedule import (
    MasterSchedule,
    ScheduleMapping,
    ScheduleRequestList,
    VariantSchedule,
)


def mapping(host="h0", vault="v0", cls="C"):
    return ScheduleMapping(LOID(("d", "class", cls)),
                           LOID(("d", "host", host)),
                           LOID(("d", "vault", vault)))


class TestMapping:
    def test_same_target(self):
        a = mapping("h1", "v1")
        b = mapping("h1", "v1", cls="Other")
        c = mapping("h2", "v1")
        assert a.same_target(b)
        assert not a.same_target(c)

    def test_str(self):
        assert "->" in str(mapping())


class TestVariant:
    def test_requires_replacements(self):
        with pytest.raises(MalformedScheduleError):
            VariantSchedule({})

    def test_negative_index_rejected(self):
        with pytest.raises(MalformedScheduleError):
            VariantSchedule({-1: mapping()})

    def test_bitmap_bits(self):
        v = VariantSchedule({0: mapping(), 3: mapping("h3")})
        assert v.bitmap == 0b1001

    def test_covers(self):
        v = VariantSchedule({0: mapping(), 2: mapping("h2")})
        assert v.covers([0])
        assert v.covers([0, 2])
        assert v.covers([])
        assert not v.covers([1])
        assert not v.covers([0, 1])

    def test_len(self):
        assert len(VariantSchedule({0: mapping(), 1: mapping()})) == 2


class TestMaster:
    def make_master(self, n=3):
        return MasterSchedule([mapping(f"h{i}") for i in range(n)])

    def test_requires_entries(self):
        with pytest.raises(MalformedScheduleError):
            MasterSchedule([])

    def test_variant_index_bounds_checked(self):
        master = self.make_master(2)
        with pytest.raises(MalformedScheduleError):
            master.add_variant(VariantSchedule({5: mapping()}))
        with pytest.raises(MalformedScheduleError):
            MasterSchedule([mapping()],
                           variants=[VariantSchedule({3: mapping()})])

    def test_resolve_master_is_copy(self):
        master = self.make_master()
        entries = master.resolve()
        entries[0] = mapping("zzz")
        assert master.entries[0].host_loid == LOID(("d", "host", "h0"))

    def test_resolve_with_variant(self):
        master = self.make_master(3)
        v = VariantSchedule({1: mapping("alt")})
        master.add_variant(v)
        resolved = master.resolve(v)
        assert resolved[0] == master.entries[0]
        assert resolved[1].host_loid == LOID(("d", "host", "alt"))
        assert resolved[2] == master.entries[2]

    def test_select_variant_prefers_minimal(self):
        master = self.make_master(3)
        big = VariantSchedule({0: mapping("a"), 1: mapping("b"),
                               2: mapping("c")}, label="big")
        small = VariantSchedule({1: mapping("d")}, label="small")
        master.add_variant(big)
        master.add_variant(small)
        chosen = master.select_variant([1])
        assert chosen is small

    def test_select_variant_must_cover_all_failures(self):
        master = self.make_master(3)
        v01 = VariantSchedule({0: mapping("a"), 1: mapping("b")})
        master.add_variant(v01)
        assert master.select_variant([0, 1]) is v01
        assert master.select_variant([0, 2]) is None

    def test_select_variant_respects_exclusions(self):
        master = self.make_master(2)
        v1 = VariantSchedule({0: mapping("a")})
        v2 = VariantSchedule({0: mapping("b")})
        master.add_variant(v1)
        master.add_variant(v2)
        first = master.select_variant([0])
        second = master.select_variant([0], exclude=[first])
        assert {first, second} == {v1, v2}
        assert master.select_variant([0], exclude=[v1, v2]) is None

    def test_required_k_validation(self):
        with pytest.raises(MalformedScheduleError):
            MasterSchedule([mapping()], required_k=2)
        with pytest.raises(MalformedScheduleError):
            MasterSchedule([mapping()], required_k=0)
        master = MasterSchedule([mapping(), mapping("h1")], required_k=1)
        assert master.required_k == 1


class TestFromCandidates:
    def test_variant_v_takes_each_entrys_v_th_candidate(self):
        master = MasterSchedule.from_candidates(
            [[mapping("a"), mapping("b"), mapping("c")],
             [mapping("d"), mapping("e")],
             [mapping("f")]],
            "m", "alt-{}")
        assert master.label == "m"
        assert master.entries == [mapping("a"), mapping("d"), mapping("f")]
        assert [(v.label, v.replacements) for v in master.variants] == [
            ("alt-1", {0: mapping("b"), 1: mapping("e")}),
            ("alt-2", {0: mapping("c")})]

    def test_same_target_is_not_a_replacement(self):
        """A candidate naming the master entry's (Host, Vault) replaces
        nothing, and a variant left empty is skipped, not numbered
        over: the label keeps the candidate's rank."""
        master = MasterSchedule.from_candidates(
            [[mapping("a"), mapping("a", cls="Other"), mapping("b")]],
            variant_label="rank-{}")
        assert [(v.label, v.replacements) for v in master.variants] == [
            ("rank-2", {0: mapping("b")})]

    def test_a_label_without_a_field_is_kept(self):
        master = MasterSchedule.from_candidates(
            [[mapping("a"), mapping("b")], [mapping("c"), mapping("d")]],
            variant_label="next")
        assert [v.label for v in master.variants] == ["next"]

    def test_no_candidates_is_malformed(self):
        with pytest.raises(MalformedScheduleError):
            MasterSchedule.from_candidates([])


class TestRequestList:
    def test_requires_masters(self):
        with pytest.raises(MalformedScheduleError):
            ScheduleRequestList([])

    def test_iteration_and_counts(self):
        m1 = MasterSchedule([mapping()])
        m2 = MasterSchedule([mapping(), mapping("h1")])
        rl = ScheduleRequestList([m1, m2])
        assert len(rl) == 2
        assert list(rl) == [m1, m2]
        assert rl.total_mappings() == 3


class TestBitmapProperties:
    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_bitmap_popcount_matches_replacements(self, indices):
        v = VariantSchedule({i: mapping(f"h{i}") for i in indices})
        assert bin(v.bitmap).count("1") == len(indices)
        for i in indices:
            assert v.bitmap & (1 << i)

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1),
           st.sets(st.integers(min_value=0, max_value=15)))
    @settings(max_examples=100, deadline=None)
    def test_covers_iff_subset(self, replaced, failed):
        v = VariantSchedule({i: mapping(f"h{i}") for i in replaced})
        assert v.covers(sorted(failed)) == failed.issubset(replaced)

    @given(st.integers(min_value=1, max_value=12),
           st.sets(st.integers(min_value=0, max_value=11), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_resolve_changes_exactly_replaced_entries(self, n, indices):
        indices = {i for i in indices if i < n}
        if not indices:
            return
        master = MasterSchedule([mapping(f"m{i}") for i in range(n)])
        v = VariantSchedule({i: mapping(f"x{i}") for i in indices})
        master.add_variant(v)
        resolved = master.resolve(v)
        for i in range(n):
            if i in indices:
                assert resolved[i].host_loid.fields[-1] == f"x{i}"
            else:
                assert resolved[i] == master.entries[i]
