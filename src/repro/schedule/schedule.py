"""The Schedule data structure (paper Fig. 5) and Enactor data types.

"Each Schedule has at least one Master Schedule, and each Master Schedule
may have a list of Variant Schedules associated with it. ... Each entry in
the variant schedule is a single-object mapping, and replaces one entry in
the master schedule. ... Our data structure includes a bitmap field (one bit
per object mapping) for each variant schedule which allows the Enactor to
efficiently select the next variant schedule to try."

The three Enactor-facing types (section 3.3):

* ``LegionScheduleList`` — a single schedule (master or variant), here the
  resolved entry list a :class:`MasterSchedule`/:class:`VariantSchedule`
  produces;
* ``LegionScheduleRequestList`` — the whole Fig. 5 structure:
  :class:`ScheduleRequestList`;
* ``LegionScheduleFeedback`` — :class:`ScheduleFeedback`, returned by the
  Enactor with the original request plus success information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import MalformedScheduleError
from .mapping import ScheduleMapping

__all__ = [
    "MasterSchedule",
    "VariantSchedule",
    "ScheduleRequestList",
    "ScheduleFeedback",
    "FailureKind",
]


class FailureKind:
    """Coarse Enactor failure codes: "the Enactor may ... report whether the
    failure was due to an inability to obtain resources, a malformed
    schedule, or other failure."  """

    RESOURCES = "unable to obtain resources"
    MALFORMED = "malformed schedule"
    OTHER = "other failure"
    NONE = ""


class VariantSchedule:
    """A sparse overlay on a master schedule.

    ``replacements`` maps master entry index -> replacement mapping.  The
    bitmap has bit *i* set iff entry *i* is replaced.
    """

    def __init__(self, replacements: Dict[int, ScheduleMapping],
                 label: str = ""):
        if not replacements:
            raise MalformedScheduleError(
                "a variant schedule must replace at least one entry")
        for idx in replacements:
            if idx < 0:
                raise MalformedScheduleError(
                    f"negative entry index {idx} in variant")
        self.replacements = dict(replacements)
        self.label = label

    @property
    def bitmap(self) -> int:
        """Bit *i* set iff this variant replaces master entry *i*."""
        bits = 0
        for idx in self.replacements:
            bits |= 1 << idx
        return bits

    def covers(self, failed_indices: Sequence[int]) -> bool:
        """True when this variant replaces every failed entry.

        This is the Enactor's bitmap selection test: a variant is a
        candidate "next schedule to try" only if its bitmap covers the set
        of failed mappings.
        """
        need = 0
        for idx in failed_indices:
            need |= 1 << idx
        return (self.bitmap & need) == need

    def __len__(self) -> int:
        return len(self.replacements)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VariantSchedule {self.label or hex(self.bitmap)} "
                f"replaces {sorted(self.replacements)}>")


class MasterSchedule:
    """An ordered list of mappings plus its variant list.

    ``required_k`` implements the future-work "k out of n" scheduling
    (section 3.3): when set, the Enactor deems reservation successful once
    any ``required_k`` of the entries hold reservations, cancelling the
    rest.  ``None`` (the default) requires every entry.
    """

    def __init__(self, entries: Sequence[ScheduleMapping],
                 variants: Optional[Sequence[VariantSchedule]] = None,
                 required_k: Optional[int] = None,
                 label: str = ""):
        self.entries: List[ScheduleMapping] = list(entries)
        if not self.entries:
            raise MalformedScheduleError("a master schedule must contain "
                                         "at least one mapping")
        self.variants: List[VariantSchedule] = list(variants or [])
        if required_k is not None and not (
                1 <= required_k <= len(self.entries)):
            raise MalformedScheduleError(
                f"required_k={required_k} out of range for "
                f"{len(self.entries)} entries")
        self.required_k = required_k
        self.label = label
        self._validate_variants()

    @classmethod
    def from_candidates(cls, candidates: Sequence[Sequence[ScheduleMapping]],
                        label: str = "", variant_label: str = ""
                        ) -> "MasterSchedule":
        """The Fig. 5 structure from per-entry ranked candidates.

        ``candidates[j][0]`` is master entry *j*.  Variant *v* (from 1)
        replaces entry *j* with ``candidates[j][v]`` wherever that exists
        and names another (Host, Vault) than the master entry; a variant
        that would replace nothing is skipped.  It is labelled
        ``variant_label.format(v)``.
        """
        entries = [ranked[0] for ranked in candidates]
        variants = []
        for v in range(1, max(map(len, candidates), default=0)):
            replacements = {
                j: ranked[v] for j, ranked in enumerate(candidates)
                if v < len(ranked) and not ranked[v].same_target(ranked[0])}
            if replacements:
                variants.append(VariantSchedule(
                    replacements, label=variant_label.format(v)))
        return cls(entries, variants, label=label)

    def _validate_variants(self) -> None:
        n = len(self.entries)
        for variant in self.variants:
            for idx in variant.replacements:
                if idx >= n:
                    raise MalformedScheduleError(
                        f"variant replaces entry {idx} but master has "
                        f"only {n} entries")

    def add_variant(self, variant: VariantSchedule) -> None:
        for idx in variant.replacements:
            if idx >= len(self.entries):
                raise MalformedScheduleError(
                    f"variant replaces entry {idx} but master has only "
                    f"{len(self.entries)} entries")
        self.variants.append(variant)

    def resolve(self, variant: Optional[VariantSchedule] = None
                ) -> List[ScheduleMapping]:
        """The effective entry list with a variant's replacements applied."""
        if variant is None:
            return list(self.entries)
        out = list(self.entries)
        for idx, mapping in variant.replacements.items():
            out[idx] = mapping
        return out

    def select_variant(self, failed_indices: Sequence[int],
                       exclude: Sequence[VariantSchedule] = ()
                       ) -> Optional[VariantSchedule]:
        """Bitmap-driven choice of the next variant to try.

        Returns the first unexcluded variant covering all failed entries,
        preferring the one that replaces the *fewest* entries (minimal
        disturbance — this is what avoids reservation thrashing).
        """
        candidates = [v for v in self.variants
                      if v not in exclude and v.covers(failed_indices)]
        if not candidates:
            return None
        return min(candidates, key=len)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MasterSchedule {self.label!r} entries={len(self.entries)} "
                f"variants={len(self.variants)}>")


class ScheduleRequestList:
    """The full Fig. 5 structure: a list of master schedules (each with its
    variants), tried by the Enactor in order."""

    def __init__(self, masters: Sequence[MasterSchedule], label: str = ""):
        self.masters: List[MasterSchedule] = list(masters)
        if not self.masters:
            raise MalformedScheduleError(
                "a schedule request needs at least one master schedule")
        self.label = label

    def __len__(self) -> int:
        return len(self.masters)

    def __iter__(self):
        return iter(self.masters)

    def total_mappings(self) -> int:
        return sum(len(m) for m in self.masters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ScheduleRequestList masters={len(self.masters)}>"


@dataclass
class ScheduleFeedback:
    """LegionScheduleFeedback: the original request plus what happened."""

    request: ScheduleRequestList
    ok: bool
    #: index of the master schedule that succeeded (if any)
    master_index: Optional[int] = None
    #: the variant that was applied, or None if the master itself succeeded
    variant: Optional[VariantSchedule] = None
    #: the effective, reserved entry list (for k-of-n, the k winners)
    reserved_entries: List[ScheduleMapping] = field(default_factory=list)
    failure_kind: str = FailureKind.NONE
    failure_detail: str = ""
    #: per-entry failure messages from the last attempt, index -> message
    entry_errors: Dict[int, str] = field(default_factory=dict)
    #: opaque handle for enact/cancel calls against this reservation set
    reservation_handle: Optional[object] = None

    @property
    def schedule(self) -> Optional[MasterSchedule]:
        if self.master_index is None:
            return None
        return self.request.masters[self.master_index]
