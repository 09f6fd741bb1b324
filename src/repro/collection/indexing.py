"""Indexed Collections: attribute indexes for metasystem-scale queries.

Legion was "intended to connect many thousands, perhaps millions, of
hosts"; a linear scan per query (the 1999 Collection, reproduced by
:class:`~repro.collection.collection.Collection`) does not survive that
vision.  :class:`IndexedCollection` keeps the same Fig. 4 interface and
exact query semantics while maintaining inverted indexes over scalar
attribute values.

Query planning is deliberately simple and sound: the planner walks the
AST's *top-level conjunction* collecting equality constraints of the form
``$attr == literal`` (or ``literal == $attr``); the candidate set is the
intersection of the matching index buckets, and the full evaluator then
runs only over the candidates.  Any query without such a constraint falls
back to the scan.  Because the index only ever *narrows* the candidate
set for records that could satisfy the conjunction, results are identical
to the unindexed Collection (property-tested).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..naming.loid import LOID
from .collection import Collection
from .query.ast import And, Attr, Compare, Literal, Node
from .records import CollectionRecord

__all__ = ["IndexedCollection", "equality_constraints"]

_SCALAR = (str, int, float, bool)


def _index_key(value: Any) -> Optional[tuple]:
    """Normalized index key for a scalar value (numeric coercion mirrors
    the evaluator's loose equality, where bools compare as numbers)."""
    if isinstance(value, (bool, int, float)):
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    return None


def equality_constraints(node: Node) -> List[tuple]:
    """``(attr, value)`` pairs that every match must satisfy.

    Collected only from the top-level AND spine: anything below an OR or
    NOT may be optional, so it is ignored (sound, possibly not tight).
    """
    out: List[tuple] = []
    if isinstance(node, And):
        out.extend(equality_constraints(node.left))
        out.extend(equality_constraints(node.right))
    elif isinstance(node, Compare) and node.op == "==":
        left, right = node.left, node.right
        if isinstance(left, Attr) and isinstance(right, Literal):
            out.append((left.name, right.value))
        elif isinstance(right, Attr) and isinstance(left, Literal):
            out.append((right.name, left.value))
    return out


class IndexedCollection(Collection):
    """A Collection with inverted indexes over scalar attribute values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # attr -> key -> set of member LOIDs
        self._index: Dict[str, Dict[tuple, Set[LOID]]] = {}
        self.index_hits = 0
        self.scan_fallbacks = 0

    # -- index maintenance -------------------------------------------------
    def _unindex_value(self, member: LOID, attr: str, value: Any) -> None:
        values = value if isinstance(value, list) else [value]
        buckets = self._index.get(attr)
        if buckets is None:
            return
        for v in values:
            key = _index_key(v)
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is not None:
                bucket.discard(member)
                if not bucket:
                    del buckets[key]

    def _index_value(self, member: LOID, attr: str, value: Any) -> None:
        values = value if isinstance(value, list) else [value]
        buckets = self._index.setdefault(attr, {})
        for v in values:
            key = _index_key(v)
            if key is None:
                continue
            buckets.setdefault(key, set()).add(member)

    # -- overridden mutation paths -------------------------------------------
    def _reindex(self, member: LOID, old: Dict[str, Any]) -> None:
        """Move ``member`` between buckets for the attributes whose value
        differs from ``old`` (its attributes before the mutation)."""
        record = self._records.get(member)
        if record is None:
            return
        new = record.attributes
        for attr, value in old.items():
            if attr not in new or new[attr] != value:
                self._unindex_value(member, attr, value)
        for attr, value in new.items():
            if attr not in old or old[attr] != value:
                self._index_value(member, attr, value)

    def join(self, joiner: LOID, attributes=None):
        old = {}
        existing = self._records.get(joiner)
        if existing is not None:
            old = dict(existing.attributes)
        credential = super().join(joiner, attributes)
        self._reindex(joiner, old)
        return credential

    def leave(self, leaver: LOID, credential=None) -> None:
        record = self._records.get(leaver)
        old = dict(record.attributes) if record is not None else {}
        super().leave(leaver, credential)
        for attr, value in old.items():
            self._unindex_value(leaver, attr, value)

    def update_entry(self, member: LOID, attributes, credential=None
                     ) -> None:
        record = self._records.get(member)
        old = dict(record.attributes) if record is not None else {}
        super().update_entry(member, attributes, credential)
        self._reindex(member, old)

    def pull_from(self, source: Any) -> None:
        record = self._records.get(source.loid)
        old = dict(record.attributes) if record is not None else {}
        super().pull_from(source)
        self._reindex(source.loid, old)

    def merge_record(self, incoming) -> bool:
        record = self._records.get(incoming.member)
        old = dict(record.attributes) if record is not None else {}
        changed = super().merge_record(incoming)
        if changed:
            self._reindex(incoming.member, old)
        return changed

    # -- overridden query path ---------------------------------------------------
    def _candidates(self, ast: Node) -> Optional[List[LOID]]:
        constraints = equality_constraints(ast)
        result: Optional[Set[LOID]] = None
        for attr, value in constraints:
            if attr in self._computed or attr == "loid":
                # computed/implicit attributes never appear in the index;
                # an empty bucket would wrongly exclude everything
                continue
            key = _index_key(value)
            if key is None:
                continue
            buckets = self._index.get(attr)
            bucket = buckets.get(key, set()) if buckets else set()
            result = bucket if result is None else (result & bucket)
            if not result:
                return []
        if result is None:
            return None
        return sorted(result)

    def query(self, query: str) -> List[CollectionRecord]:
        plan = self._plan_for(query)
        candidates = self._candidates(plan.ast)
        if candidates is None:
            self.scan_fallbacks += 1
            return super().query(query)
        self.index_hits += 1
        self.queries_served += 1
        from .collection import _RecordView
        matches_fn = plan.matches
        raw = (not self._computed and not plan.uses_loid
               and not plan.has_calls)
        view = None if raw else _RecordView(None, self._computed)
        out: List[CollectionRecord] = []
        with self.spans.span_if_active("collection.serve", step="2",
                                       path="index") as sp:
            for member in candidates:
                record = self._records.get(member)
                if record is None or self._quarantined(record):
                    continue
                subject = (record.attributes if raw
                           else view._bind(record))
                if matches_fn(subject):
                    out.append(record)
            sp.set_attribute("results", len(out))
        self._record_query_metrics("index", len(candidates), len(out))
        return out
