"""Step-order conformance: replay a placement's spans against Fig. 3.

The span tree of a placement records the protocol as it ran.  This
checker accepts a trace only when its words respect the order Fig. 3
requires of steps 4-11:

* every ``host.start`` that succeeds (step 10) follows a granted
  ``host.reserve`` (step 5) on the same host in the same trace, and that
  grant was not withdrawn by an ``rpc:cancel_reservation`` to the host in
  between (grants and cancels are counted per host, so a host holding two
  reservations keeps one after a single cancel);
* no ``rpc:create_instance`` starts before the ``enactor.negotiate``
  preceding it has ended (steps 7-9 wait for steps 4-6);
* each ``host.start`` lies inside the window of its parent
  ``rpc:create_instance`` (the Class starts the object while it serves
  the create).

Spans are replayed in creation (document) order — the order their
callees executed — so concurrent batches are judged by when each call
ran, not by the stretched request-to-reply windows of their ``rpc:``
spans.  Table 2's token life cycle and the variant and rollback arcs are
not modelled here.

Run it over an exported file with::

    python -m repro.audit.protocol spans.jsonl
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional

from ..obs.trace_export import group_by_trace

__all__ = ["check_spans", "check_trace", "load_jsonl"]


def load_jsonl(text: str) -> List[Any]:
    """Spans from ``spans_to_jsonl`` output, in document order."""
    return [SimpleNamespace(**json.loads(line))
            for line in text.splitlines() if line.strip()]


def check_spans(spans: Iterable[Any]) -> List[str]:
    """Problems in every trace of ``spans`` (an empty list accepts)."""
    problems: List[str] = []
    for spans_of_trace in group_by_trace(spans).values():
        problems.extend(check_trace(spans_of_trace))
    return problems


def check_trace(spans: List[Any]) -> List[str]:
    """Problems in one trace, its spans in document order."""
    by_id = {s.span_id: s for s in spans}
    host_at: Dict[str, str] = {}      # rpc dst -> host LOID
    live: Dict[str, int] = {}         # host LOID -> grants not cancelled
    negotiated: Optional[Any] = None  # the latest enactor.negotiate
    problems: List[str] = []

    def bad(span: Any, why: str) -> None:
        problems.append(f"{span.trace_id}/{span.span_id} {span.name}: {why}")

    for span in spans:
        name = span.name
        if name == "enactor.negotiate":
            negotiated = span
        elif name == "host.reserve":
            parent = by_id.get(span.parent_id)
            host = span.attributes.get("host")
            if parent is not None and "dst" in parent.attributes:
                host_at[parent.attributes["dst"]] = host
            if span.status == "ok":
                live[host] = live.get(host, 0) + 1
        elif name == "rpc:cancel_reservation":
            host = host_at.get(span.attributes.get("dst"))
            if live.get(host, 0) > 0:
                live[host] -= 1
        elif name == "rpc:create_instance":
            if negotiated is None:
                bad(span, "create without a negotiation before it")
            elif negotiated.end is None or span.start < negotiated.end:
                bad(span, f"starts at {span.start} before negotiation "
                          f"{negotiated.span_id} ended at {negotiated.end}")
        elif name == "host.start":
            parent = by_id.get(span.parent_id)
            if parent is None or parent.name != "rpc:create_instance":
                bad(span, "not served by an rpc:create_instance")
            elif not (parent.start <= span.start
                      and span.end is not None and parent.end is not None
                      and span.end <= parent.end):
                bad(span, f"[{span.start}, {span.end}] outside its create "
                          f"[{parent.start}, {parent.end}]")
            if (span.attributes.get("ok")
                    and live.get(span.attributes.get("host"), 0) <= 0):
                bad(span, "started without a live granted reservation "
                          "on its host")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.audit.protocol SPANS.jsonl ...",
              file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans = load_jsonl(fh.read())
        problems = check_spans(spans)
        for problem in problems:
            print(f"{path}: {problem}")
        failed += bool(problems)
        print(f"{path}: {len(spans)} spans, "
              f"{'rejected' if problems else 'accepted'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
