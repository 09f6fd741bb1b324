"""Render transport traces as ASCII sequence diagrams.

Every remote call of a traced request is an ``rpc:<label>`` span whose
attributes name its source and destination; :func:`render_sequence`
turns a slice of those spans into the classic lifeline diagram — the
Fig. 3 protocol, drawn from an actual run:

.. code-block:: text

    scheduler        collection      dom0/ws1        dom0/ws2
        |--QueryCollection-->|            |               |
        |<-------0.8ms-------|            |               |
        |--make_reservation[0]----------->|               |
        |--make_reservation[1]----------------------------->|
        ...

Used by ``legion-sim run --trace`` and handy in notebooks/debugging.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..obs.spans import Span

__all__ = ["render_sequence", "protocol_trace"]

_RPC = "rpc:"


def _short(endpoint: Optional[str]) -> str:
    """Compact an endpoint name ('None' becomes 'client')."""
    if endpoint in ("None", "", None):
        return "client"
    return str(endpoint)


def render_sequence(spans: Iterable[Span],
                    max_label: int = 28,
                    column_width: int = 16) -> str:
    """Render the ``rpc:`` spans among ``spans`` as a sequence diagram."""
    invokes = [s for s in spans if s.name.startswith(_RPC)]
    if not invokes:
        return "(no invocations recorded)"

    # lifelines, in order of first appearance
    parties: List[str] = []
    for span in invokes:
        for endpoint in (_short(span.attributes.get("src")),
                         _short(span.attributes.get("dst"))):
            if endpoint not in parties:
                parties.append(endpoint)
    width = max(column_width,
                max(len(p) for p in parties) + 2)
    col = {p: i for i, p in enumerate(parties)}

    def lifeline_row(fill: str = " ", marker: str = "|") -> List[str]:
        row = [fill] * (width * len(parties))
        for p, i in col.items():
            row[i * width + width // 2] = marker
        return row

    lines: List[str] = []
    # header
    header = ""
    for p in parties:
        header += p.center(width)
    lines.append(header.rstrip())

    for span in invokes:
        src = _short(span.attributes.get("src"))
        dst = _short(span.attributes.get("dst"))
        label = span.name[len(_RPC):][:max_label]
        note = (f"{label} ({(span.end - span.start) * 1e3:.1f}ms)"
                if span.end is not None else label)
        a, b = col[src], col[dst]
        row = lifeline_row()
        left, right = min(a, b), max(a, b)
        start = left * width + width // 2
        end = right * width + width // 2
        if a == b:
            # self-call
            row[start] = "|"
            text = " " + note
            for j, ch in enumerate(text):
                pos = start + 1 + j
                if pos < len(row):
                    row[pos] = ch
        else:
            for pos in range(start + 1, end):
                row[pos] = "-"
            if a < b:
                row[end - 1] = ">"
            else:
                row[start + 1] = "<"
            # centred label, truncated (with ellipsis) to the arrow span
            avail = max(end - start - 3, 0)
            display = note
            if len(display) > avail:
                display = (note[: max(avail - 1, 0)] + "~") if avail > 1 \
                    else ""
            first = start + 1 + max((avail - len(display)) // 2, 0)
            if a >= b:
                first += 1  # keep the '<' arrowhead visible
            for j, ch in enumerate(display):
                pos = first + j
                if start < pos < end - 1:
                    row[pos] = ch
        lines.append("".join(row).rstrip())
        lines.append("".join(lifeline_row()).rstrip())
    return "\n".join(lines)


def protocol_trace(spans: Iterable[Span], since: float = 0.0,
                   limit: Optional[int] = None) -> str:
    """Sequence diagram of the ``rpc:`` spans (e.g. ``meta.spans.spans``)
    starting at/after ``since``, at most ``limit`` of them."""
    invokes = [s for s in spans
               if s.name.startswith(_RPC) and s.start >= since]
    if limit is not None:
        invokes = invokes[:limit]
    return render_sequence(invokes)
