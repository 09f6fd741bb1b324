"""Checkers that replay what the system recorded against what the paper
specifies (``protocol``: Fig. 3's step order over exported spans)."""

from .protocol import check_spans, check_trace, load_jsonl

__all__ = ["check_spans", "check_trace", "load_jsonl"]
