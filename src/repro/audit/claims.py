"""Claims as data: a comparison's claim table, and the one evaluator.

Rows are judged over the arms' ledger dicts, so the same code serves a
live run's ``problems()``, ``verdict()`` and ``summary()`` and the
document ``legion-sim ledger check`` regenerates.  Standard library
only: :mod:`repro.campaign` imports this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = ["Claim", "read", "judge", "verdict_lines", "failures"]

Arms = Mapping[str, Mapping[str, Any]]
#: (better, strict) -> the verdict line's symbol, the comparison
_OPS = {("lower", True): ("<", operator.lt),
        ("lower", False): ("<=", operator.le),
        ("higher", True): (">", operator.gt),
        ("higher", False): (">=", operator.ge)}
_VERDICT = {True: "holds", False: "FAILS", None: "undecided"}


@dataclass(frozen=True)
class Claim:
    """A metric of one policy against a named baseline (Casanova et al.,
    PAPERS.md): ``arm``'s ``metric``, a dotted path into its ledger
    dict, is ``better`` (``"lower"`` / ``"higher"``) than
    ``baseline``'s — another arm, or a fixed bound such as ``0`` or
    ``True`` — strictly or no worse.  A ``gate`` row fails every run it
    does not hold in; the others are benefits asserted at the ledger's
    seed.  A strict lower-is-better row with both sides at 0 is
    undecided: nothing can beat 0, so the run is no evidence either
    way."""

    name: str
    metric: str
    better: str
    arm: str
    baseline: Union[str, int, float, bool]
    strict: bool = True
    gate: bool = False


def read(arm: Mapping[str, Any], metric: str) -> Any:
    """``metric`` in one arm's ledger dict: an absent key reads as 0 (a
    request state nobody reached), a block of counts as its total."""
    value: Any = arm
    for key in metric.split("."):
        value = value.get(key) if isinstance(value, Mapping) else None
    if isinstance(value, Mapping):
        return sum(value.values())
    return 0 if value is None else value


def _show(value: Any) -> str:
    return format(value, "g") if isinstance(value, float) else str(value)


def judge(claim: Claim, arms: Arms) -> Tuple[Optional[bool], str]:
    """Whether ``claim`` holds over ``arms`` (arm name -> its ledger
    dict) — None when undecided — and the evidence; a missing arm fails
    it."""
    fixed = not isinstance(claim.baseline, str)
    names = (claim.arm,) if fixed else (claim.arm, claim.baseline)
    missing = [name for name in names if name not in arms]
    if missing:
        return False, f"no {', '.join(missing)} arm"
    value = read(arms[claim.arm], claim.metric)
    against = claim.baseline if fixed else read(arms[claim.baseline],
                                                claim.metric)
    symbol, compare = _OPS[claim.better, claim.strict]
    evidence = (f"{claim.arm} {_show(value)} {symbol} "
                f"{'bound' if fixed else claim.baseline} {_show(against)}")
    if claim.strict and claim.better == "lower" and value == against == 0:
        return None, evidence
    return compare(value, against), evidence


def verdict_lines(claims: Iterable[Claim], arms: Arms) -> List[str]:
    """One line per claim, in the one format every summary prints."""
    return [f"{_VERDICT[ok]}: {claim.name} ({evidence})"
            for claim in claims for ok, evidence in [judge(claim, arms)]]


def failures(claims: Iterable[Claim], arms: Arms) -> List[str]:
    """The verdict line of each claim that does not hold; empty = none
    fails (an undecided claim is not a failure)."""
    return [line for line in verdict_lines(claims, arms)
            if line.startswith("FAILS")]
