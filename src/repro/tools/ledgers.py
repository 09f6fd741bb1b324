"""The ledger registry: every committed ``BENCH_*.json`` and how to check it.

One row per ledger — the exact ``legion-sim`` argv that regenerates it
and, for a comparison, the comparison whose claim table
(:mod:`repro.audit.claims`) its document must satisfy.  ``legion-sim
ledger check [NAME…|--all]`` and ``legion-sim ledger write NAME`` run
on top of it, and ``tests/test_ledgers.py`` calls the same
:func:`check_ledger`, so CI, the CLI and tier-1 agree on what "the
ledger holds" means.  Every ledger holds virtual-time results only and
is checked one way: it is regenerated twice in-process; the two
outputs must match byte for byte (determinism), match the committed
file byte for byte (freshness), the run must exit 0 (its report's
``problems()`` is empty) and every claim must hold over the document.

Adding a ledger is adding a row (``docs/extending.md``).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..audit.claims import failures
from ..chaos.report import RetryComparison
from ..economy.report import EconomyComparison
from ..guardrails.compare import GuardrailsComparison
from ..service.report import ServiceComparison
from .cli import main

__all__ = ["Ledger", "LEDGERS", "select", "check_ledger"]


@dataclass(frozen=True)
class Ledger:
    """One committed ledger: ``BENCH_<name>.json``."""

    name: str
    #: regenerates the ledger once ``--out FILE`` is appended
    argv: Tuple[str, ...]
    #: the comparison whose claims the document must satisfy
    comparison: Optional[type] = None

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"


LEDGERS: Tuple[Ledger, ...] = (
    Ledger("chaos",
           ("chaos", "--profile", "lossy", "--chaos-seed", "9", "--waves",
            "6", "--count", "3", "--compare-retry"),
           RetryComparison),
    Ledger("guardrails",
           ("guardrails", "--compare", "--domains", "3", "--hosts", "6"),
           GuardrailsComparison),
    Ledger("economy",
           ("economy", "--compare-baselines", "--mode", "cost", "--seed", "0",
            "--chaos-profile", "lossy", "--chaos-seed", "0", "--guardrails",
            "--retry", "--waves", "8", "--count", "2", "--users", "3",
            "--domains", "3", "--hosts", "8", "--platforms", "3",
            "--deadline", "800", "--budget", "100", "--deadline-safety",
            "0.5"),
           EconomyComparison),
    Ledger("service", ("serve", "--seed", "7", "--compare-shedding"),
           ServiceComparison),
    Ledger("gameday", ("gameday", "--seed", "7", "--compare-restore")),
    Ledger("scale", ("scale", "--sizes", "64,256,1024")),
)


def select(names: Sequence[str], everything: bool = False) -> List[Ledger]:
    """The registry rows called ``names`` (all of them when
    ``everything``); raises :class:`ValueError` on an unknown or empty
    selection."""
    if everything:
        return list(LEDGERS)
    by_name = {ledger.name: ledger for ledger in LEDGERS}
    unknown = [name for name in names if name not in by_name]
    if unknown or not names:
        what = (f"unknown ledger(s) {', '.join(unknown)}" if unknown
                else "no ledger named")
        raise ValueError(
            f"{what}; choose from {', '.join(by_name)} or pass --all")
    return [by_name[name] for name in names]


def _regenerate(ledger: Ledger, path: str) -> Tuple[int, str, bytes]:
    """One regenerating run: exit status, stdout, the bytes written."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    out = io.StringIO()
    code = main([*ledger.argv, "--out", path], out=out)
    with open(path, "rb") as fh:
        return code, out.getvalue(), fh.read()


def check_ledger(ledger: Ledger, root: str = ".",
                 keep: Optional[str] = None) -> List[str]:
    """Everything wrong with one committed ledger; empty = it holds.

    ``root`` is the directory holding the committed file.  ``keep``
    names a directory that receives the regenerated ledger and its
    run's stdout.
    """
    committed_path = os.path.join(root, ledger.filename)
    try:
        with open(committed_path, "rb") as fh:
            committed = fh.read()
    except OSError as exc:
        return [f"cannot read the committed ledger: {exc}"]

    with tempfile.TemporaryDirectory() as tmp:
        try:
            # the first run lands in ``keep`` when asked to stay around
            code, stdout, fresh = _regenerate(
                ledger, os.path.join(keep or tmp, ledger.filename))
            _, _, again = _regenerate(ledger, os.path.join(tmp, "again"))
        except OSError as exc:
            return [f"`legion-sim {' '.join(ledger.argv)}` did not write "
                    f"its ledger: {exc}"]
    if keep:
        with open(os.path.join(keep, f"{ledger.name}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(stdout)
    problems: List[str] = []
    if code != 0:
        problems.append(f"the regenerating run exited {code}")
        problems.extend(line for line in stdout.splitlines()
                        if line.startswith("ERROR: "))
    if fresh != again:
        problems.append("nondeterministic across two identical seeded runs")
    if fresh != committed:
        problems.append(
            f"{ledger.filename} is stale — regenerate with `legion-sim "
            f"ledger write {ledger.name}` and commit the result")
    if ledger.comparison is not None:
        arms = json.loads(fresh)[ledger.comparison.reports_key]
        problems.extend(f"claim failed: {line}" for line in
                        failures(ledger.comparison.claims, arms))
    return problems
