"""Computational-economy scheduling: budgets, deadlines, auctions.

A Nimrod/G-style economy layered on the accounting seed.  Hosts
publish ask prices discovered by a seeded market daemon
(:mod:`~repro.economy.market`), reservations clear through sealed-bid
auctions (:mod:`~repro.economy.auction`), users spend finite budgets
against deadlines (:mod:`~repro.economy.budget`), and two
optimization-mode schedulers bid inside the budget/deadline box
(:mod:`~repro.economy.sched`).  Campaigns and reports
(:mod:`~repro.economy.campaign`, :mod:`~repro.economy.report`) evaluate
the economy against the Random/IRS baselines, GridSim-style.

Enable it on a built world with
:meth:`repro.metasystem.Metasystem.enable_economy` — the one way;
:func:`~repro.economy.campaign.run_economy` calls it itself, and
``make_scheduler("economy")`` calls it implicitly.  Drive it from the
CLI with ``legion-sim economy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .auction import Ask, AuctionResult, SealedBidAuction
from .budget import BudgetManager, UserAccount
from .campaign import run_economy, run_economy_comparison
from .config import EconomyConfig
from .market import Market
from .report import EconomyComparison, EconomyReport
from .sched import EconomyScheduler

__all__ = [
    "Ask",
    "AuctionResult",
    "BudgetManager",
    "EconomyComparison",
    "EconomyConfig",
    "EconomyReport",
    "EconomyScheduler",
    "EconomySuite",
    "Market",
    "SealedBidAuction",
    "UserAccount",
    "run_economy",
    "run_economy_comparison",
]


@dataclass
class EconomySuite:
    """Everything :meth:`Metasystem.enable_economy` installs, in one bag."""

    config: EconomyConfig
    market: Market
    auction: SealedBidAuction
    budgets: BudgetManager
    ledger: object  # repro.accounting.Ledger (avoids an import cycle)
