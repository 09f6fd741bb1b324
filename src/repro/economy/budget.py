"""Per-user budgets and deadlines: the demand side of the economy.

Nimrod/G frames grid scheduling as users spending a finite **budget**
against a **deadline** (PAPERS.md).  The :class:`BudgetManager` keeps one
:class:`UserAccount` per user and enforces the spend discipline the
economic Schedulers rely on:

* **hold** — funds are committed at schedule time, *before* any
  reservation is negotiated, at the auction-cleared rate x the advertised
  work.  A hold that would exceed the remaining budget raises
  :class:`~repro.errors.BudgetExceededError`;
* **bind** — once a placement enacts, each hold transfers onto the
  created instance together with its cleared price-per-cycle, so the user
  pays the rate agreed at reservation time even if the market reprices
  the host mid-run;
* **charge** — the accounting :class:`~repro.accounting.ledger.Ledger`
  meters actual cycles on completion/kill/deactivation; its post hook
  lands here, converts cycles to spend at the bound rate, and releases
  the hold;
* **refund** — failed or aborted placements release their holds in full
  (the Scheduler's wrapper loop calls :meth:`release_all` whenever a
  schedule attempt dies), so a crashing metasystem never leaks budget.

Invariant (pinned by a hypothesis property in ``tests/test_economy.py``):
``spent + committed <= budget`` for every account, at every point, as
long as metered cycles never exceed the advertised work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import BudgetExceededError
from ..naming.loid import LOID
from ..obs.registry import NULL_METRICS

__all__ = ["UserAccount", "BudgetManager"]


@dataclass
class UserAccount:
    """One user's budget, deadline, and spend ledger."""

    name: str
    budget: float = float("inf")
    #: relative completion deadline (virtual seconds from submission)
    deadline: float = float("inf")
    committed: float = 0.0
    spent: float = 0.0
    refunded: float = 0.0
    holds: int = 0
    charges: int = 0

    @property
    def available(self) -> float:
        """Funds not yet spent or held against pending placements."""
        return self.budget - self.committed - self.spent

    @property
    def overrun(self) -> float:
        """How far actual spend exceeded the budget (0.0 when within)."""
        return max(0.0, self.spent - self.budget)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "budget": self.budget if self.budget != float("inf") else None,
            "deadline": (self.deadline
                         if self.deadline != float("inf") else None),
            "committed": round(self.committed, 6),
            "spent": round(self.spent, 6),
            "refunded": round(self.refunded, 6),
            "holds": self.holds,
            "charges": self.charges,
            "overrun": round(self.overrun, 6),
        }


@dataclass
class _Binding:
    """An enacted instance's price agreement."""

    user: str
    rate: float          # cleared price per cycle
    hold: float          # estimate still committed (released on charge)


class BudgetManager:
    """Accounts, holds, and the ledger hook that turns cycles into spend."""

    def __init__(self, clock=None, metrics: Any = NULL_METRICS):
        self._clock = clock or (lambda: 0.0)
        self.metrics = metrics
        self.accounts: Dict[str, UserAccount] = {}
        #: instance -> price agreement (bound at enactment)
        self._bindings: Dict[LOID, _Binding] = {}
        #: class -> user, for attributing baseline (non-auction) charges
        self._class_users: Dict[LOID, str] = {}
        self.rejections = 0

    # -- accounts -----------------------------------------------------------
    def create_user(self, name: str, budget: float = float("inf"),
                    deadline: float = float("inf")) -> UserAccount:
        if name in self.accounts:
            raise ValueError(f"user {name!r} already exists")
        if budget <= 0 or deadline <= 0:
            raise ValueError("budget and deadline must be positive")
        account = UserAccount(name, budget=budget, deadline=deadline)
        self.accounts[name] = account
        return account

    def ensure(self, name: str, budget: float = float("inf"),
               deadline: float = float("inf")) -> UserAccount:
        """Idempotent :meth:`create_user` (used by the auto-wired CLI path)."""
        account = self.accounts.get(name)
        if account is None:
            account = self.create_user(name, budget=budget,
                                       deadline=deadline)
        return account

    def account(self, name: str) -> UserAccount:
        account = self.accounts.get(name)
        if account is None:
            raise KeyError(f"no such user {name!r}")
        return account

    def register_class(self, class_loid: LOID, user: str) -> None:
        """Attribute future charges against ``class_loid`` to ``user``
        (how baseline schedulers, which never bind rates, get per-user
        cost accounting)."""
        self._class_users[class_loid] = user

    # -- holds --------------------------------------------------------------
    def hold(self, user: str, amount: float) -> None:
        """Commit funds for a pending placement.

        Raises :class:`BudgetExceededError` when the hold would push the
        account past its budget — the economic admission control.
        """
        account = self.account(user)
        if amount < 0:
            raise ValueError("hold amount must be >= 0")
        if amount > account.available + 1e-9:
            self.rejections += 1
            self.metrics.count("economy_budget_rejections_total",
                               user=user)
            raise BudgetExceededError(
                f"user {user!r}: hold {amount:.4f} exceeds available "
                f"budget {account.available:.4f} "
                f"(budget {account.budget:.4f}, "
                f"spent {account.spent:.4f}, "
                f"committed {account.committed:.4f})")
        account.committed += amount
        account.holds += 1
        self.metrics.count("economy_budget_held_total", amount,
                           user=user)

    def release(self, user: str, amount: float) -> None:
        """Refund a hold (failed/aborted placement)."""
        account = self.account(user)
        released = min(amount, account.committed)
        account.committed -= released
        account.refunded += released
        self.metrics.count("economy_budget_refunded_total", released,
                           user=user)

    def bind_instance(self, instance_loid: LOID, user: str, rate: float,
                      hold: float) -> None:
        """Transfer a hold onto an enacted instance at its cleared rate."""
        self._bindings[instance_loid] = _Binding(user=user, rate=rate,
                                                 hold=hold)

    def binding_of(self, instance_loid: LOID
                   ) -> Optional[Tuple[str, float]]:
        binding = self._bindings.get(instance_loid)
        if binding is None:
            return None
        return binding.user, binding.rate

    # -- the ledger hook ----------------------------------------------------
    def on_charge(self, record: Any) -> None:
        """Ledger post hook: convert metered cycles into user spend.

        Auction-bound instances pay their cleared rate; anything else is
        attributed through :meth:`register_class` at the metered price.
        """
        binding = self._bindings.get(record.instance_loid)
        if binding is not None:
            account = self.account(binding.user)
            amount = record.cycles * binding.rate
            # the hold is released on the first (usually only) charge;
            # later legs (migration) just add spend
            if binding.hold > 0:
                released = min(binding.hold, account.committed)
                account.committed -= released
                binding.hold = 0.0
        else:
            user = self._class_users.get(record.class_loid)
            if user is None:
                return
            account = self.account(user)
            amount = record.amount
        account.spent += amount
        account.charges += 1
        self.metrics.count("economy_budget_spent_total", amount,
                           user=account.name)

    def attach_ledger(self, ledger: Any) -> None:
        """Install :meth:`on_charge` as the ledger's post hook."""
        ledger.on_post = self.on_charge

    # -- reporting ----------------------------------------------------------
    @property
    def total_spent(self) -> float:
        return sum(a.spent for a in self.accounts.values())

    @property
    def total_committed(self) -> float:
        return sum(a.committed for a in self.accounts.values())

    def to_dict(self) -> Dict[str, Any]:
        return {name: self.accounts[name].to_dict()
                for name in sorted(self.accounts)}
