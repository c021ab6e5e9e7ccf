"""Energy accounting.

Two small classes keep the books:

* :class:`EnergyAccount` — the per-IP ledger.  Energy is added in joules,
  tagged with a category (``active``, ``idle``, ``sleep``, ``transition``,
  ...), and the account can integrate a constant power over a time span.
* :class:`EnergyLedger` — the SoC-wide aggregation of accounts.  The GEM
  reads it to tell each LEM how much energy "the other IP blocks" have
  requested/dissipated, and the battery and thermal models read it to close
  their feedback loops.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.errors import PowerModelError
from repro.sim.simtime import SimTime

__all__ = ["EnergyAccount", "EnergyLedger", "EnergyCategory"]


class EnergyCategory:
    """Standard category names used across the library."""

    ACTIVE = "active"
    IDLE = "idle"
    SLEEP = "sleep"
    TRANSITION = "transition"
    OVERHEAD = "overhead"

    ALL = (ACTIVE, IDLE, SLEEP, TRANSITION, OVERHEAD)


class EnergyAccount:
    """Per-consumer energy ledger with category breakdown.

    In the fast accuracy mode a *deposit recorder* (the SoC's
    :class:`~repro.soc.sampling.FastSampleEngine`) is attached to every
    account: each deposit is mirrored into the SoC power timeline, together
    with the interval it was integrated over, so the lazily replayed
    battery/thermal samplers can reconstruct the per-window energy flux.
    In exact mode the recorder is ``None`` and the deposit path is unchanged.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._by_category: Dict[str, float] = defaultdict(float)
        self._deposits = 0
        self._total_cache = 0.0
        self._total_dirty = False
        self._recorder = None
        #: the ledger aggregating this account, told about every deposit
        self._ledger = None

    # -- recording -------------------------------------------------------
    def add_energy(
        self,
        energy_j: float,
        category: str = EnergyCategory.ACTIVE,
        _span_fs: int = 0,
        _end_fs: int = 0,
    ) -> None:
        """Record ``energy_j`` joules under ``category``.

        ``_span_fs``/``_end_fs`` are internal: the femtosecond interval the
        energy was integrated over (0 for a point deposit) and its end time
        (0 meaning "now"), forwarded to the fast-mode deposit recorder.
        """
        if energy_j < 0.0:
            raise PowerModelError(f"cannot add negative energy ({energy_j} J) to {self.owner!r}")
        self._by_category[category] += energy_j
        self._deposits += 1
        self._total_dirty = True
        ledger = self._ledger
        if ledger is not None:
            ledger._dirty = True
        recorder = self._recorder
        if recorder is not None:
            recorder.record(energy_j, _span_fs, _end_fs)

    def add_power(self, power_w: float, duration: SimTime, category: str = EnergyCategory.IDLE) -> None:
        """Record ``power_w`` watts drawn for ``duration``."""
        self.add_power_fs(power_w, int(duration), category)

    def add_power_fs(self, power_w: float, span_fs: int, category: str = EnergyCategory.IDLE) -> None:
        """:meth:`add_power` over a raw femtosecond span (no SimTime built)."""
        if power_w < 0.0:
            raise PowerModelError(f"cannot integrate negative power ({power_w} W) for {self.owner!r}")
        # span_fs / 10^15 is SimTime.seconds bit for bit.
        self.add_energy(power_w * (span_fs / 1_000_000_000_000_000), category, _span_fs=span_fs)

    # -- queries -------------------------------------------------------------
    @property
    def total_j(self) -> float:
        """Total recorded energy in joules.

        The per-category sum is cached between deposits; recomputing it runs
        exactly the same ``sum`` over the same values, so the cached figure
        is bit-identical to an eager recomputation.
        """
        if self._total_dirty:
            self._total_cache = sum(self._by_category.values())
            self._total_dirty = False
        return self._total_cache

    def category_j(self, category: str) -> float:
        """Energy recorded under ``category``."""
        return self._by_category.get(category, 0.0)

    @property
    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    @property
    def deposit_count(self) -> int:
        """Number of recorded deposits (useful in tests)."""
        return self._deposits

    def average_power_w(self, duration: SimTime) -> float:
        """Average power over ``duration`` implied by the recorded energy."""
        if duration.is_zero:
            return 0.0
        return self.total_j / duration.seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EnergyAccount({self.owner!r}, total={self.total_j:.3e} J)"


class EnergyLedger:
    """Aggregates the accounts of every consumer in the SoC."""

    def __init__(self) -> None:
        self._accounts: Dict[str, EnergyAccount] = {}
        # Set by every deposit into (and every registration of) an account.
        self._dirty = True
        self._total_cache = 0.0
        self._recorder = None

    def attach_recorder(self, recorder) -> None:
        """Mirror every deposit of every (current and future) account.

        Used by the fast accuracy mode; ``recorder`` must expose
        ``record(energy_j, span_fs, end_fs)`` where ``span_fs`` is the
        femtosecond interval the energy was integrated over (0 for a point
        deposit) and ``end_fs`` its end time (0 meaning "now").
        """
        self._recorder = recorder
        for account in self._accounts.values():
            account._recorder = recorder

    def account(self, owner: str) -> EnergyAccount:
        """Return (creating if needed) the account of ``owner``."""
        if owner not in self._accounts:
            created = EnergyAccount(owner)
            created._recorder = self._recorder
            created._ledger = self
            self._accounts[owner] = created
            self._dirty = True
        return self._accounts[owner]

    def register(self, account: EnergyAccount) -> EnergyAccount:
        """Register an externally created account."""
        if account.owner in self._accounts and self._accounts[account.owner] is not account:
            raise PowerModelError(f"an account named {account.owner!r} already exists")
        account._recorder = self._recorder
        account._ledger = self
        self._accounts[account.owner] = account
        self._dirty = True
        return account

    @property
    def owners(self) -> List[str]:
        """Names of all registered accounts."""
        return list(self._accounts)

    @property
    def total_j(self) -> float:
        """SoC-wide total energy in joules.

        Cached until the next deposit into any account; the recomputation
        runs the identical ``sum`` in the identical account order, so the
        cached figure is bit-identical to an eager one.
        """
        if self._dirty:
            self._total_cache = sum([account.total_j for account in self._accounts.values()])
            self._dirty = False
        return self._total_cache

    def total_excluding(self, owner: str) -> float:
        """Energy dissipated by every consumer except ``owner``.

        This is the quantity the GEM returns to each LEM so it "can correctly
        estimate the value of the battery status and chip temperature at the
        end of the task" (paper, section 1.4).
        """
        return sum(
            account.total_j for name, account in self._accounts.items() if name != owner
        )

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-owner, per-category energy map."""
        return {name: account.breakdown for name, account in self._accounts.items()}

    def totals_by_owner(self) -> Dict[str, float]:
        """Per-owner totals."""
        return {name: account.total_j for name, account in self._accounts.items()}

    def average_power_w(self, duration: SimTime) -> float:
        """SoC-wide average power over ``duration``."""
        if duration.is_zero:
            return 0.0
        return self.total_j / duration.seconds
