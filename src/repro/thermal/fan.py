"""Supplementary fan.

The GEM's worst-case branch ("do not enable any IP, switch on a supplementary
fan") needs a controllable fan.  The fan improves the chip's effective
thermal resistance (see :class:`~repro.thermal.model.ThermalModel`) but draws
power itself, which is charged to its own energy account so the trade-off is
visible in the results.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ThermalError
from repro.power.energy import EnergyAccount, EnergyCategory
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime
from repro.thermal.model import ThermalModel

__all__ = ["Fan"]


class Fan(Module):
    """On/off fan that cools the thermal model and consumes power."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        thermal_model: ThermalModel,
        energy_account: EnergyAccount,
        power_w: float = 0.05,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if power_w < 0.0:
            raise ThermalError("fan power must be non-negative")
        self.thermal_model = thermal_model
        self.energy_account = energy_account
        self.power_w = power_w
        self.state_signal = self.signal("on", False)
        self._switch_history: List[Tuple[SimTime, bool]] = []
        # Accounting marker and running time in raw femtoseconds: the SoC
        # flushes the fan once per sample window.
        self._last_change_fs = 0
        self._on_time_fs = 0

    @property
    def is_on(self) -> bool:
        """True while the fan runs."""
        return self.state_signal.read()

    @property
    def switch_history(self) -> List[Tuple[SimTime, bool]]:
        """Recorded ``(time, on)`` switch events."""
        return list(self._switch_history)

    @property
    def total_on_time(self) -> SimTime:
        """Accumulated running time (up to the last switch or flush)."""
        return SimTime(self._on_time_fs)

    def set_on(self, on: bool) -> None:
        """Switch the fan; charges the energy used since the last switch."""
        if on == self.is_on:
            return
        self._account()
        self.thermal_model.set_fan(on)
        self.state_signal.write(on)
        self._switch_history.append((self.kernel.now, on))

    def flush_energy(self) -> None:
        """Charge the energy of the current running interval (end of run)."""
        self._account()

    def _account(self) -> None:
        now_fs = self.kernel._now_fs
        elapsed_fs = now_fs - self._last_change_fs
        if not elapsed_fs:
            return
        self._last_change_fs = now_fs
        if self.is_on:
            self._on_time_fs += elapsed_fs
            if self.power_w > 0.0:
                self.energy_account.add_power_fs(self.power_w, elapsed_fs, EnergyCategory.OVERHEAD)
