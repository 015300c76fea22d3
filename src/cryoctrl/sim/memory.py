"""Register-file model of the bias and pulse memories.

Both banks are written serially (one bit per write clock into the selected
register) and read in parallel (a full register per read clock). The pulse
bank has two read ports so two sequences can feed the two output DACs
simultaneously. The default bank is the one ``digital.memory_design`` sizes
for the default scenario.
"""

from __future__ import annotations

from ..config import Scenario
from ..digital import memory_design

_DEFAULT = memory_design(Scenario())


class MemoryBank:
    def __init__(self, n_bias: int = _DEFAULT.bias_width, n_rf: int = _DEFAULT.rf_width,
                 bias_registers: int = _DEFAULT.bias_registers,
                 rf_registers: int = _DEFAULT.rf_registers):
        self.n_bias = n_bias
        self.n_rf = n_rf
        self.bias = [0] * bias_registers
        self.rf = [0] * rf_registers
        self._bias_mask = (1 << n_bias) - 1
        self._rf_mask = (1 << n_rf) - 1

    def holds(self, kind: str, addr: int) -> bool:
        """Whether the ``kind`` bank (``"bias"`` or ``"rf"``) has register ``addr``."""
        return 0 <= addr < len(self.bias if kind == "bias" else self.rf)

    # serial write path -----------------------------------------------------

    def shift_in_bias(self, addr: int, bit: int) -> None:
        self._check(addr, len(self.bias), "bias")
        self.bias[addr] = ((self.bias[addr] << 1) | (bit & 1)) & self._bias_mask

    def shift_in_rf(self, addr: int, bit: int) -> None:
        self._check(addr, len(self.rf), "rf")
        self.rf[addr] = ((self.rf[addr] << 1) | (bit & 1)) & self._rf_mask

    def write_bias(self, addr: int, word: int) -> None:
        """Shift a full word in MSB-first (n_bias write clocks)."""
        for i in range(self.n_bias - 1, -1, -1):
            self.shift_in_bias(addr, (word >> i) & 1)

    def write_rf(self, addr: int, word: int) -> None:
        for i in range(self.n_rf - 1, -1, -1):
            self.shift_in_rf(addr, (word >> i) & 1)

    # parallel read path ----------------------------------------------------

    def read_bias(self, addr: int) -> int:
        self._check(addr, len(self.bias), "bias")
        return self.bias[addr]

    def read_rf(self, addr: int) -> int:
        self._check(addr, len(self.rf), "rf")
        return self.rf[addr]

    def read_rf_dual(self, addr1: int, addr2: int) -> tuple[int, int]:
        """Both read ports in the same clock; the ports are independent."""
        return self.read_rf(addr1), self.read_rf(addr2)

    @staticmethod
    def _check(addr: int, size: int, kind: str) -> None:
        if not 0 <= addr < size:
            raise IndexError(f"{kind} register {addr} out of range [0, {size})")
