"""Network transfer cost model between the DB owner and the cloud.

The paper's testbed used a ~30 Mbps downlink; the analytical model only needs
the per-tuple transfer cost ``Ccom`` (≈ 4 µs for a 200-byte TPC-H Customer
row at that bandwidth).  :class:`NetworkModel` converts tuple counts into
simulated seconds and keeps running totals per direction (transfers, tuples,
bytes, seconds) so experiments can report the communication component of
QB's trade-off separately from computation.  Totals, not a log: no reader
needs a record per transfer, and a server records one transfer per query
it serves.

Concurrency
-----------
A model instance is shared by everything charging traffic on one member's
behalf: the member's serve path, fleet worker threads, a process member's
proxy syncing it, and (under the service layer) multiple tenant sessions.  Every update — a recorded
transfer, a restore, a reset — therefore happens under one internal lock,
and the readers take the same lock, so the totals are exact even while
other threads are recording.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: (transfers, tuples, bytes, simulated seconds) moved in one direction.
DirectionTotals = Tuple[int, int, int, float]
_NOTHING: DirectionTotals = (0, 0, 0, 0.0)

#: Every direction's totals as plain values, sorted by direction name — the
#: shape :meth:`NetworkModel.totals` captures and :meth:`NetworkModel.restore`
#: installs.
TransferTotals = Tuple[Tuple[str, DirectionTotals], ...]


@dataclass
class NetworkModel:
    """Deterministic latency/bandwidth model.

    Parameters
    ----------
    bandwidth_mbps:
        Link bandwidth in megabits per second (paper: 30 Mbps).
    latency_seconds:
        Per-request round-trip latency added to every transfer.
    bytes_per_tuple:
        Average serialised tuple size (paper: ≈200 bytes for TPC-H Customer).
    """

    bandwidth_mbps: float = 30.0
    latency_seconds: float = 0.0005
    bytes_per_tuple: int = 200

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[str, DirectionTotals] = {}

    @property
    def seconds_per_tuple(self) -> float:
        """``Ccom`` — the time to move one tuple over the link."""
        bits_per_tuple = self.bytes_per_tuple * 8
        return bits_per_tuple / (self.bandwidth_mbps * 1_000_000)

    def transfer_seconds(self, tuples: int) -> float:
        """Simulated seconds to transfer ``tuples`` rows."""
        payload_bits = tuples * self.bytes_per_tuple * 8
        return self.latency_seconds + payload_bits / (self.bandwidth_mbps * 1_000_000)

    def record(self, direction: str, tuples: int) -> float:
        """Count one transfer and return its simulated duration in seconds."""
        seconds = self.transfer_seconds(tuples)
        with self._lock:
            transfers, moved, size, elapsed = self._totals.get(direction, _NOTHING)
            self._totals[direction] = (
                transfers + 1,
                moved + tuples,
                size + tuples * self.bytes_per_tuple,
                elapsed + seconds,
            )
        return seconds

    # -- snapshot / restore ---------------------------------------------------------
    def totals(self) -> TransferTotals:
        """Every direction's totals as plain values (observation snapshots)."""
        with self._lock:
            return tuple(sorted(self._totals.items()))

    def restore(self, totals: TransferTotals) -> None:
        """Install totals captured by :meth:`totals` (rollback and sync)."""
        with self._lock:
            self._totals = dict(totals)

    def reset(self) -> None:
        self.restore(())

    # -- aggregate accounting ----------------------------------------------------
    def _sum(self, field: int, direction: Optional[str]):
        with self._lock:
            if direction is not None:
                return self._totals.get(direction, _NOTHING)[field]
            return sum(totals[field] for totals in self._totals.values())

    def transfers(self, direction: Optional[str] = None) -> int:
        """How many transfers were recorded (in ``direction``, or in all)."""
        return self._sum(0, direction)

    def total_tuples(self, direction: Optional[str] = None) -> int:
        return self._sum(1, direction)

    def total_bytes(self, direction: Optional[str] = None) -> int:
        return self._sum(2, direction)

    def total_seconds(self, direction: Optional[str] = None) -> float:
        return self._sum(3, direction)
