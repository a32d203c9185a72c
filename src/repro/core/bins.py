"""Bin data structures shared by the base-case and general-case constructions.

A :class:`Bin` is an ordered sequence of *slots*; a slot holds a value or is
empty (``None``).  Positions matter: Algorithm 2's retrieval rules pair the
*position* of a value inside one side's bin with the *index* of the bin to be
retrieved on the other side, so the layout keeps explicit position maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import BinningError


@dataclass
class Bin:
    """A single bin: an index and its (possibly partially filled) slots."""

    index: int
    slots: List[Optional[object]] = field(default_factory=list)

    @property
    def values(self) -> Tuple[object, ...]:
        """The non-empty slot contents in position order."""
        return tuple(value for value in self.slots if value is not None)

    @property
    def size(self) -> int:
        """Number of values currently held (empty slots excluded)."""
        return len(self.values)

    def position_of(self, value: object) -> int:
        """Slot position of ``value``; raises if absent."""
        for position, slot in enumerate(self.slots):
            if slot == value:
                return position
        raise BinningError(f"value {value!r} not found in bin {self.index}")

    def place(self, position: int, value: object) -> None:
        """Put ``value`` at ``position``, growing the slot list as needed."""
        if position < 0:
            raise BinningError(f"negative slot position {position}")
        while len(self.slots) <= position:
            self.slots.append(None)
        if self.slots[position] is not None and self.slots[position] != value:
            raise BinningError(
                f"slot {position} of bin {self.index} already holds "
                f"{self.slots[position]!r}"
            )
        self.slots[position] = value

    def append(self, value: object) -> int:
        """Put ``value`` in the first empty slot (or a new one); returns it."""
        for position, slot in enumerate(self.slots):
            if slot is None:
                self.slots[position] = value
                return position
        self.slots.append(value)
        return len(self.slots) - 1

    def __contains__(self, value: object) -> bool:
        return any(slot == value for slot in self.slots if slot is not None)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return self.size


class BinLayout:
    """The complete QB layout for one searchable attribute.

    The layout records, for the sensitive and the non-sensitive side, the list
    of bins and a value → (bin index, position) map, plus the number of fake
    tuples each sensitive bin needs (general case only; zero in the base
    case).
    """

    def __init__(
        self,
        sensitive_bins: Sequence[Bin],
        non_sensitive_bins: Sequence[Bin],
        fake_tuples: Optional[Dict[int, int]] = None,
        attribute: Optional[str] = None,
    ):
        self.sensitive_bins: List[Bin] = list(sensitive_bins)
        self.non_sensitive_bins: List[Bin] = list(non_sensitive_bins)
        self.fake_tuples: Dict[int, int] = dict(fake_tuples or {})
        self.attribute = attribute
        self._sensitive_location: Dict[object, Tuple[int, int]] = {}
        self._non_sensitive_location: Dict[object, Tuple[int, int]] = {}
        #: bumped on every (re)build of the location maps, so the engine's
        #: owner memo can detect mutation by the incremental inserter
        #: without holding references into the bins.
        self.version = 0
        self._rebuild_locations()

    # -- construction helpers --------------------------------------------------
    def _rebuild_locations(self) -> None:
        self.version += 1
        self._sensitive_location.clear()
        self._non_sensitive_location.clear()
        for bin_ in self.sensitive_bins:
            for position, value in enumerate(bin_.slots):
                if value is None:
                    continue
                if value in self._sensitive_location:
                    raise BinningError(
                        f"sensitive value {value!r} placed in more than one bin"
                    )
                self._sensitive_location[value] = (bin_.index, position)
        for bin_ in self.non_sensitive_bins:
            for position, value in enumerate(bin_.slots):
                if value is None:
                    continue
                if value in self._non_sensitive_location:
                    raise BinningError(
                        f"non-sensitive value {value!r} placed in more than one bin"
                    )
                self._non_sensitive_location[value] = (bin_.index, position)

    # -- basic accessors -----------------------------------------------------------
    @property
    def num_sensitive_bins(self) -> int:
        return len(self.sensitive_bins)

    @property
    def num_non_sensitive_bins(self) -> int:
        return len(self.non_sensitive_bins)

    @property
    def max_sensitive_bin_size(self) -> int:
        return max((b.size for b in self.sensitive_bins), default=0)

    @property
    def max_non_sensitive_bin_size(self) -> int:
        return max((b.size for b in self.non_sensitive_bins), default=0)

    @property
    def sensitive_values(self) -> Tuple[object, ...]:
        return tuple(self._sensitive_location)

    @property
    def non_sensitive_values(self) -> Tuple[object, ...]:
        return tuple(self._non_sensitive_location)

    def sensitive_bin(self, index: int) -> Bin:
        try:
            return self.sensitive_bins[index]
        except IndexError:
            raise BinningError(f"no sensitive bin with index {index}") from None

    def non_sensitive_bin(self, index: int) -> Bin:
        try:
            return self.non_sensitive_bins[index]
        except IndexError:
            raise BinningError(f"no non-sensitive bin with index {index}") from None

    def locate_sensitive(self, value: object) -> Optional[Tuple[int, int]]:
        """(bin index, position) of a sensitive value, or ``None``."""
        return self._sensitive_location.get(value)

    def locate_non_sensitive(self, value: object) -> Optional[Tuple[int, int]]:
        """(bin index, position) of a non-sensitive value, or ``None``."""
        return self._non_sensitive_location.get(value)

    def __contains__(self, value: object) -> bool:
        return (
            value in self._sensitive_location or value in self._non_sensitive_location
        )

    # -- invariants -------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants Algorithm 2 relies on.

        * every sensitive value sits at a position smaller than the number of
          non-sensitive bins (so rule R1 always points at an existing bin);
        * every non-sensitive value sits at a position smaller than the number
          of sensitive bins (rule R2 symmetric condition);
        * whenever a value appears on both sides (an *associated* value), the
          placement is transpose-consistent: if it is the ``j``-th value of
          sensitive bin ``i``, it must live in non-sensitive bin ``j`` — this
          is what guarantees that the two retrieved bins share the value.
        """
        for value, (bin_index, position) in self._sensitive_location.items():
            if position >= self.num_non_sensitive_bins:
                raise BinningError(
                    f"sensitive value {value!r} at position {position} of bin "
                    f"{bin_index} has no matching non-sensitive bin"
                )
        for value, (bin_index, position) in self._non_sensitive_location.items():
            if position >= self.num_sensitive_bins:
                raise BinningError(
                    f"non-sensitive value {value!r} at position {position} of bin "
                    f"{bin_index} has no matching sensitive bin"
                )
        for value, (s_bin, s_pos) in self._sensitive_location.items():
            ns_location = self._non_sensitive_location.get(value)
            if ns_location is None:
                continue
            ns_bin, ns_pos = ns_location
            if ns_bin != s_pos or ns_pos != s_bin:
                raise BinningError(
                    f"associated value {value!r}: sensitive placement "
                    f"(bin {s_bin}, pos {s_pos}) is not the transpose of the "
                    f"non-sensitive placement (bin {ns_bin}, pos {ns_pos})"
                )

    def describe(self) -> str:
        """A human-readable dump of the layout (used by examples)."""
        lines = [f"BinLayout(attribute={self.attribute!r})"]
        for bin_ in self.sensitive_bins:
            fake = self.fake_tuples.get(bin_.index, 0)
            suffix = f" (+{fake} fake tuples)" if fake else ""
            lines.append(f"  SB{bin_.index}: {list(bin_.values)}{suffix}")
        for bin_ in self.non_sensitive_bins:
            lines.append(f"  NSB{bin_.index}: {list(bin_.values)}")
        return "\n".join(lines)
