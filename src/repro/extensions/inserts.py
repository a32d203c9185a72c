"""Insert handling under QB (full-version extension).

Inserting a tuple whose attribute value already exists in the bin layout is
cheap: encrypt (or not) and append, and bump the owner's frequency metadata —
the bins do not change.  Inserting a *new* value is the interesting case:

* a new non-sensitive value can slide into any non-sensitive bin with free
  capacity (its retrieval then pairs that bin with the sensitive bin indexed
  by its slot position, exactly as Algorithm 2 expects);
* a new sensitive value slides into the sensitive bin with the fewest values,
  provided a slot position smaller than the number of non-sensitive bins is
  free;
* when no capacity remains — or when enough inserts have accumulated that bin
  sizes have drifted away from the √|NS| optimum — the inserter triggers a
  full re-binning (re-running setup over the current data).

The paper's full version measures insert cost; the
``benchmarks/bench_ext_inserts.py`` harness reproduces that experiment using
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.engine import QueryBinningEngine
from repro.exceptions import ConfigurationError


@dataclass
class InsertStatistics:
    """Counters describing how inserts were absorbed."""

    existing_value_inserts: int = 0
    new_value_in_place: int = 0
    #: new-value inserts that found no free slot and forced a full re-binning
    #: (the insert itself still lands — the rebuilt layout includes it).
    new_value_rebins: int = 0
    rebins_triggered: int = 0

    @property
    def total(self) -> int:
        return (
            self.existing_value_inserts
            + self.new_value_in_place
            + self.new_value_rebins
        )


class IncrementalInserter:
    """Absorb inserts into a live :class:`QueryBinningEngine`."""

    def __init__(self, engine: QueryBinningEngine, rebin_threshold: int = 64):
        if engine.layout is None or engine.metadata is None:
            raise ConfigurationError("the engine must be set up before inserting")
        if rebin_threshold < 1:
            raise ConfigurationError("rebin_threshold must be at least 1")
        self.engine = engine
        self.rebin_threshold = rebin_threshold
        self.stats = InsertStatistics()
        self._new_values_since_rebin = 0
        #: the layout object the pending-insert counter was accumulated
        #: against; a different object means the layout was rebuilt outside
        #: this inserter (a fleet redeployment, another inserter's rebin),
        #: which absorbed the pending new values.
        self._counted_layout = engine.layout

    def _sync_layout(self) -> None:
        """Reset the pending counter after an external layout rebuild.

        ``engine.setup()`` can run outside :meth:`rebin` — elastic-fleet
        redeployments and direct re-outsourcing replace ``engine.layout``
        wholesale.  The rebuilt layout has absorbed every value inserted so
        far, so pending-insert accounting must restart from zero; carrying
        the stale count forward would trigger the next re-binning early
        (double-counting the values the external rebuild already placed).
        """
        if self.engine.layout is not self._counted_layout:
            self._counted_layout = self.engine.layout
            self._new_values_since_rebin = 0

    # -- public API ------------------------------------------------------------
    def insert(self, values: Dict[str, object], sensitive: bool) -> None:
        """Insert one row, keeping the layout consistent."""
        attribute = self.engine.attribute
        value = values.get(attribute)
        if value is None:
            raise ConfigurationError(
                f"insert is missing the binned attribute {attribute!r}"
            )
        # Placing a new value rebuilds the layout's location maps in place;
        # a query running meanwhile would see them empty, so the whole
        # insert holds the engine lock.
        with self.engine._lock:
            self._sync_layout()
            layout = self.engine.layout
            assert layout is not None

            known = (
                layout.locate_sensitive(value) is not None
                if sensitive
                else layout.locate_non_sensitive(value) is not None
            )
            if known:
                self.engine.insert(values, sensitive=sensitive)
                self.stats.existing_value_inserts += 1
                return

            placed = self._place_new_value(value, sensitive)
            if placed:
                self.engine.insert(values, sensitive=sensitive)
                self.stats.new_value_in_place += 1
                self._new_values_since_rebin += 1
                if self._new_values_since_rebin >= self.rebin_threshold:
                    self.rebin()
                return

            # No capacity left: rebuild the layout from the current data and
            # then perform the insert (the rebuilt layout always has room).
            self.engine.insert(values, sensitive=sensitive)
            self.stats.new_value_rebins += 1
            self.rebin()

    def rebin(self) -> None:
        """Rebuild bins from the engine's current partition and re-outsource.

        Observation logs are cleared on every store the engine re-outsources
        to — the single reference server and, when attached, the whole
        sharded fleet — so the fleet-vs-reference parity invariants hold
        across a rebin exactly as they do from a fresh setup.

        For a sharded engine a rebin is also a fleet redeployment: the
        engine's ``setup()`` rebuilds the :class:`ShardRouter` as a pure
        function of (new bin counts, policy, fleet size, replication
        factor), so primary *and replica* placement of the rebuilt layout is
        deterministic, and every member — replicas included — receives its
        slices from scratch.  Members previously excluded as failed are
        therefore marked recovered (a deployment that re-outsources to a
        member has, by definition, replaced it); a member that is in fact
        still down is re-detected by the next batch's failover machinery.
        """
        with self.engine._lock:
            self.engine.cloud.reset_observations()
            if self.engine.multi_cloud is not None:
                self.engine.multi_cloud.reset_observations()
                self.engine.multi_cloud.mark_all_recovered()
            self.engine.setup()
            self.stats.rebins_triggered += 1
            self._new_values_since_rebin = 0
            self._counted_layout = self.engine.layout

    # -- placement ---------------------------------------------------------------
    def _place_new_value(self, value: object, sensitive: bool) -> bool:
        """Try to place a previously unseen value into the existing layout."""
        layout = self.engine.layout
        assert layout is not None
        if sensitive:
            capacity = layout.num_non_sensitive_bins
            candidates = sorted(layout.sensitive_bins, key=lambda b: b.size)
            for bin_ in candidates:
                position = len(bin_.slots)
                if bin_.size < capacity and position < capacity:
                    bin_.append(value)
                    layout._rebuild_locations()
                    return True
            return False
        capacity = layout.num_sensitive_bins
        candidates = sorted(layout.non_sensitive_bins, key=lambda b: b.size)
        for bin_ in candidates:
            if bin_.size < capacity and len(bin_.slots) <= capacity:
                bin_.append(value)
                layout._rebuild_locations()
                return True
        return False
