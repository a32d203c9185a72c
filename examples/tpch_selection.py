#!/usr/bin/env python3
"""Selection queries over a TPC-H-shaped LINEITEM table with Query Binning.

Mirrors the paper's §V experimental setup at laptop scale: a synthetic
LINEITEM relation is partitioned by sensitivity fraction α, outsourced through
QB, and queried on ``L_PARTKEY``.  The script reports the measured retrieval
footprint, the owner's metadata size, and the analytical η ratio against a
fully-encrypted baseline for several values of α.

Run with:  python examples/tpch_selection.py [num_rows]
"""

import random
import sys
import time

from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.data.partition import partition_by_fraction
from repro.model.cost import eta_simplified
from repro.model.parameters import CostParameters
from repro.workloads.tpch import estimated_metadata_bytes, generate_lineitem


def run_for_alpha(lineitem, alpha: float, params: CostParameters) -> None:
    partition = partition_by_fraction(lineitem, "L_PARTKEY", alpha)
    engine = QueryBinningEngine(
        partition=partition,
        attribute="L_PARTKEY",
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(3),
    ).setup()

    values = lineitem.distinct_values("L_PARTKEY")
    sample = random.Random(1).sample(values, min(50, len(values)))
    start = time.perf_counter()
    # One cloud request per query, since this prints *per-query* latency.
    # Repeated bin-pair retrievals are interned by the cloud either way.
    traces = engine.execute_workload(sample, placement="sequential")
    elapsed = time.perf_counter() - start

    avg_rows = sum(t.total_rows_returned for t in traces) / len(traces)
    eta = eta_simplified(
        engine.metadata.alpha,
        engine.layout.max_sensitive_bin_size,
        engine.layout.max_non_sensitive_bin_size,
        params,
    )
    print(
        f"  alpha={alpha:4.0%}  bins={engine.layout.num_sensitive_bins}x"
        f"{engine.layout.num_non_sensitive_bins}"
        f"  avg rows/query={avg_rows:6.1f}"
        f"  measured {elapsed / len(sample) * 1e3:6.2f} ms/query"
        f"  analytical eta={eta:.3f} (<1 means QB beats full encryption)"
    )


def main() -> None:
    num_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    print(f"Generating a LINEITEM-shaped relation with {num_rows} rows ...")
    lineitem = generate_lineitem(num_rows=num_rows, seed=42)
    print(
        f"  {len(lineitem.distinct_values('L_PARTKEY'))} distinct L_PARTKEY values, "
        f"owner metadata ≈ {estimated_metadata_bytes(lineitem, 'L_PARTKEY') / 1024:.1f} KiB"
    )

    params = CostParameters.from_ratios(gamma=25_000, beta=1_000, selectivity=0.01)
    print(
        "\nQB vs fully-encrypted execution (strong crypto, gamma=25000) at "
        "different sensitivity levels:"
    )
    for alpha in (0.01, 0.05, 0.20, 0.40, 0.60):
        run_for_alpha(lineitem, alpha, params)

    print(
        "\nAs in the paper's Figure 6b, eta stays below 1 for every sensitivity "
        "fraction: avoiding cryptographic processing of the non-sensitive part "
        "more than pays for the wider (binned) requests."
    )


if __name__ == "__main__":
    main()
