"""Storage scaling: serving a 1M-row encrypted store from disk.

The in-memory backend keeps the encrypted relation as a Python list, grouped
by sensitive bin in a dict of lists.  That puts a RAM ceiling on the
relation size a member can hold — each
:class:`~repro.crypto.base.EncryptedRow` costs a few hundred bytes of
Python-object overhead on top of its ciphertext.  The SQLite storage engine
(``storage_backend="sqlite"``) moves the store into a per-member database
file, bounding resident memory by SQLite's page cache instead of the
relation size.

This benchmark records the trade at scale:

* ``memory_100k`` — the in-memory backend at 100k rows: resident-set growth
  of the store, the derived **per-row memory cost**, and steady-state
  single-token probe qps.
* ``sqlite_1m`` — the SQLite backend at **1M rows** (10x the largest store
  any committed benchmark built before): the same measurements, plus the
  database file size.  The acceptance claim is that the 1M-row store serves
  queries with resident growth *below what the memory backend would need
  for the same relation* (``memory_per_row × 1M``) — i.e. the store
  genuinely lives on disk, not in a shadow copy.

Methodology notes:

* Rows are generated, encrypted, and appended in chunks
  (:func:`build_store`), so the benchmark itself never materialises the
  full encrypted relation in Python — the transient footprint is one chunk.
  This is also the realistic ingest path for a relation that cannot fit in
  memory.
* Memory is read as ``VmRSS`` deltas from ``/proc/self/status`` (sampled
  during the serve loop for the peak), not ``ru_maxrss``: the high-water
  mark would remember every transient chunk ever allocated, while the claim
  is about the steady serving state.  The SQLite scenario runs first, from
  a clean baseline, so freed-arena reuse never flatters it.
* Serving sends single-token probes (deterministic scheme), each naming
  the bin this harness's own assignment gives the probed value
  (:func:`bin_of`), so a probe reads that bin's slice — ten values' rows,
  one keyed b-tree range on SQLite — and returns the value's
  ~``rows/values`` rows; the work is identical for both backends.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):  # direct script execution: mirror conftest.py
    _ROOT = Path(__file__).resolve().parent.parent
    for _path in (str(_ROOT), str(_ROOT / "src")):
        if _path not in sys.path:
            sys.path.insert(0, _path)

import pytest

from repro.cloud.server import CloudServer
from repro.crypto.base import EncryptedRow
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.data.relation import Row

from benchmarks.helpers import print_table

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: full-scale shape: 10k distinct values × 100 tuples each = 1M rows
FULL_SQLITE_ROWS = 1_000_000
FULL_MEMORY_ROWS = 100_000
TUPLES_PER_VALUE = 100
CHUNK_ROWS = 20_000
SERVE_QUERIES = 300


def rss_kb() -> int:
    """Current resident set (VmRSS) of this process, in kB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found in /proc/self/status")


def bin_of(rid: int, num_values: int) -> int:
    """The sensitive bin :func:`build_store` assigns row ``rid``: ten values
    per bin.  Row ``rid`` holds value ``rid % num_values``, so all rows of
    value index ``i`` share bin ``bin_of(i, num_values)`` whenever
    ``num_values`` is a multiple of the bin count, as at every size this
    harness runs."""
    return rid % max(1, num_values // 10)


def build_store(
    storage_backend: str,
    num_rows: int,
    tuples_per_value: int = TUPLES_PER_VALUE,
    chunk_rows: int = CHUNK_ROWS,
) -> Dict[str, object]:
    """Chunk-encrypt ``num_rows`` into a fresh store; measure as we go.

    Returns the server, the scheme, the value universe, and the RSS delta
    attributable to the stored relation (baseline taken before the first
    chunk, reading taken after the last — the in-flight chunk buffers are
    freed between measurements).
    """
    assert num_rows % tuples_per_value == 0
    num_values = num_rows // tuples_per_value
    scheme = DeterministicScheme(SecretKey.from_passphrase("storage-scaling"))
    server = CloudServer(storage_backend=storage_backend)
    baseline_kb = rss_kb()
    built = 0
    elapsed = 0.0
    while built < num_rows:
        take = min(chunk_rows, num_rows - built)
        chunk = [
            Row(
                rid=built + offset,
                values={"key": f"v{(built + offset) % num_values:06d}",
                        "payload": f"p{built + offset}"},
                sensitive=True,
            )
            for offset in range(take)
        ]
        encrypted = scheme.encrypt_rows(chunk, "key")
        slices: Dict[int, List[EncryptedRow]] = {}
        for row in encrypted:
            slices.setdefault(bin_of(row.rid, num_values), []).append(row)
        start = time.perf_counter()
        if built == 0:
            server.store_sensitive(slices, scheme)
        else:
            server.append_sensitive(slices)
        elapsed += time.perf_counter() - start
        built += take
    del chunk, encrypted, slices
    return {
        "server": server,
        "scheme": scheme,
        "values": [f"v{index:06d}" for index in range(num_values)],
        "baseline_kb": baseline_kb,
        "store_rss_delta_kb": max(0, rss_kb() - baseline_kb),
        "ingest_rows_per_second": round(num_rows / elapsed) if elapsed else 0,
    }


def serve_probes(
    server: CloudServer,
    scheme: DeterministicScheme,
    values,
    queries: int = SERVE_QUERIES,
    seed: int = 17,
) -> Dict[str, object]:
    """Single-token probe loop; returns qps and the sampled peak VmRSS.

    Each probe names the bin its value's rows were placed in, so it reads
    that bin's slice rather than the whole store.
    """
    rng = random.Random(seed)
    picks = [rng.randrange(len(values)) for _ in range(queries)]
    tokens = scheme.tokens_for_values([values[index] for index in picks], "key")
    bins = [bin_of(index, len(values)) for index in picks]
    returned = 0
    peak_kb = rss_kb()
    start = time.perf_counter()
    for position, (token, bin_index) in enumerate(zip(tokens, bins)):
        matches, _examined = server._search_sensitive([token], bin_index)
        returned += len(matches)
        if position % 50 == 0:
            peak_kb = max(peak_kb, rss_kb())
    elapsed = time.perf_counter() - start
    peak_kb = max(peak_kb, rss_kb())
    return {
        "qps": round(queries / elapsed, 1),
        "rows_returned": returned,
        "serve_peak_rss_kb": peak_kb,
    }


def run_storage_scaling(
    sqlite_rows: int = FULL_SQLITE_ROWS,
    memory_rows: int = FULL_MEMORY_ROWS,
    tuples_per_value: int = TUPLES_PER_VALUE,
    queries: int = SERVE_QUERIES,
    out_path: Optional[Path] = OUTPUT_PATH,
) -> Dict[str, object]:
    """Build both stores, serve both, and record the memory-ceiling trade."""
    # -- sqlite first, from a clean baseline --------------------------------------
    sqlite_build = build_store("sqlite", sqlite_rows, tuples_per_value)
    sqlite_server = sqlite_build["server"]
    try:  # close() even on a failed serve: the temp database must not leak
        sqlite_serve = serve_probes(
            sqlite_server, sqlite_build["scheme"], sqlite_build["values"], queries
        )
        db_file_bytes = os.path.getsize(sqlite_server.storage.path)
    finally:
        sqlite_server.close()
    sqlite_peak_delta_kb = max(
        sqlite_build["store_rss_delta_kb"],
        sqlite_serve["serve_peak_rss_kb"] - sqlite_build["baseline_kb"],
    )
    sqlite_section = {
        "rows": sqlite_rows,
        "store_rss_delta_kb": sqlite_build["store_rss_delta_kb"],
        "serve_peak_rss_kb": sqlite_serve["serve_peak_rss_kb"],
        "db_file_bytes": db_file_bytes,
        "ingest_rows_per_second": sqlite_build["ingest_rows_per_second"],
        "qps": sqlite_serve["qps"],
        "rows_returned": sqlite_serve["rows_returned"],
    }

    # -- the memory baseline at a tenth the size ----------------------------------
    memory_build = build_store("memory", memory_rows, tuples_per_value)
    memory_server = memory_build["server"]
    memory_serve = serve_probes(
        memory_server, memory_build["scheme"], memory_build["values"], queries
    )
    per_row_bytes = memory_build["store_rss_delta_kb"] * 1024 / memory_rows
    memory_section = {
        "rows": memory_rows,
        "store_rss_delta_kb": memory_build["store_rss_delta_kb"],
        "per_row_bytes": round(per_row_bytes, 1),
        "ingest_rows_per_second": memory_build["ingest_rows_per_second"],
        "qps": memory_serve["qps"],
        "rows_returned": memory_serve["rows_returned"],
    }
    memory_server.close()

    memory_bound_at_sqlite_rows_kb = round(per_row_bytes * sqlite_rows / 1024)
    section = {
        "tuples_per_value": tuples_per_value,
        "queries": queries,
        "sqlite": sqlite_section,
        "memory": memory_section,
        "memory_bound_at_sqlite_rows_kb": memory_bound_at_sqlite_rows_kb,
        "sqlite_peak_delta_kb": sqlite_peak_delta_kb,
        "peak_over_memory_bound": round(
            sqlite_peak_delta_kb / memory_bound_at_sqlite_rows_kb, 3
        )
        if memory_bound_at_sqlite_rows_kb
        else None,
    }

    print_table(
        f"storage scaling: sqlite@{sqlite_rows} vs memory@{memory_rows}",
        ["backend", "rows", "store RSS kB", "qps", "db file MB"],
        [
            [
                "sqlite",
                sqlite_rows,
                sqlite_section["store_rss_delta_kb"],
                sqlite_section["qps"],
                round(db_file_bytes / 1e6, 1),
            ],
            [
                "memory",
                memory_rows,
                memory_section["store_rss_delta_kb"],
                memory_section["qps"],
                "-",
            ],
        ],
    )
    print(
        f"  memory backend would need ~{memory_bound_at_sqlite_rows_kb} kB for"
        f" {sqlite_rows} rows ({memory_section['per_row_bytes']} B/row);"
        f" sqlite served them within {sqlite_peak_delta_kb} kB"
    )

    if out_path is not None:
        trajectory = json.loads(out_path.read_text()) if out_path.exists() else {}
        trajectory["storage_scaling"] = section
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return section


# -- tier-1 smoke -----------------------------------------------------------------


def test_storage_scaling_smoke():
    """Seconds-scale shape check: the pipeline runs and sqlite stays lean."""
    section = run_storage_scaling(
        sqlite_rows=20_000,
        memory_rows=10_000,
        tuples_per_value=50,
        queries=40,
        out_path=None,
    )
    # both backends served every probe identically-sized answers
    assert section["sqlite"]["rows_returned"] == 40 * 50
    assert section["memory"]["rows_returned"] == 40 * 50
    assert section["sqlite"]["qps"] > 0 and section["memory"]["qps"] > 0
    # the sqlite store's resident growth is already well below the memory
    # backend's footprint for the same row count at this small scale
    assert section["sqlite"]["store_rss_delta_kb"] < (
        2 * section["memory"]["store_rss_delta_kb"] + 4_096
    )
    assert section["sqlite"]["db_file_bytes"] > 0


# -- full-scale acceptance --------------------------------------------------------


@pytest.mark.slowperf
def test_storage_scaling_acceptance(tmp_path):
    """1M rows served from disk, resident growth below the memory bound."""
    section = run_storage_scaling(out_path=tmp_path / "trajectory.json")
    assert section["sqlite"]["rows"] == FULL_SQLITE_ROWS
    assert section["sqlite"]["rows_returned"] == SERVE_QUERIES * TUPLES_PER_VALUE
    # THE claim: peak resident growth of the disk-backed store stays below
    # what the memory backend's measured per-row cost extrapolates to at 1M
    assert section["sqlite_peak_delta_kb"] < section["memory_bound_at_sqlite_rows_kb"]


if __name__ == "__main__":
    run_storage_scaling()
    print(f"\ntrajectory written to {OUTPUT_PATH}")
