"""Cloud query throughput: linear scan vs. the requested bin's slice.

Unlike the paper-reproduction benchmarks, this one measures the *systems* side
of the reproduction: how fast the :class:`~repro.cloud.server.CloudServer`
serves binned requests when its sensitive-side search reads the requested
bin's slice versus every stored row (``use_encrypted_indexes=False``).  The
owner-side work (query rewriting, token generation) is done once outside the
timed region — the benchmark isolates the cloud subsystem.  Each bin-slice
config is compared against the linear-scan baseline *of the same scheme*, so
speedups are like for like:

* ``deterministic`` tags → tag matching over one bin's slice vs. over every
  ciphertext;
* ``sse`` (per-row PRF trial-testing) → trial-testing one bin's slice vs. the
  whole relation.

Two metrics per configuration:

* **queries/sec** — cloud-side service rate (process_request / process_batch);
* **rows scanned** — encrypted rows examined per query
  (``CloudStatistics.sensitive_rows_scanned``), the hardware-independent
  signal behind the speedup.

Run directly to sweep 1k/10k/100k rows and replace this suite's top-level
keys in the ``BENCH_throughput.json`` trajectory file (its other sections are
kept)::

    PYTHONPATH=src python benchmarks/bench_perf_query_throughput.py

or as a quick perf smoke via ``pytest -m perf`` (reduced sizes, see
``tests/test_perf_throughput.py``).  The full-scale acceptance assertion in
this file is NOT auto-collected (``bench_*.py`` does not match pytest's
``python_files``); run it explicitly::

    PYTHONPATH=src python -m pytest -m perf -q benchmarks/bench_perf_query_throughput.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):  # direct script execution: mirror conftest.py
    _ROOT = Path(__file__).resolve().parent.parent
    for _path in (str(_ROOT), str(_ROOT / "src")):
        if _path not in sys.path:
            sys.path.insert(0, _path)

import pytest

from repro.cloud.server import BatchRequest, CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.crypto.searchable import SSEScheme

from benchmarks.helpers import print_table

TUPLES_PER_VALUE = 10
DEFAULT_SIZES: Tuple[int, ...] = (1_000, 10_000, 100_000)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: name -> (scheme factory, bin-slice read on, batched, baseline name).
#: A ``None`` baseline marks the config *as* a baseline for its scheme.
CONFIGS: Dict[str, Tuple] = {
    "linear-scan": (DeterministicScheme, False, False, None),
    "bin-slice": (DeterministicScheme, True, False, "linear-scan"),
    "bin-slice+batch": (DeterministicScheme, True, True, "linear-scan"),
    "sse-linear-scan": (SSEScheme, False, False, None),
    "sse-bin-store": (SSEScheme, True, False, "sse-linear-scan"),
}

#: Query budgets, scaled down for the scan-heavy paths so the full 100k sweep
#: stays in tens of seconds; qps is an average either way.  SSE trial-testing
#: the whole relation is orders of magnitude slower than everything else, so
#: its linear baseline gets the smallest budget.
QUERY_BUDGET = {
    "linear-scan": 30,
    "bin-slice": 500,
    "bin-slice+batch": 500,
    "sse-linear-scan": 3,
    "sse-bin-store": 30,
}


def _build_dataset(size: int, seed: int):
    from repro.workloads.generator import generate_partitioned_dataset

    return generate_partitioned_dataset(
        num_values=size // TUPLES_PER_VALUE,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=TUPLES_PER_VALUE,
        seed=seed,
    )


def _build_engine(dataset, scheme_factory, use_encrypted_indexes: bool):
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme_factory(SecretKey.from_passphrase("bench-throughput")),
        cloud=CloudServer(use_encrypted_indexes=use_encrypted_indexes),
        rng=random.Random(13),
    )
    return engine.setup()


def _prepare_requests(engine, values: Sequence[object]) -> List[BatchRequest]:
    """Owner-side rewrite + token generation, done outside the timed region.

    Delegates to the engine's own request builder so the benchmark measures
    exactly the request stream the batched execution path sends.
    """
    requests, _slots = engine.build_requests(values)
    return requests


def _measure_cloud(engine, requests: Sequence[BatchRequest], batched: bool) -> Dict:
    cloud = engine.cloud
    scanned_before = cloud.stats.sensitive_rows_scanned
    started = time.perf_counter()
    if batched:
        cloud.process_batch(requests)
    else:
        for request in requests:
            cloud.process_request(
                request.attribute,
                request.cleartext_values,
                request.tokens,
                sensitive_bin_index=request.sensitive_bin_index,
                non_sensitive_bin_index=request.non_sensitive_bin_index,
            )
    elapsed = time.perf_counter() - started
    scanned = cloud.stats.sensitive_rows_scanned - scanned_before
    queries = len(requests)
    return {
        "queries": queries,
        "elapsed_seconds": elapsed,
        "queries_per_second": queries / elapsed if elapsed > 0 else float("inf"),
        "rows_scanned": scanned,
        "rows_scanned_per_query": scanned / queries if queries else 0.0,
    }


def run_throughput_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    query_budget: Optional[Dict[str, int]] = None,
    out_path: Optional[Path] = OUTPUT_PATH,
    seed: int = 29,
    configs: Optional[Sequence[str]] = None,
) -> Dict:
    """Sweep sizes × configurations; optionally record them in the trajectory.

    With ``out_path`` set, the result dict's keys replace the same top-level
    keys of the JSON file there; every other section of the file is kept.

    ``configs`` restricts the sweep to a subset of :data:`CONFIGS` (a config
    with a baseline pulls its baseline in automatically) — used by the perf
    smoke tests to scale each scheme's comparison independently.
    """
    budgets = dict(QUERY_BUDGET)
    if query_budget:
        budgets.update(query_budget)
    if configs is None:
        selected = dict(CONFIGS)
    else:
        wanted = set(configs)
        for name in configs:
            baseline = CONFIGS[name][3]
            if baseline is not None:
                wanted.add(baseline)
        selected = {name: spec for name, spec in CONFIGS.items() if name in wanted}
    results: Dict = {
        "benchmark": "query_throughput",
        "tuples_per_value": TUPLES_PER_VALUE,
        "configs": list(selected),
        "sizes": [],
    }
    for size in sizes:
        dataset = _build_dataset(size, seed)
        entry: Dict = {"relation_rows": size, "results": {}}
        for name, (scheme_factory, sliced, batched, _baseline) in selected.items():
            setup_started = time.perf_counter()
            engine = _build_engine(dataset, scheme_factory, sliced)
            setup_seconds = time.perf_counter() - setup_started
            rng = random.Random(seed + 1)
            values = [rng.choice(dataset.all_values) for _ in range(budgets[name])]
            requests = _prepare_requests(engine, values)
            measured = _measure_cloud(engine, requests, batched)
            measured["setup_seconds"] = setup_seconds
            measured["encrypted_rows_stored"] = engine.cloud.encrypted_row_count
            entry["results"][name] = measured
        for name, (_, _, _, baseline) in selected.items():
            if baseline is None:
                entry["results"][name]["speedup_vs_linear"] = 1.0
                continue
            base_qps = entry["results"][baseline]["queries_per_second"]
            qps = entry["results"][name]["queries_per_second"]
            entry["results"][name]["speedup_vs_linear"] = (
                qps / base_qps if base_qps else float("inf")
            )
        results["sizes"].append(entry)
    if out_path is not None:
        trajectory = json.loads(out_path.read_text()) if out_path.exists() else {}
        trajectory.update(results)
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return results


def print_results(results: Dict) -> None:
    for entry in results["sizes"]:
        rows = []
        for name, measured in entry["results"].items():
            rows.append(
                (
                    name,
                    measured["queries"],
                    f"{measured['queries_per_second']:.1f}",
                    f"{measured['rows_scanned_per_query']:.1f}",
                    f"{measured['speedup_vs_linear']:.1f}x",
                )
            )
        print_table(
            f"Cloud query throughput @ {entry['relation_rows']} rows",
            ["config", "queries", "qps", "rows scanned/query", "vs same-scheme linear"],
            rows,
        )


@pytest.mark.perf
@pytest.mark.slowperf
def test_throughput_acceptance_at_100k():
    """The acceptance bar: ≥5x queries/sec over the linear scan at 100k rows.

    The deterministic-scheme comparison runs at full 100k scale; the SSE
    comparison runs at 10k because its linear baseline (PRF trial-testing
    every row) costs seconds *per query* at 100k — the committed
    ``BENCH_throughput.json`` carries the full-scale numbers.
    """
    det = run_throughput_suite(
        sizes=(100_000,),
        configs=("bin-slice", "bin-slice+batch"),
        query_budget={"linear-scan": 20, "bin-slice": 300, "bin-slice+batch": 300},
        out_path=None,
    )
    print_results(det)
    at_100k = det["sizes"][0]["results"]
    assert at_100k["bin-slice"]["speedup_vs_linear"] >= 5.0
    assert at_100k["bin-slice+batch"]["speedup_vs_linear"] >= 5.0
    linear_scanned = at_100k["linear-scan"]["rows_scanned_per_query"]
    assert at_100k["bin-slice"]["rows_scanned_per_query"] < linear_scanned / 50

    sse = run_throughput_suite(
        sizes=(10_000,),
        configs=("sse-bin-store",),
        query_budget={"sse-linear-scan": 3, "sse-bin-store": 20},
        out_path=None,
    )
    print_results(sse)
    at_10k = sse["sizes"][0]["results"]
    assert at_10k["sse-bin-store"]["speedup_vs_linear"] >= 5.0
    assert (
        at_10k["sse-bin-store"]["rows_scanned_per_query"]
        < at_10k["sse-linear-scan"]["rows_scanned_per_query"] / 2
    )


if __name__ == "__main__":
    suite_results = run_throughput_suite()
    print_results(suite_results)
    print(f"\ntrajectory written to {OUTPUT_PATH}")
