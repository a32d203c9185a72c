"""Sharded multi-cloud throughput: qps vs. server count.

PR 1's benchmark (``bench_perf_query_throughput.py``) measured how fast *one*
:class:`~repro.cloud.server.CloudServer` serves a binned workload under each
sensitive-side search path.  This benchmark measures the fleet dimension the
sharded execution subsystem adds: the same workload executed end-to-end
(owner rewrite → cloud search → owner decrypt/merge) through
``execute_workload(..., placement="sharded")`` against
:class:`~repro.cloud.multi_cloud.MultiCloud` fleets of growing size, with the
single-server batched path as the 1-server baseline.

Two configurations bound the design space:

* ``sharded-linear`` — bin-slice reads off (``use_encrypted_indexes=False``),
  so every sensitive request is a linear scan of the serving member's
  store.  Sharding splits storage bin-by-bin across members, so each member
  scans ~1/k of the relation: the classic horizontal-scaling contraction,
  visible in wall clock *and* in the hardware-independent rows-scanned
  counter.
* ``sharded-bin-slice`` — bin-slice reads on, so per-query cloud work is one
  bin's slice wherever the bin is stored; there is nothing left for a fleet
  to divide, and the thread-pool coordination overhead makes the sharded
  path *slower* than one server (≈0.85x in the committed trajectory, which
  was measured under the name ``sharded-tag-index`` with an encrypted tag
  index that has since been deleted).  It is included so the trajectory
  records both regimes honestly: shard when per-query cloud work is the
  bottleneck, keep one server (or more attributes per fleet) when the bin
  slice already erased it.

Methodology: each fleet size serves the workload once to warm the owner's
per-bin token and plaintext caches, then the best of a few repeat runs is
reported — steady-state throughput, the regime a long-running deployment
lives in.  The clouds' cross-batch retrieval interning is flushed before
every pass (see ``_flush_cloud_retrievals``): a warm retrieval cache would
turn every repeat into pure fixed cost — no scans, no trial decryption —
and this benchmark exists to measure the *compute* regime a fleet divides;
within a pass each distinct request is still computed once, the original
per-batch dedup semantics.  The dataset uses one tuple per value, which
maximises the bin count at a given relation size and therefore the fraction
of per-query cost that is cloud-side scanning (the part a fleet divides);
owner-side per-query costs (merging, trace building) are identical across
fleet sizes and are deliberately left inside the timed region, so the
reported speedups are end-to-end, not cloud-only.

A third dimension — ``process_members`` — measures the GIL escape: the same
sharded workload under SSE (trial decryption, the CPU-bound scheme) with
``member_backend="process"`` versus threads versus one server.  Every run
records the deterministic division of trial-decryption work
(``max_member_rows_scanned_per_query``) alongside wall clock, plus the
``usable_cpus`` the numbers were measured under — on a single-core
container the workers are time-sliced and wall clock cannot reflect the
(still real, still asserted) work split.

A second dimension — ``fault_tolerance`` — measures what replication and
failover cost: the same sharded workload at 4 servers with
``replication_factor=2``, healthy versus with one member killed (excluded
from routing, its bins served by replicas).  Replication doubles each
member's slice, so the scan-bound healthy qps sits below the unreplicated
figure — that storage/throughput trade is the price of surviving a member
loss; the killed run then shows the residual failover overhead (one fewer
member, same per-request slice sizes).  Results must stay bit-identical
across both runs — degraded execution is required to be unobservable.

A fourth dimension — ``elastic_fleet`` — measures what membership *churn*
costs: one fleet carried through the full lifecycle (healthy → one member
killed → redundancy re-replicated onto the survivors → a fresh member
joined), with steady-state qps measured at every stage and the slice
volumes each transition moved recorded alongside.  Results must stay
bit-identical across all four stages, and redundancy must be back at
``replication_factor`` copies per bin once the cycle completes.

Run directly to sweep server counts at 100k rows and fold the
``multicloud_scaling`` and ``fault_tolerance`` sections into the committed
``BENCH_throughput.json``::

    PYTHONPATH=src python benchmarks/bench_perf_multicloud.py

The full-scale acceptance tests (≥1.5x qps at 4 servers vs. 1 at 100k rows;
killed-member qps ≥ 0.4x healthy) are marked ``slowperf``; the
fault-tolerance smoke variant is seconds-fast but — like every test in this
directory — only collected when the file is named explicitly (pytest only
auto-collects ``test_*.py``; the default-run failover coverage lives in
``tests/test_fault_tolerance.py``).  Run the full set::

    PYTHONPATH=src python -m pytest -m perf -q benchmarks/bench_perf_multicloud.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

if __package__ in (None, ""):  # direct script execution: mirror conftest.py
    _ROOT = Path(__file__).resolve().parent.parent
    for _path in (str(_ROOT), str(_ROOT / "src")):
        if _path not in sys.path:
            sys.path.insert(0, _path)

import pytest

from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.process_member import process_backend_available
from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.crypto.primitives import SecretKey

from benchmarks.helpers import print_table


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity beats cpu_count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

DEFAULT_SIZES: Tuple[int, ...] = (100_000,)
DEFAULT_SERVER_COUNTS: Tuple[int, ...] = (1, 2, 4)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _build_dataset(size: int, seed: int):
    """``size`` rows with one tuple per value (see the methodology note)."""
    from repro.workloads.generator import generate_partitioned_dataset

    return generate_partitioned_dataset(
        num_values=size,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=1,
        seed=seed,
    )

#: name -> bin-slice reads on (scheme is deterministic for both; the linear
#: config is the scan-bound regime where sharding's work split shows).
CONFIGS: Dict[str, bool] = {
    "sharded-linear": False,
    "sharded-bin-slice": True,
}

QUERY_BUDGET = {"sharded-linear": 240, "sharded-bin-slice": 600}


def _build_engine(
    dataset,
    server_count: int,
    use_encrypted_indexes: bool,
    replication_factor: int = 1,
):
    """An engine over ``dataset``, sharded across ``server_count`` members.

    ``server_count == 1`` is the baseline: no fleet, single-server batched
    execution (the fastest one-server path PR 1 produced).
    """
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=DeterministicScheme(SecretKey.from_passphrase("bench-multicloud")),
        cloud=CloudServer(use_encrypted_indexes=use_encrypted_indexes),
        rng=random.Random(13),
        multi_cloud=(
            MultiCloud(server_count, use_encrypted_indexes=use_encrypted_indexes)
            if server_count >= 2
            else None
        ),
        replication_factor=replication_factor,
    )
    return engine.setup()


def _scanned_rows(engine, server_count: int) -> int:
    if server_count == 1:
        return engine.cloud.stats.sensitive_rows_scanned
    return engine.multi_cloud.aggregate_stat("sensitive_rows_scanned")


def _flush_cloud_retrievals(engine, server_count: int) -> None:
    """Drop the clouds' interned retrievals (owner-side caches stay warm).

    The engine's cross-batch retrieval interning (PR 5) would otherwise turn
    every measured repeat of the workload into pure fixed cost — no scans,
    no trial decryption — and the scaling benchmarks exist to measure the
    *compute* regime a fleet divides.  Flushing between passes restores the
    original methodology exactly: within a pass each distinct request is
    computed once (the old per-batch dedup), across passes it is computed
    again.  Owner caches (tokens, interned requests, plaintexts) stay warm,
    as before.
    """
    engine.cloud.invalidate_retrievals()
    if server_count > 1:
        for server in engine.multi_cloud.servers:
            server.invalidate_retrievals()


def _measure(
    engine, server_count: int, workload, warmup: int = 1, repeats: int = 3
) -> Tuple[Dict, list]:
    """Steady-state end-to-end workload execution (warm-up, then best-of-N).

    Rows-scanned counters are taken as the delta across one measured run, so
    they reflect per-workload work regardless of how many runs preceded it.
    """
    placement = "batched" if server_count == 1 else "sharded"
    for _ in range(warmup):
        _flush_cloud_retrievals(engine, server_count)
        engine.execute_workload_with_rows(workload, placement=placement)
    best = float("inf")
    outcome = None
    scanned = 0
    for _ in range(repeats):
        _flush_cloud_retrievals(engine, server_count)
        scanned_before = _scanned_rows(engine, server_count)
        started = time.perf_counter()
        outcome = engine.execute_workload_with_rows(workload, placement=placement)
        elapsed = time.perf_counter() - started
        scanned = _scanned_rows(engine, server_count) - scanned_before
        best = min(best, elapsed)
    result_rids = [sorted(row.rid for row in rows) for rows, _trace in outcome]
    if server_count == 1:
        stored = engine.cloud.encrypted_row_count
        max_stored = stored
    else:
        fleet = engine.multi_cloud
        stored = sum(server.encrypted_row_count for server in fleet.servers)
        max_stored = max(server.encrypted_row_count for server in fleet.servers)
    queries = len(workload)
    return {
        "servers": server_count,
        "placement": placement,
        "queries": queries,
        "elapsed_seconds": best,
        "queries_per_second": queries / best if best > 0 else float("inf"),
        "rows_scanned_per_query": scanned / queries if queries else 0.0,
        "encrypted_rows_stored": stored,
        "max_rows_stored_per_server": max_stored,
    }, result_rids


def run_fleet_comparison(
    size: int,
    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS,
    queries: int = 240,
    use_encrypted_indexes: bool = False,
    seed: int = 29,
    warmup: int = 1,
    repeats: int = 3,
) -> Dict:
    """One size × one config across fleet sizes, with result-parity checking.

    The same workload is replayed against every fleet size; the returned
    ``result_rids_match`` records whether every fleet produced bit-identical
    per-query result sets (it must — sharding is unobservable to the owner).
    """
    dataset = _build_dataset(size, seed)
    rng = random.Random(seed + 1)
    workload = [rng.choice(dataset.all_values) for _ in range(queries)]
    runs: Dict[str, Dict] = {}
    reference_rids = None
    rids_match = True
    for server_count in server_counts:
        engine = _build_engine(dataset, server_count, use_encrypted_indexes)
        measured, result_rids = _measure(
            engine, server_count, workload, warmup=warmup, repeats=repeats
        )
        if reference_rids is None:
            reference_rids = result_rids
        else:
            rids_match = rids_match and (result_rids == reference_rids)
        runs[str(server_count)] = measured
    # "vs single" means the 1-server run when present; otherwise the
    # smallest measured fleet (the metric is then relative, not absolute).
    baseline_key = "1" if "1" in runs else str(min(int(count) for count in runs))
    baseline_qps = runs[baseline_key]["queries_per_second"]
    for measured in runs.values():
        measured["speedup_vs_single"] = (
            measured["queries_per_second"] / baseline_qps if baseline_qps else float("inf")
        )
    return {
        "relation_rows": size,
        "queries": queries,
        "use_encrypted_indexes": use_encrypted_indexes,
        "runs": runs,
        "result_rids_match": rids_match,
    }


def run_fault_tolerance_comparison(
    size: int,
    server_count: int = 4,
    replication_factor: int = 2,
    queries: int = 240,
    use_encrypted_indexes: bool = False,
    seed: int = 29,
    warmup: int = 1,
    repeats: int = 3,
    victim: int = 0,
) -> Dict:
    """Failover overhead: healthy vs. one-member-killed qps on a replicated fleet.

    Both runs use identical engines (``server_count`` members,
    ``replication_factor``-way replicated bin slices); the degraded run marks
    ``victim`` failed *before* measuring, so it reports the steady state a
    deployment settles into after a member loss — every bin the victim owned
    is served by a live replica, with bit-identical results (checked).
    """
    dataset = _build_dataset(size, seed)
    rng = random.Random(seed + 1)
    workload = [rng.choice(dataset.all_values) for _ in range(queries)]
    runs: Dict[str, Dict] = {}
    reference_rids = None
    rids_match = True
    single_copy_rows = 0
    for label, kill in (("healthy", False), ("one-member-killed", True)):
        engine = _build_engine(
            dataset, server_count, use_encrypted_indexes, replication_factor
        )
        # the reference server holds exactly one copy of the encrypted
        # relation — the baseline the fleet's k-way storage is measured from
        single_copy_rows = engine.cloud.encrypted_row_count
        if kill:
            engine.multi_cloud.failed_members.add(victim)
        measured, result_rids = _measure(
            engine, server_count, workload, warmup=warmup, repeats=repeats
        )
        measured["members_live"] = server_count - (1 if kill else 0)
        if reference_rids is None:
            reference_rids = result_rids
        else:
            rids_match = rids_match and (result_rids == reference_rids)
        runs[label] = measured
    healthy_qps = runs["healthy"]["queries_per_second"]
    degraded_qps = runs["one-member-killed"]["queries_per_second"]
    return {
        "relation_rows": size,
        "queries": queries,
        "server_count": server_count,
        "replication_factor": replication_factor,
        "use_encrypted_indexes": use_encrypted_indexes,
        "killed_member": victim,
        "single_copy_rows": single_copy_rows,
        "runs": runs,
        "result_rids_match": rids_match,
        # qps retained with one member down; 1.0 would mean free failover
        "degraded_qps_fraction": (
            degraded_qps / healthy_qps if healthy_qps else float("inf")
        ),
    }


def run_fault_tolerance_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    out_path: Optional[Path] = OUTPUT_PATH,
    seed: int = 29,
) -> Dict:
    """Sweep sizes for the failover comparison; fold into the trajectory."""
    section: Dict = {
        "benchmark": "fault_tolerance",
        "server_count": 4,
        "replication_factor": 2,
        "sizes": [
            run_fault_tolerance_comparison(size, seed=seed) for size in sizes
        ],
    }
    if out_path is not None:
        trajectory = (
            json.loads(out_path.read_text()) if out_path.exists() else {}
        )
        trajectory["fault_tolerance"] = section
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return section


def print_fault_tolerance(section: Dict) -> None:
    for comparison in section["sizes"]:
        rows = []
        for label in ("healthy", "one-member-killed"):
            measured = comparison["runs"][label]
            rows.append(
                (
                    label,
                    measured["members_live"],
                    f"{measured['queries_per_second']:.1f}",
                    f"{measured['rows_scanned_per_query']:.1f}",
                    f"{measured['max_rows_stored_per_server']}",
                )
            )
        parity = "ok" if comparison["result_rids_match"] else "MISMATCH"
        print_table(
            f"fault tolerance @ {comparison['relation_rows']} rows, "
            f"{comparison['server_count']} servers, "
            f"k={comparison['replication_factor']} "
            f"(result parity: {parity}, degraded qps fraction: "
            f"{comparison['degraded_qps_fraction']:.2f})",
            ["run", "live members", "qps", "rows scanned/query", "max rows/server"],
            rows,
        )


def run_elastic_fleet_comparison(
    size: int,
    server_count: int = 5,
    replication_factor: int = 2,
    queries: int = 240,
    use_encrypted_indexes: bool = False,
    seed: int = 29,
    warmup: int = 1,
    repeats: int = 2,
    victim: int = 0,
) -> Dict:
    """Throughput through a kill → re-replicate → join membership cycle.

    Unlike ``run_fault_tolerance_comparison`` (which builds a fresh fleet per
    run), this carries *one* fleet through the whole lifecycle the elastic
    subsystem exists for, measuring steady-state qps at every stage:

    1. ``healthy`` — the ``server_count``-member baseline;
    2. ``member-killed`` — ``victim`` excluded, replicas serving its bins;
    3. ``re-replicated`` — the loss confirmed and every bin back at
       ``replication_factor`` copies on the survivors;
    4. ``member-joined`` — a fresh member admitted and slices rebalanced
       onto it.

    Results must stay bit-identical across all four stages (checked), and
    the migration volumes each transition moved are recorded so the
    throughput numbers can be read against the repair work they bought.
    """
    dataset = _build_dataset(size, seed)
    rng = random.Random(seed + 1)
    workload = [rng.choice(dataset.all_values) for _ in range(queries)]
    engine = _build_engine(
        dataset, server_count, use_encrypted_indexes, replication_factor
    )
    fleet = engine.multi_cloud
    manager = engine.fleet_lifecycle()
    runs: Dict[str, Dict] = {}
    reference_rids = None
    rids_match = True

    def measure_stage(label: str) -> None:
        nonlocal reference_rids, rids_match
        measured, result_rids = _measure(
            engine, len(fleet), workload, warmup=warmup, repeats=repeats
        )
        live = sorted(fleet.live_members - fleet.failed_members)
        measured["members_live"] = len(live)
        # storage accounting over the members actually serving (a killed or
        # departed member's rows are no longer part of the fleet's capacity)
        measured["encrypted_rows_stored"] = sum(
            fleet[index].encrypted_row_count for index in live
        )
        measured["max_rows_stored_per_server"] = max(
            fleet[index].encrypted_row_count for index in live
        )
        if reference_rids is None:
            reference_rids = result_rids
        else:
            rids_match = rids_match and (result_rids == reference_rids)
        runs[label] = measured

    measure_stage("healthy")
    fleet.failed_members.add(victim)
    measure_stage("member-killed")
    restore_report = manager.restore_redundancy()
    measure_stage("re-replicated")
    joined, join_report = manager.add_member()
    measure_stage("member-joined")

    health = manager.replication_health()
    healthy_qps = runs["healthy"]["queries_per_second"]
    for measured in runs.values():
        measured["qps_fraction_of_healthy"] = (
            measured["queries_per_second"] / healthy_qps
            if healthy_qps
            else float("inf")
        )
    return {
        "relation_rows": size,
        "queries": queries,
        "server_count": server_count,
        "replication_factor": replication_factor,
        "use_encrypted_indexes": use_encrypted_indexes,
        "killed_member": victim,
        "joined_member": joined,
        "rows_rereplicated": restore_report.rows_copied,
        "bins_rereplicated": restore_report.bins_copied,
        "rows_rebalanced_on_join": join_report.rows_copied,
        "bins_rebalanced_on_join": join_report.bins_copied,
        "redundancy_restored": bool(health)
        and set(health.values()) == {replication_factor},
        "non_collusion_pairs_proved": manager.prove_non_collusion(),
        "runs": runs,
        "result_rids_match": rids_match,
    }


def run_elastic_fleet_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    out_path: Optional[Path] = OUTPUT_PATH,
    seed: int = 29,
) -> Dict:
    """Sweep sizes for the churn-cycle comparison; fold into the trajectory."""
    section: Dict = {
        "benchmark": "elastic_fleet",
        "server_count": 5,
        "replication_factor": 2,
        "sizes": [run_elastic_fleet_comparison(size, seed=seed) for size in sizes],
    }
    if out_path is not None:
        trajectory = json.loads(out_path.read_text()) if out_path.exists() else {}
        trajectory["elastic_fleet"] = section
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return section


def print_elastic_fleet(section: Dict) -> None:
    for comparison in section["sizes"]:
        rows = []
        for label in ("healthy", "member-killed", "re-replicated", "member-joined"):
            measured = comparison["runs"][label]
            rows.append(
                (
                    label,
                    measured["members_live"],
                    f"{measured['queries_per_second']:.1f}",
                    f"{measured['qps_fraction_of_healthy']:.2f}x",
                    f"{measured['max_rows_stored_per_server']}",
                )
            )
        parity = "ok" if comparison["result_rids_match"] else "MISMATCH"
        redundancy = "restored" if comparison["redundancy_restored"] else "DEGRADED"
        print_table(
            f"elastic fleet @ {comparison['relation_rows']} rows, "
            f"{comparison['server_count']} servers, "
            f"k={comparison['replication_factor']} "
            f"(result parity: {parity}, redundancy: {redundancy}, "
            f"{comparison['rows_rereplicated']} rows re-replicated, "
            f"{comparison['rows_rebalanced_on_join']} rows rebalanced on join)",
            ["stage", "live members", "qps", "vs healthy", "max rows/server"],
            rows,
        )


def run_process_member_comparison(
    size: int,
    server_count: int = 4,
    queries: int = 120,
    seed: int = 29,
    warmup: int = 1,
    repeats: int = 2,
) -> Dict:
    """SSE trial decryption: 1 server vs. thread members vs. process members.

    SSE is the scheme the GIL hurts: the cloud must PRF-test every (row,
    token) pair of the addressed bin, pure Python+hashlib CPU work.  The
    thread backend divides the *rows* across members but time-slices the
    compute on one core; the process backend runs the same division on
    actual cores.  Both fleets must return bit-identical results (checked).

    Alongside wall clock the comparison records the deterministic driver:
    ``max_member_rows_scanned_per_query`` — the largest per-member
    trial-decryption load.  The fleet divides work whenever that figure is
    well below the single-server ``rows_scanned_per_query``; whether the
    division shows up in qps depends on ``usable_cpus`` (a single-core
    container serialises the workers however the work is split, so the
    committed numbers carry the cpu count they were measured on).
    """
    dataset = _build_dataset(size, seed)
    rng = random.Random(seed + 1)
    workload = [rng.choice(dataset.all_values) for _ in range(queries)]
    configs = [("1-server", 1, None), ("4-thread-members", server_count, "thread")]
    if process_backend_available():
        configs.append(("4-process-members", server_count, "process"))
    runs: Dict[str, Dict] = {}
    reference_rids = None
    rids_match = True
    for label, count, backend in configs:
        engine = QueryBinningEngine(
            partition=dataset.partition,
            attribute=dataset.attribute,
            scheme=SSEScheme(SecretKey.from_passphrase("bench-multicloud")),
            cloud=CloudServer(),
            rng=random.Random(13),
            multi_cloud=(
                MultiCloud(count, member_backend=backend) if count >= 2 else None
            ),
        )
        engine.setup()
        measured, result_rids = _measure(
            engine, count, workload, warmup=warmup, repeats=repeats
        )
        measured["member_backend"] = backend or "none"
        if count >= 2:
            per_member = [
                server.stats.sensitive_rows_scanned
                for server in engine.multi_cloud.servers
            ]
            # cumulative across warmup+repeats; scale to one workload pass
            passes = warmup + repeats
            measured["max_member_rows_scanned_per_query"] = max(per_member) / (
                passes * queries
            )
            engine.multi_cloud.close()
        else:
            measured["max_member_rows_scanned_per_query"] = measured[
                "rows_scanned_per_query"
            ]
        if reference_rids is None:
            reference_rids = result_rids
        else:
            rids_match = rids_match and (result_rids == reference_rids)
        runs[label] = measured
    baseline_qps = runs["1-server"]["queries_per_second"]
    for measured in runs.values():
        measured["speedup_vs_single"] = (
            measured["queries_per_second"] / baseline_qps
            if baseline_qps
            else float("inf")
        )
    return {
        "relation_rows": size,
        "queries": queries,
        "scheme": "sse",
        "server_count": server_count,
        "usable_cpus": _usable_cpus(),
        "runs": runs,
        "result_rids_match": rids_match,
    }


def run_process_member_suite(
    sizes: Sequence[int] = (20_000,),
    out_path: Optional[Path] = OUTPUT_PATH,
    seed: int = 29,
) -> Dict:
    """Sweep sizes for the process-member comparison; fold into the trajectory."""
    section: Dict = {
        "benchmark": "process_members",
        "scheme": "sse",
        "server_count": 4,
        "usable_cpus": _usable_cpus(),
        "note": (
            "wall-clock scaling needs >= server_count usable CPUs; with fewer, "
            "workers time-slice one core and qps reflects IPC overhead, while "
            "the division of trial-decryption work is still proven by "
            "max_member_rows_scanned_per_query (~1/server_count of the "
            "single-server per-query load)"
        ),
        "sizes": [run_process_member_comparison(size, seed=seed) for size in sizes],
    }
    if out_path is not None:
        trajectory = json.loads(out_path.read_text()) if out_path.exists() else {}
        trajectory["process_members"] = section
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return section


def print_process_members(section: Dict) -> None:
    for comparison in section["sizes"]:
        rows = []
        for label, measured in comparison["runs"].items():
            rows.append(
                (
                    label,
                    f"{measured['queries_per_second']:.1f}",
                    f"{measured['rows_scanned_per_query']:.1f}",
                    f"{measured['max_member_rows_scanned_per_query']:.1f}",
                    f"{measured['speedup_vs_single']:.2f}x",
                )
            )
        parity = "ok" if comparison["result_rids_match"] else "MISMATCH"
        print_table(
            f"process members (SSE) @ {comparison['relation_rows']} rows, "
            f"{comparison['usable_cpus']} usable cpus "
            f"(result parity: {parity})",
            [
                "config",
                "qps",
                "rows trialed/query",
                "max rows trialed/query/member",
                "vs 1 server",
            ],
            rows,
        )


def run_multicloud_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS,
    query_budget: Optional[Dict[str, int]] = None,
    out_path: Optional[Path] = OUTPUT_PATH,
    seed: int = 29,
) -> Dict:
    """Sweep sizes × configs × fleet sizes; fold results into the trajectory.

    The committed ``BENCH_throughput.json`` keeps PR 1's single-server curves
    untouched and gains (or refreshes) a ``multicloud_scaling`` section — one
    trajectory file tells the whole throughput story.
    """
    budgets = dict(QUERY_BUDGET)
    if query_budget:
        budgets.update(query_budget)
    section: Dict = {
        "benchmark": "multicloud_scaling",
        "server_counts": list(server_counts),
        "configs": list(CONFIGS),
        "sizes": [],
    }
    for size in sizes:
        entry: Dict = {"relation_rows": size, "results": {}}
        for name, use_encrypted_indexes in CONFIGS.items():
            entry["results"][name] = run_fleet_comparison(
                size,
                server_counts=server_counts,
                queries=budgets[name],
                use_encrypted_indexes=use_encrypted_indexes,
                seed=seed,
            )
        section["sizes"].append(entry)
    if out_path is not None:
        trajectory = (
            json.loads(out_path.read_text()) if out_path.exists() else {}
        )
        trajectory["multicloud_scaling"] = section
        out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return section


def print_results(section: Dict) -> None:
    for entry in section["sizes"]:
        for name, comparison in entry["results"].items():
            rows = []
            for count in sorted(comparison["runs"], key=int):
                measured = comparison["runs"][count]
                rows.append(
                    (
                        count,
                        measured["queries"],
                        f"{measured['queries_per_second']:.1f}",
                        f"{measured['rows_scanned_per_query']:.1f}",
                        f"{measured['max_rows_stored_per_server']}",
                        f"{measured['speedup_vs_single']:.2f}x",
                    )
                )
            parity = "ok" if comparison["result_rids_match"] else "MISMATCH"
            print_table(
                f"{name} @ {entry['relation_rows']} rows (result parity: {parity})",
                [
                    "servers",
                    "queries",
                    "qps",
                    "rows scanned/query",
                    "max rows/server",
                    "vs 1 server",
                ],
                rows,
            )


@pytest.mark.perf
@pytest.mark.faults
def test_failover_parity_smoke():
    """Fast default-run check: a killed member is invisible in the results
    and the degraded fleet still serves at a sane fraction of healthy qps."""
    comparison = run_fault_tolerance_comparison(
        2_000, queries=60, warmup=1, repeats=1
    )
    assert comparison["result_rids_match"] is True
    healthy = comparison["runs"]["healthy"]
    degraded = comparison["runs"]["one-member-killed"]
    assert degraded["queries_per_second"] > 0
    # replication really happened: the fleet stores exactly k copies of the
    # encrypted relation (k=2), not the single sharded copy of an
    # unreplicated fleet
    assert healthy["encrypted_rows_stored"] == (
        comparison["replication_factor"] * comparison["single_copy_rows"]
    )
    assert comparison["degraded_qps_fraction"] > 0.2


@pytest.mark.perf
@pytest.mark.slowperf
def test_failover_overhead_acceptance():
    """The acceptance bar for degraded mode at full scale: losing 1 of 4
    members keeps ≥0.4x of healthy steady-state qps (3 live members serving
    identical per-request slices), with bit-identical results."""
    comparison = run_fault_tolerance_comparison(100_000, queries=160)
    print_fault_tolerance({"sizes": [comparison]})
    assert comparison["result_rids_match"] is True
    assert comparison["degraded_qps_fraction"] >= 0.4
    # the degraded run scans the same per-query slice (replicas are exact
    # copies); only the loss of a member's parallelism may cost throughput
    healthy = comparison["runs"]["healthy"]
    degraded = comparison["runs"]["one-member-killed"]
    assert degraded["rows_scanned_per_query"] == pytest.approx(
        healthy["rows_scanned_per_query"], rel=0.01
    )


@pytest.mark.perf
@pytest.mark.faults
@pytest.mark.chaos
def test_elastic_cycle_smoke():
    """Fast check: qps stays sane and results bit-identical through a full
    kill → re-replicate → join cycle, with redundancy back at k after it."""
    comparison = run_elastic_fleet_comparison(
        2_000, queries=60, warmup=1, repeats=1
    )
    assert comparison["result_rids_match"] is True
    assert comparison["redundancy_restored"] is True
    assert comparison["rows_rereplicated"] > 0
    assert comparison["non_collusion_pairs_proved"] > 0
    for stage in ("member-killed", "re-replicated", "member-joined"):
        assert comparison["runs"][stage]["qps_fraction_of_healthy"] > 0.2, stage


@pytest.mark.perf
def test_process_member_parity_smoke():
    """Fast default-run check: process-backed members return bit-identical
    results to threads and the single server, and divide the SSE
    trial-decryption work across members (deterministic counters)."""
    comparison = run_process_member_comparison(
        2_000, queries=40, warmup=1, repeats=1
    )
    assert comparison["result_rids_match"] is True
    single = comparison["runs"]["1-server"]
    assert single["queries_per_second"] > 0
    if "4-process-members" in comparison["runs"]:
        fleet = comparison["runs"]["4-process-members"]
        # the fleet's busiest member trial-decrypts well under the whole
        # relation's per-query load: the work really is divided
        assert fleet["max_member_rows_scanned_per_query"] < (
            0.6 * single["rows_scanned_per_query"]
        )


@pytest.mark.perf
@pytest.mark.slowperf
def test_process_member_scaling_acceptance():
    """The acceptance bar for the GIL escape: ≥1.5x SSE qps at 4
    process-backed members vs. 1 server.

    Parallel speedup needs parallel hardware: on a container restricted to
    fewer than 4 usable CPUs the workers are time-sliced onto the same
    cores and wall clock cannot reflect the (still measured, still asserted)
    work division, so the wall-clock bar is skipped there — the committed
    ``BENCH_throughput.json`` records ``usable_cpus`` alongside the numbers.
    """
    comparison = run_process_member_comparison(20_000, queries=120)
    print_process_members({"sizes": [comparison]})
    assert comparison["result_rids_match"] is True
    single = comparison["runs"]["1-server"]
    fleet = comparison["runs"].get("4-process-members")
    assert fleet is not None, "process backend unavailable on this platform"
    assert fleet["max_member_rows_scanned_per_query"] < (
        0.6 * single["rows_scanned_per_query"]
    )
    if comparison["usable_cpus"] < 4:
        pytest.skip(
            f"only {comparison['usable_cpus']} usable CPUs: process members "
            "cannot run in parallel here, wall-clock bar not meaningful"
        )
    assert fleet["speedup_vs_single"] >= 1.5


@pytest.mark.perf
@pytest.mark.slowperf
def test_multicloud_scaling_acceptance():
    """The acceptance bar: ≥1.5x qps at 4 servers vs. 1 at 100k rows.

    Runs the scan-bound configuration, where sharding's per-member work split
    must translate into wall-clock throughput, and requires bit-identical
    results across fleet sizes while it is at it.
    """
    comparison = run_fleet_comparison(
        100_000, server_counts=(1, 4), queries=160, use_encrypted_indexes=False
    )
    single = comparison["runs"]["1"]
    sharded = comparison["runs"]["4"]
    print_results(
        {"sizes": [{"relation_rows": 100_000, "results": {"sharded-linear": comparison}}]}
    )
    assert comparison["result_rids_match"] is True
    assert sharded["speedup_vs_single"] >= 1.5
    # the deterministic driver behind the wall-clock number
    assert sharded["rows_scanned_per_query"] < single["rows_scanned_per_query"] / 2
    assert sharded["max_rows_stored_per_server"] < single["encrypted_rows_stored"] / 2


if __name__ == "__main__":
    suite_section = run_multicloud_suite()
    print_results(suite_section)
    fault_section = run_fault_tolerance_suite()
    print_fault_tolerance(fault_section)
    elastic_section = run_elastic_fleet_suite()
    print_elastic_fleet(elastic_section)
    process_section = run_process_member_suite()
    print_process_members(process_section)
    print(f"\ntrajectory written to {OUTPUT_PATH}")
