"""``perfsmoke``: seconds-scale perf-path regression guards in the tier-1 run.

The full-scale throughput benchmarks (``benchmarks/bench_perf_*.py``) are
minutes of wall clock and excluded from the default run, which historically
meant perf-path regressions only surfaced when someone re-ran them.  These
tests are the fast tripwire: every execution config — sequential, batched,
sharded×{thread,process} members, tag-matching and trial-decryption schemes
over the bin slice — runs over a small relation in the default pytest run,
and the *deterministic* signatures of the optimisations (interned retrievals
skipping scheme compute, interned requests, shared view templates) are
asserted via counters rather than wall clock, so they cannot flake on slow
CI yet fail immediately if the hot path regresses to per-query
recomputation.

Select just these with ``pytest -m perfsmoke``.
"""

from __future__ import annotations

import random
import tracemalloc
from typing import List

import pytest

from repro.cloud import network as network_module
from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.process_member import process_backend_available
from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.crypto.primitives import SecretKey
from repro.workloads.generator import generate_partitioned_dataset

pytestmark = [pytest.mark.perfsmoke]

#: all fleet configs the smoke covers; None = single server (batched)
FLEET_CONFIGS = (
    ("single", None),
    ("sharded-thread", "thread"),
    ("sharded-process", "process"),
)


class CountingSSEScheme(SSEScheme):
    """SSE with a cloud-side work odometer (trial-decryption call counter)."""

    def __init__(self, key=None):
        super().__init__(key)
        self.search_calls = 0
        self.rows_trialed = 0

    def search(self, stored, tokens):
        self.search_calls += 1
        self.rows_trialed += len(stored)
        return super().search(stored, tokens)


def _dataset(seed: int = 19, num_values: int = 300):
    return generate_partitioned_dataset(
        num_values=num_values,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=2,
        seed=seed,
    )


def _engine(dataset, scheme, backend=None, use_encrypted_indexes=True):
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme,
        cloud=CloudServer(use_encrypted_indexes=use_encrypted_indexes),
        rng=random.Random(5),
        multi_cloud=(
            MultiCloud(3, use_encrypted_indexes=use_encrypted_indexes,
                       member_backend=backend)
            if backend is not None
            else None
        ),
    )
    return engine.setup()


def _workload(dataset, repeats: int = 2, seed: int = 37) -> List[object]:
    values = list(dataset.all_values) * repeats
    random.Random(seed).shuffle(values)
    return values


@pytest.mark.parametrize(
    "config_name,backend",
    [
        pytest.param(
            name,
            backend,
            marks=(
                [pytest.mark.skipif(
                    not process_backend_available(),
                    reason="no fork start method",
                )]
                if backend == "process"
                else []
            ),
        )
        for name, backend in FLEET_CONFIGS
    ],
)
@pytest.mark.parametrize("scheme_name", ["tag-index", "sse-bin-store"])
def test_every_config_serves_the_workload(config_name, backend, scheme_name):
    """All configs × both kinds of encrypted search (the ``tag-index`` id is
    the deterministic scheme's tag matching, the ``sse-bin-store`` id SSE's
    trial decryption, both over the bin slice) answer a repeated workload
    with bit-identical results (vs. ground truth), seconds-fast."""
    dataset = _dataset()
    scheme = (
        DeterministicScheme(SecretKey.from_passphrase("perfsmoke"))
        if scheme_name == "tag-index"
        else SSEScheme(SecretKey.from_passphrase("perfsmoke"))
    )
    engine = _engine(dataset, scheme, backend=backend)
    try:
        workload = _workload(dataset)
        placement = "batched" if backend is None else "sharded"
        outcome = engine.execute_workload_with_rows(workload, placement=placement)
        attribute = dataset.attribute
        by_value = {}
        for relation in (dataset.partition.sensitive, dataset.partition.non_sensitive):
            for row in relation.rows:
                by_value.setdefault(row[attribute], []).append(row.rid)
        for value, (rows, _trace) in zip(workload, outcome):
            assert sorted(row.rid for row in rows) == sorted(by_value.get(value, []))
    finally:
        if engine.multi_cloud is not None:
            engine.multi_cloud.close()


def test_interned_retrievals_skip_scheme_recompute():
    """The perf contract of the interning tentpole: a repeated workload does
    scheme compute once per distinct bin pair — across batches and across the
    sequential path — while views/stats/transfers still accrue per query."""
    dataset = _dataset()
    scheme = CountingSSEScheme(SecretKey.from_passphrase("perfsmoke"))
    engine = _engine(dataset, scheme)
    workload = _workload(dataset, repeats=1)

    engine.execute_workload(workload, placement="batched")
    calls_first, trialed_first = scheme.search_calls, scheme.rows_trialed
    views_first = len(engine.cloud.view_log)
    assert calls_first > 0

    # the same workload again: zero additional cloud-side scheme compute...
    engine.execute_workload(workload, placement="batched")
    assert scheme.search_calls == calls_first
    assert scheme.rows_trialed == trialed_first
    # ...but every query still produced its own view and accounting
    assert len(engine.cloud.view_log) == 2 * views_first
    assert engine.cloud.stats.queries_served == 2 * views_first

    # the sequential path shares the same interned retrievals
    engine.query(workload[0])
    assert scheme.search_calls == calls_first


def test_interned_requests_and_view_templates_are_shared():
    """Steady-state queries reuse the same frozen request object per bin pair
    and the same view template per distinct request — identity, not equality,
    which is what makes the per-query cost a couple of dict probes."""
    dataset = _dataset(num_values=60)
    engine = _engine(
        dataset, DeterministicScheme(SecretKey.from_passphrase("perfsmoke"))
    )
    value = dataset.all_values[0]
    requests_one, _ = engine.build_requests([value])
    requests_two, _ = engine.build_requests([value])
    assert requests_one[0] is requests_two[0]

    engine.execute_workload([value, value], placement="batched")
    records = engine.cloud.view_log.records
    assert len(records) == 2
    (first_id, first_template), (second_id, second_template) = records[-2:]
    assert second_id == first_id + 1
    assert second_template is first_template

    # request halves are cached on the request (sharded splitting hot path)
    request = requests_one[0]
    assert request.sensitive_half() is request.sensitive_half()
    assert request.non_sensitive_half() is request.non_sensitive_half()


def test_warm_queries_retain_no_transfer_accounting():
    """Per-query accounting memory stays flat: a warm query counts its
    transfer in running totals instead of keeping a record of it, while
    the view log (the audit's input) still gains one record per query."""
    dataset = _dataset(num_values=60)
    engine = _engine(
        dataset, DeterministicScheme(SecretKey.from_passphrase("perfsmoke"))
    )
    values = list(dataset.all_values)
    for value in values:  # warm: every bin pair's retrieval is interned
        engine.query(value)
    queries = 3000
    views_before = len(engine.cloud.view_log)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for index in range(queries):
            engine.query(values[index % len(values)])
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename == network_module.__file__
    )
    assert retained < 4096, f"{retained} bytes retained by network.py"
    assert len(engine.cloud.view_log) == views_before + queries


def test_observation_snapshot_is_constant_time_shape():
    """Snapshots hold four plain values: no view or transfer copies, and a
    size that does not grow with how much the server observed."""
    dataset = _dataset(num_values=60)
    engine = _engine(
        dataset, DeterministicScheme(SecretKey.from_passphrase("perfsmoke"))
    )
    engine.execute_workload(_workload(dataset, repeats=2), placement="batched")
    one_pass = engine.cloud.observation_snapshot()
    engine.execute_workload(_workload(dataset, repeats=2), placement="batched")
    snapshot = engine.cloud.observation_snapshot()
    assert isinstance(snapshot.view_count, int)
    assert isinstance(snapshot.queries_issued, int)
    assert all(isinstance(value, int) for value in snapshot.stats)
    for direction, totals in snapshot.transfers:
        assert isinstance(direction, str)
        assert all(isinstance(value, (int, float)) for value in totals)
    assert len(snapshot.transfers) == len(one_pass.transfers)


VECTOR_SCHEMES = {
    "deterministic": "repro.crypto.deterministic:DeterministicScheme",
    "arx-index": "repro.crypto.arx_index:ArxIndexScheme",
    "non-deterministic": "repro.crypto.nondeterministic:NonDeterministicScheme",
    "sse": "repro.crypto.searchable:SSEScheme",
}


def _load_scheme(spec: str, key):
    import importlib

    module_name, _, class_name = spec.partition(":")
    return getattr(importlib.import_module(module_name), class_name)(key)


@pytest.mark.parametrize("scheme_name", sorted(VECTOR_SCHEMES))
def test_vector_schemes_take_the_batch_path(scheme_name):
    """Tripwire for the batch decryption hook: a full setup + workload must
    never fall back to the base class's scalar ``decrypt_rows_many`` loop
    (``scalar_fallback_calls``).  A refactor that silently loses the
    override fails here, not in a minutes-long benchmark run."""
    dataset = _dataset(num_values=120)
    scheme = _load_scheme(
        VECTOR_SCHEMES[scheme_name], SecretKey.from_passphrase("perfsmoke")
    )
    engine = _engine(dataset, scheme)
    engine.execute_workload(_workload(dataset, repeats=1), placement="batched")
    assert scheme.scalar_fallback_calls == 0
