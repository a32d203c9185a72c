"""The benchmark's four workloads: seeded data, operation streams, oracle.

Everything a run sends is generated here from the ``--seed`` argument; the
program only ever receives these generated inputs.  The plaintext oracle is
built from the same generated relations, independently of the program, and
checks every answer by payload multiset.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.partition import SensitivityPolicy
from repro.data.relation import Row
from repro.workloads.generator import (
    SyntheticDataset,
    derive_stream_seed,
    generate_partitioned_dataset,
    generate_query_stream,
)

#: the tenants the workload's traffic goes to
TENANTS = ("tenant-a", "tenant-b")
#: a third tenant with tenant-a's data: the read-only workloads send it a
#: thin stream of inserts, so write latency is measured under their load
#: while the audited tenants stay read-only
PROBE_TENANT = "tenant-probe"
#: the searchable attribute every generated relation is binned on
ATTRIBUTE = "key"
#: generated rows carry payloads "s-payload-<value>-<i>" (sensitive) or
#: "ns-payload-<value>-<i>"; inserted rows carry the same marker and a
#: suffix unique to the insert
SENSITIVE_MARKER = "s-"


def is_sensitive_payload(row: Row) -> bool:
    """The policy's row predicate: service inserts arrive unflagged, so
    without it every insert would be classified non-sensitive."""
    return str(row.get("payload", "")).startswith(SENSITIVE_MARKER)


def policy() -> SensitivityPolicy:
    return SensitivityPolicy(use_row_flags=True, row_predicate=is_sensitive_payload)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the data it runs on.

    ``rate`` is the fixed offered load of the open-loop windows in
    operations per second, frozen from the seed run at about a third of the
    service's capacity on that mix, so queueing stays short and the
    latencies measure the request path rather than the backlog.
    ``prewarm`` queries every value once before any load, so the caches are
    warm from the first measured request.  ``batch`` and ``batch_inserts``
    shape the fleet's closed loop.
    """

    name: str
    kind: str  # "service" or "fleet"
    num_values: int
    tuples_per_value: int
    skew: Optional[float]
    mix: str
    write_fraction: float
    rate: float = 0.0
    prewarm: bool = False
    batch: int = 200
    batch_inserts: int = 10

    def toy(self) -> "Workload":
        """A seconds-fast version with the same shape (smoke tests)."""
        return dataclasses.replace(
            self, num_values=200, rate=min(self.rate, 150.0), batch=40, batch_inserts=4,
        )


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="svc_small", kind="service", num_values=5000,
            tuples_per_value=4, skew=None, mix="zipf", write_fraction=0.0,
            rate=150.0, prewarm=True,
        ),
        Workload(
            name="svc_padded", kind="service", num_values=5000,
            tuples_per_value=4, skew=1.1, mix="zipf", write_fraction=0.0,
            rate=40.0,
        ),
        Workload(
            name="svc_rw", kind="service", num_values=5000,
            tuples_per_value=4, skew=None, mix="uniform", write_fraction=0.2,
            rate=60.0,
        ),
        Workload(
            name="fleet_sse", kind="fleet", num_values=5000,
            tuples_per_value=10, skew=None, mix="uniform", write_fraction=0.0,
        ),
    )
}


def stream_seed(seed: int, stream: str) -> int:
    return derive_stream_seed(seed, f"e2e|{stream}")


def tenant_dataset(workload: Workload, seed: int, tenant: str) -> SyntheticDataset:
    """The relation one tenant (or the fleet's owner) outsources."""
    return generate_partitioned_dataset(
        num_values=workload.num_values,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=workload.tuples_per_value,
        skew_exponent=workload.skew,
        seed=stream_seed(seed, f"data|{workload.name}|{tenant}"),
        attribute=ATTRIBUTE,
    )


# -- oracle -------------------------------------------------------------------------
#: (row count, sum of the rows' (key, payload) hashes): an order-free digest
#: of an answer's row multiset.  Payloads are unique per row, so a missing,
#: extra, duplicated or altered row changes it.  Answers are reduced to a
#: digest as they arrive, so a run never holds its answers in memory.
Digest = Tuple[int, int]
#: insert subsets tried per value by :meth:`Oracle.bounded`
MAX_PENDING_INSERTS = 16


def digest_pairs(pairs: Iterable[Tuple[object, object]]) -> Digest:
    count = total = 0
    for pair in pairs:
        count += 1
        total += hash(pair)
    return count, total


def digest_answer(rows: Sequence[Tuple[int, Dict[str, object]]], attribute: str) -> Digest:
    """Digest a service answer: ``(rid, values)`` pairs."""
    return digest_pairs((values.get(attribute), values.get("payload")) for _rid, values in rows)


def digest_rows(rows: Sequence[Row], attribute: str) -> Digest:
    """Digest a library answer: :class:`Row` objects."""
    return digest_pairs((row.values.get(attribute), row.values.get("payload")) for row in rows)


def _plus(a: Digest, b: Digest) -> Digest:
    return a[0] + b[0], a[1] + b[1]


class Oracle:
    """Plaintext answers for one relation, plus the inserts sent so far."""

    def __init__(self, dataset: SyntheticDataset):
        self.attribute = dataset.attribute
        pairs: Dict[object, List[Tuple[object, object]]] = {}
        for row in dataset.relation:
            value = row[self.attribute]
            pairs.setdefault(value, []).append((value, row["payload"]))
        self.base: Dict[object, Digest] = {v: digest_pairs(p) for v, p in pairs.items()}
        self.sensitive_values = sorted(dataset.sensitive_counts)
        self.non_sensitive_values = sorted(dataset.non_sensitive_counts)
        #: every value, in the generator's order: for skewed data that is
        #: descending multiplicity, so a Zipf query mix over it sends the
        #: most queries to the values with the most rows
        self.values = list(dataset.all_values)
        #: inserts sent (acknowledged or not) and acknowledged, per value
        self.sent: Dict[object, List[Digest]] = {}
        self.acked: Dict[object, Digest] = {}

    def exact(self, value: object, answer: Digest) -> bool:
        """Read-only check: the answer equals the relation's rows for value."""
        return answer == self.base.get(value, (0, 0))

    def bounded(self, value: object, answer: Digest) -> bool:
        """Concurrent-insert check: the answer is the base rows plus some
        subset of the inserts sent for the value."""
        base = self.base.get(value, (0, 0))
        extra = (answer[0] - base[0], answer[1] - base[1])
        sent = self.sent.get(value, [])
        if len(sent) > MAX_PENDING_INSERTS:
            raise ValueError(f"{len(sent)} inserts on {value!r}: too many to check")
        for mask in range(1 << len(sent)):
            chosen = (0, 0)
            for index, row in enumerate(sent):
                if mask >> index & 1:
                    chosen = _plus(chosen, row)
            if chosen == extra:
                return True
        return False

    def final(self, value: object, answer: Digest) -> bool:
        """After the run: base plus every acknowledged insert, each once."""
        return answer == _plus(self.base.get(value, (0, 0)), self.acked.get(value, (0, 0)))

    def note_insert(self, values: Dict[str, object], acknowledged: bool) -> None:
        value = values[self.attribute]
        row = digest_pairs([(value, values["payload"])])
        self.sent.setdefault(value, []).append(row)
        if acknowledged:
            self.acked[value] = _plus(self.acked.get(value, (0, 0)), row)


# -- operation streams -----------------------------------------------------------------
#: (tenant, op, payload); op is "query" (payload = (attribute, value)) or
#: "insert" (payload = (row values,))
Op = Tuple[str, str, tuple]


class OpStream:
    """An endless seeded stream of service operations for one workload,
    spread evenly over the tenants ``oracles`` names."""

    def __init__(self, workload: Workload, seed: int, phase: str, oracles: Dict[str, Oracle]):
        self._workload = workload
        self._oracles = oracles
        self._tenants = tuple(oracles)
        self._seed = seed
        self._rng = random.Random(stream_seed(seed, f"ops|{workload.name}|{phase}"))
        self._queries: Dict[str, List[object]] = {tenant: [] for tenant in oracles}
        self._chunks = 0
        self._phase = phase
        self._writes = 0
        if workload.write_fraction < 1:
            # the first chunk now, so a closed loop does not build it on the clock
            for tenant in self._tenants:
                self._refill(tenant)

    def _refill(self, tenant: str) -> None:
        self._chunks += 1
        stream = f"queries|{self._workload.name}|{self._phase}|{tenant}|{self._chunks}"
        self._queries[tenant].extend(reversed(generate_query_stream(
            self._oracles[tenant].values, 4096, mix=self._workload.mix,
            seed=stream_seed(self._seed, stream),
        )))

    def _next_value(self, tenant: str) -> object:
        if not self._queries[tenant]:
            self._refill(tenant)
        return self._queries[tenant].pop()

    def next(self) -> Op:
        tenant = self._tenants[self._rng.randrange(len(self._tenants))]
        oracle = self._oracles[tenant]
        if self._rng.random() < self._workload.write_fraction:
            self._writes += 1
            sensitive = self._rng.random() < 0.5
            # writes go to values already on the written side, so the
            # inserted row lands in an existing bin and is retrievable
            pool = oracle.sensitive_values if sensitive else oracle.non_sensitive_values
            value = pool[self._rng.randrange(len(pool))]
            marker = "s" if sensitive else "ns"
            row = {
                oracle.attribute: value,
                "payload": f"{marker}-payload-{value}-w{self._phase}.{self._writes}",
            }
            return tenant, "insert", (row,)
        return tenant, "query", (oracle.attribute, self._next_value(tenant))

    def take(self, count: int) -> List[Op]:
        return [self.next() for _ in range(count)]


def poisson_schedule(rate: float, duration: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) within ``duration``."""
    rng = random.Random(seed)
    offsets: List[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


def fleet_cycles(workload: Workload, seed: int, oracle: Oracle) -> Iterable[Tuple[List[object], List[Dict[str, object]]]]:
    """Endless (query batch, insert batch) pairs for the fleet's closed loop."""
    rng = random.Random(stream_seed(seed, f"cycles|{workload.name}"))
    cycle = 0
    while True:
        queries = generate_query_stream(
            oracle.values, workload.batch, mix=workload.mix,
            seed=stream_seed(seed, f"fleet-queries|{cycle}"),
        )
        inserts = []
        for index in range(workload.batch_inserts):
            value = oracle.sensitive_values[rng.randrange(len(oracle.sensitive_values))]
            inserts.append({
                oracle.attribute: value,
                "payload": f"s-payload-{value}-w{cycle}x{index}",
            })
        yield queries, inserts
        cycle += 1
