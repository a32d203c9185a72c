"""Per-layer metrics and the per-request ledger, computed from spans.

The spans come from :mod:`benchmarks.e2e.trace` (one exported list per
process).  A span's *self* time is its wall duration minus the part of that
interval its children cover (children may run on other threads, so the
covered part is the union of their intervals); its *busy* time is the
calling thread's CPU time minus that of its same-thread children, and its
*wait* time is self time minus busy time — time the thread spent blocked on
the interpreter lock, another lock, or I/O inside that layer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: span name -> layer, for spans recorded in the program's process
PROGRAM_LAYERS: Dict[str, str] = {
    "FrameChannel.send_message": "service.server",
    "FrameChannel.recv_message": "service.server",
    "SocketConnection.send_bytes": "service.server",
    "TenantSession.execute": "service.tenants",
    "DBOwner.query": "owner.db_owner",
    "DBOwner.insert": "owner.db_owner",
    "DBOwner.insert_many": "owner.db_owner",
    "QueryBinningEngine.query_with_trace": "core.engine",
    "QueryBinningEngine.request_for_decision": "core.engine",
    "QueryBinningEngine.build_requests": "core.engine",
    "QueryBinningEngine.execute_workload_with_rows": "core.engine",
    "QueryBinningEngine.insert": "core.engine",
    "QueryBinningEngine.insert_many": "core.engine",
    "BinRetriever.retrieve": "core.engine",
    "merge_results": "query.merge",
    "group_rows_by_value": "query.merge",
    "CloudServer.serve": "cloud.server",
    "CloudServer.process_batch": "cloud.server",
    "CloudServer.append_sensitive": "cloud.server",
    "CloudServer.register_non_sensitive_row": "cloud.server",
    "MultiCloud.process_batch": "cloud.multi_cloud",
    "MultiCloud.append_sensitive_sharded": "cloud.multi_cloud",
    "scheme.tokens_for_values": "crypto",
    "scheme.search": "crypto",
    "scheme.decrypt_rows": "crypto",
    "scheme.encrypt_rows": "crypto",
    "scheme.make_fake_rows": "crypto",
}
#: the load generator's end of the wire
CLIENT_LAYERS: Dict[str, str] = {
    "FrameChannel.send_message": "service.client",
    "FrameChannel.recv_message": "service.client",
    "SocketConnection.send_bytes": "service.client",
}
LAYER_ORDER = (
    "service.client", "service.server", "service.tenants", "owner.db_owner",
    "core.engine", "query.merge", "cloud.server", "cloud.multi_cloud", "crypto",
)
#: the layers that hold and search the data, whichever front end calls them;
#: everything else an operation waits for is its front end
DATA_LAYERS = {
    "owner.db_owner": "owner", "core.engine": "engine", "query.merge": "merge",
    "cloud.server": "cloud", "cloud.multi_cloud": "fleet", "crypto": "crypto",
}

#: a ledger row: (layer, calls, busy ms, wait ms, failures), all per request
LedgerRow = Tuple[str, float, float, float, float]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered, cursor = 0.0, float("-inf")
    for low, high in sorted(intervals):
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered


class Spans:
    """One process's exported spans with derived self/busy times.

    ``phases`` selects the spans that the query methods see (all of them
    when ``None``); self times are computed over every span either way.
    """

    def __init__(self, rows: List[list], phases: Optional[Sequence[str]] = None):
        (self.name, self.process, self.phase, self.start, self.end, self.cpu,
         self.parent, self.thread, self.key, self.size, self.out,
         self.failed) = (list(column) for column in zip(*rows)) if rows else (
            [[] for _ in range(12)]
        )
        count = len(self.name)
        self.children: List[List[int]] = [[] for _ in range(count)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self.children[parent].append(index)
        self.self_wall = [0.0] * count
        self.busy = [0.0] * count
        for index in range(count):
            self.self_wall[index], self.busy[index] = self._own(index)
        self.weight = self._weights()
        self.selected = [
            index for index in range(count)
            if phases is None or self.phase[index] in phases
        ]
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        for index in self.selected:
            self.by_name[self.name[index]].append(index)

    def _own(self, index: int) -> Tuple[float, float]:
        start, end = self.start[index], self.end[index]
        covered = _union(
            (max(start, self.start[child]), min(end, self.end[child]))
            for child in self.children[index]
        )
        same_thread_cpu = sum(
            self.cpu[child] for child in self.children[index]
            if self.thread[child] == self.thread[index]
        )
        wall = max(0.0, end - start - covered)
        return wall, min(wall, max(0.0, self.cpu[index] - same_thread_cpu))

    def _weights(self) -> List[float]:
        """Each span's share of its root's wall clock.

        Children fanned out to other threads run side by side with each
        other and with their parent's own children, so their times add up
        to more than the wall time they cover.  A span's children are
        scaled by (union of their intervals) / (sum of their durations) —
        1 when they ran one after another — which makes the ledger's
        per-layer times add up to wall time instead of to CPU-seconds
        across threads.
        """
        weight = [1.0] * len(self.name)
        stack = [index for index, parent in enumerate(self.parent) if parent < 0]
        while stack:
            index = stack.pop()
            children = self.children[index]
            total = sum(self.duration(c) for c in children)
            share = _union((self.start[c], self.end[c]) for c in children) / total if total else 1.0
            for child in children:
                weight[child] = weight[index] * share
                stack.append(child)
        return weight

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def durations(self, *names: str) -> List[float]:
        return [self.duration(i) for name in names for i in self.by_name.get(name, ())]

    def self_times(self, *names: str) -> List[float]:
        return [self.self_wall[i] for name in names for i in self.by_name.get(name, ())]

    def wall_share(self, *names: str) -> float:
        """Summed durations, weighted by wall-clock share."""
        return sum(
            self.weight[i] * self.duration(i) for name in names for i in self.by_name.get(name, ())
        )

    def count(self, *names: str) -> int:
        return sum(len(self.by_name.get(name, ())) for name in names)

    def total_size(self, *names: str) -> float:
        return sum(self.size[i] for name in names for i in self.by_name.get(name, ()))

    def child_sum(self, index: int, name: str, field: str = "duration") -> float:
        total = 0.0
        for child in self.children[index]:
            if self.name[child] == name:
                total += self.size[child] if field == "size" else self.duration(child)
        return total


def ledger(
    tables: Iterable[Tuple[Spans, Dict[str, str]]],
    requests: int,
    mean_latency_s: float,
    queue_wait_s: float = 0.0,
    generator_wait_s: float = 0.0,
) -> List[LedgerRow]:
    """Per-request (layer, calls, busy ms, wait ms, failures) rows.

    ``queue_wait_s`` is the total time requests sat in the admission queue,
    charged to ``service.server`` as wait; ``generator_wait_s`` the total
    time the load generator sent late, which the latency (timed from when
    each request was due) also contains.  The last row is the unattributed
    remainder of ``mean_latency_s``: wire, kernel, scheduling, and anything
    between traced calls.
    """
    calls: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    wait: Dict[str, float] = defaultdict(float)
    failed: Dict[str, float] = defaultdict(float)
    for spans, layers in tables:
        for index in spans.selected:
            layer = layers.get(spans.name[index])
            if layer is None:
                continue
            weight = spans.weight[index]
            calls[layer] += 1
            busy[layer] += weight * spans.busy[index]
            wait[layer] += weight * (spans.self_wall[index] - spans.busy[index])
            failed[layer] += spans.failed[index]
    wait["service.server"] += queue_wait_s
    wait["load.generator"] += generator_wait_s
    per = max(1, requests)
    rows = [
        (layer, calls[layer] / per, 1e3 * busy[layer] / per,
         1e3 * wait[layer] / per, failed[layer] / per)
        for layer in ("load.generator",) + LAYER_ORDER
    ]
    attributed = sum(row[2] + row[3] for row in rows)
    rows.append(("unattributed", 0.0, 1e3 * mean_latency_s - attributed, 0.0, 0.0))
    return rows


def format_ledger(rows: List[LedgerRow], title: str) -> str:
    lines = [
        title,
        f"  {'layer':<18}{'calls/req':>10}{'busy ms':>10}{'wait ms':>10}{'fail/req':>10}",
    ]
    for layer, calls, busy, wait, failed in rows:
        lines.append(
            f"  {layer:<18}{calls:>10.2f}{busy:>10.4f}{wait:>10.4f}{failed:>10.4f}"
        )
    return "\n".join(lines)


def layer_metrics(rows: List[LedgerRow]) -> Dict[str, float]:
    """Each data layer's self time per operation, and the front end's.

    The front end is the rest of an operation's mean latency: for the
    service the generator, the wire, admission, the queue and dispatch;
    for the library the caller's own loop.
    """
    total_ms = sum(row[2] + row[3] for row in rows)
    metrics = {}
    data_ms = 0.0
    for layer, _calls, busy, wait, _failed in rows:
        short = DATA_LAYERS.get(layer)
        if short is not None:
            data_ms += busy + wait
            metrics[f"{short}.self_us_per_op"] = 1e3 * (busy + wait)
    metrics["frontend.us_per_op"] = 1e3 * (total_ms - data_ms)
    return metrics


def program_metrics(spans: Spans, queries: int, served: int) -> Dict[str, float]:
    """The per-layer metrics recorded inside the program's process.

    ``queries`` is the number of selection queries the phase answered and
    ``served`` the number of requests the cloud servers handled.
    """
    per_query = max(1, queries)
    roots = spans.wall_share(
        "TenantSession.execute", "QueryBinningEngine.execute_workload_with_rows",
        "DBOwner.insert_many",
    )
    member_time: Dict[str, float] = defaultdict(float)
    for index in spans.by_name.get("CloudServer.process_batch", ()):
        if spans.key[index] is not None and spans.parent[index] >= 0:
            member_time[spans.key[index]] += spans.duration(index)
    merge_in = spans.total_size("merge_results")
    merge_out = sum(spans.out[i] for i in spans.by_name.get("merge_results", ()))
    return {
        "tenant.execute_self_us.p50": 1e6 * median(spans.self_times("TenantSession.execute")),
        "owner.insert_ms.p50": 1e3 * median(spans.durations("DBOwner.insert", "DBOwner.insert_many")),
        "engine.query_self_us.p50": 1e6 * median(spans.self_times("QueryBinningEngine.query_with_trace")),
        "engine.retrieve_us.p50": 1e6 * median(spans.durations("BinRetriever.retrieve")),
        "engine.rewrite_us.p50": 1e6 * median(spans.self_times("QueryBinningEngine.request_for_decision")),
        "engine.token_calls_per_query": spans.count("scheme.tokens_for_values") / per_query,
        "engine.token_us.p50": 1e6 * median(spans.durations("scheme.tokens_for_values")),
        "engine.insert_us.p50": 1e6 * median(
            spans.self_times("QueryBinningEngine.insert", "QueryBinningEngine.insert_many")
        ),
        "engine.batch_self_ms.p50": 1e3 * median(
            spans.self_times("QueryBinningEngine.execute_workload_with_rows")
        ),
        "merge.us.p50": 1e6 * median(spans.durations("merge_results")),
        "merge.rows_in_per_row_out": merge_in / merge_out if merge_out else 0.0,
        "merge.group_ms.p50": 1e3 * median(spans.durations("group_rows_by_value")),
        "cloud.serve_self_us.p50": 1e6 * median(spans.self_times("CloudServer.serve")),
        "cloud.compute_per_query": spans.count("scheme.search") / max(1, served),
        "cloud.append_us.p50": 1e6 * median(
            spans.durations("CloudServer.append_sensitive", "CloudServer.register_non_sensitive_row")
        ),
        "cloud.member_batch_ms.p50": 1e3 * median(list(
            spans.duration(i) for i in spans.by_name.get("CloudServer.process_batch", ())
            if spans.parent[i] >= 0 and spans.name[spans.parent[i]] == "MultiCloud.process_batch"
        )),
        "crypto.search_us.p50": 1e6 * median(spans.durations("scheme.search")),
        "crypto.search_share": spans.wall_share("scheme.search") / roots if roots else 0.0,
        "crypto.decrypt_us.p50": 1e6 * median(spans.durations("scheme.decrypt_rows")),
        "crypto.decrypt_calls_per_query": spans.count("scheme.decrypt_rows") / per_query,
        "crypto.encrypt_us.p50": 1e6 * median(
            spans.durations("scheme.encrypt_rows", "scheme.make_fake_rows")
        ),
        "fleet.batch_self_ms.p50": 1e3 * median(spans.self_times("MultiCloud.process_batch")),
        "fleet.member_balance": (
            max(member_time.values()) / (sum(member_time.values()) / len(member_time))
            if member_time else 0.0
        ),
        "fleet.append_ms.p50": 1e3 * median(spans.durations("MultiCloud.append_sensitive_sharded")),
    }


def setup_metrics(spans: Spans, setups: int) -> Dict[str, float]:
    """Set-up time split into encryption and storing, per set-up."""
    per = max(1, setups)
    encrypt = 0.0
    for name in ("scheme.encrypt_rows", "scheme.make_fake_rows"):
        for index in spans.by_name.get(name, ()):
            parent = spans.parent[index]
            # make_fake_rows encrypts through encrypt_rows: count the outer call
            if parent >= 0 and spans.name[parent] == "scheme.make_fake_rows":
                continue
            encrypt += spans.duration(index)
    store = sum(spans.durations("CloudServer.store", "MultiCloud.store"))
    return {"setup.encrypt_s": encrypt / per, "setup.store_s": store / per}


def wire_metrics(server: Spans, client: Spans) -> Tuple[Dict[str, float], float]:
    """The service's wire, admission and queue metrics (both processes),
    and the total time requests waited in the admission queue."""
    received: Dict[str, float] = {}
    decode: List[float] = []
    for index in server.by_name.get("FrameChannel.recv_message", ()):
        key = server.key[index]
        if key is not None:
            received[key] = server.end[index]
            decode.append(server.self_wall[index])
    encode, send, size, service, queue = [], [], [], [], []
    for index in server.by_name.get("FrameChannel.send_message", ()):
        key = server.key[index]
        if key is None:
            continue
        encode.append(server.self_wall[index])
        send.append(server.child_sum(index, "SocketConnection.send_bytes"))
        size.append(server.child_sum(index, "SocketConnection.send_bytes", "size"))
        service.append(server.out[index])
        if key in received:
            queue.append(max(0.0, server.start[index] - received[key] - server.out[index]))
    return {
        "client.encode_us.p50": 1e6 * median(client.durations("FrameChannel.send_message")),
        "server.decode_us.p50": 1e6 * median(decode),
        "server.queue_wait_ms.p50": 1e3 * median(queue),
        "server.queue_wait_ms.p99": 1e3 * percentile(queue, 0.99),
        "server.service_ms.p50": 1e3 * median(service),
        "server.service_ms.p99": 1e3 * percentile(service, 0.99),
        "server.encode_us.p50": 1e6 * median(encode),
        "server.send_us.p50": 1e6 * median(send),
        "server.response_kb.p50": median(size) / 1024.0,
    }, sum(queue)


def coverage(spans: Spans, root_names: Sequence[str], denominator_s: float) -> float:
    """Layer self time inside the given roots over ``denominator_s``.

    Self times are weighted by wall-clock share (see :meth:`Spans._weights`),
    so this is close to 1 when the traced layers account for the measured
    service (or batch) time, and low when work happens outside them.
    """
    if denominator_s <= 0:
        return 0.0
    total = 0.0
    stack = [i for name in root_names for i in spans.by_name.get(name, ())]
    while stack:
        index = stack.pop()
        if spans.name[index] in PROGRAM_LAYERS:
            total += spans.weight[index] * spans.self_wall[index]
        stack.extend(spans.children[index])
    return total / denominator_s
