"""Figure 6c — retrieval cost versus bin-size imbalance ‖SB| − |NSB‖.

The paper measures the average selection time for different bin-size choices
and finds the minimum when |SB| = |NSB| (≈ √|NS|).  The benchmark forces a
range of layouts over the same dataset — from very unbalanced (few, huge
non-sensitive bins) to balanced and back — and reports both the measured time
per query and the number of values/tuples retrieved.  The shape to reproduce:
the balanced layout retrieves the least and is (near-)fastest.
"""

import random
import time

from repro.workloads.generator import generate_partitioned_dataset

from benchmarks.helpers import build_qb_engine, print_table

NUM_VALUES = 400


def dataset():
    return generate_partitioned_dataset(
        num_values=NUM_VALUES,
        sensitivity_fraction=0.5,
        association_fraction=0.5,
        tuples_per_value=2,
        seed=61,
    )


#: Forced (number of sensitive bins, number of non-sensitive bins) layouts.
#: |NS| = 300 distinct non-sensitive values here, so widths are ~300/bins.
LAYOUTS = [(60, 5), (40, 8), (30, 10), (20, 15), (18, 17), (15, 20), (10, 30), (8, 40), (5, 60)]


def run_layout(data, layout):
    engine = build_qb_engine(data.partition, data.attribute, seed=9, force_layout=layout)
    sample = random.Random(2).sample(data.all_values, 40)
    start = time.perf_counter()
    # This figure reports *per-query* retrieval time, so each query is served
    # as its own cloud request.  The cloud's interned retrievals and the
    # owner's steady-state caches (per-bin tokens, memoised bin decisions)
    # apply under every placement — they are part of the system measured.
    traces = engine.execute_workload(sample, placement="sequential")
    elapsed = (time.perf_counter() - start) / len(sample)
    avg_values = sum(
        t.sensitive_values_requested + t.non_sensitive_values_requested for t in traces
    ) / len(traces)
    avg_rows = sum(t.total_rows_returned for t in traces) / len(traces)
    imbalance = abs(
        engine.layout.max_sensitive_bin_size - engine.layout.max_non_sensitive_bin_size
    )
    return imbalance, avg_values, avg_rows, elapsed


def test_figure6c_bin_size_effect(benchmark):
    data = dataset()

    results = benchmark.pedantic(
        lambda: [run_layout(data, layout) for layout in LAYOUTS], rounds=1, iterations=1
    )

    rows = [
        (
            f"{layout[0]}x{layout[1]}",
            imbalance,
            f"{avg_values:.1f}",
            f"{avg_rows:.1f}",
            f"{elapsed * 1e3:.2f}",
        )
        for layout, (imbalance, avg_values, avg_rows, elapsed) in zip(LAYOUTS, results)
    ]
    print_table(
        "Figure 6c: retrieval cost vs bin-size imbalance",
        ["layout (SBxNSB)", "| |SB|-|NSB| |", "values/query", "rows/query", "ms/query"],
        rows,
    )

    by_imbalance = sorted(results, key=lambda item: item[0])
    most_balanced = by_imbalance[0]
    most_skewed = by_imbalance[-1]
    # Shape: the balanced layout requests the fewest values and rows per query.
    assert most_balanced[1] <= most_skewed[1]
    assert most_balanced[2] <= most_skewed[2]
    # And the minimum request width over all layouts is achieved at (or next
    # to) the most balanced configuration.
    min_values = min(item[1] for item in results)
    assert most_balanced[1] <= min_values * 1.25
