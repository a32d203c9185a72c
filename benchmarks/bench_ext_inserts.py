"""Full-version insert experiment — cost of inserts under QB.

Measures the three insert regimes the full version discusses:

* inserting tuples whose value already exists in the bins (cheap: encrypt and
  append);
* inserting previously unseen values (cheap while a free slot remains: one
  slot assignment; a value that finds none forces a re-binning);
* a full re-binning (expensive: rebuild and re-outsource).  Re-binnings come
  only from exhausted capacity or an explicit ``engine.rebin()`` call; the
  row timed here is an explicit one.

Every insert takes the library's one write path:
``engine.insert(partition.insert(values, sensitive))``.

The shape to reproduce: in-place inserts are orders of magnitude cheaper than
a re-bin, and queries remain correct across all regimes.
"""

import time

from repro.workloads.generator import generate_partitioned_dataset

from benchmarks.helpers import build_qb_engine, print_table


def dataset():
    return generate_partitioned_dataset(
        num_values=120,
        sensitivity_fraction=0.4,
        association_fraction=0.5,
        tuples_per_value=2,
        seed=83,
    )


def insert(engine, values, sensitive):
    """Insert one row; returns whether the engine had to re-bin."""
    layout = engine.layout
    engine.insert(engine.partition.insert(values, sensitive=sensitive))
    return engine.layout is not layout


def insert_existing(engine, data, count=30):
    """Alternate sensitive and cleartext rows, each under a value its own
    side already holds."""
    sides = {True: list(data.sensitive_counts), False: list(data.non_sensitive_counts)}
    start = time.perf_counter()
    rebins = 0
    for index in range(count):
        sensitive = index % 2 == 0
        value = sides[sensitive][index % len(sides[sensitive])]
        rebins += insert(
            engine, {"key": value, "payload": f"ins{index}"}, sensitive=sensitive
        )
    return (time.perf_counter() - start) / count, rebins


def insert_new_values(engine, count=20):
    start = time.perf_counter()
    rebins = 0
    for index in range(count):
        rebins += insert(
            engine, {"key": f"fresh-{index}", "payload": "x"}, sensitive=(index % 2 == 0)
        )
    return (time.perf_counter() - start) / count, rebins


def force_rebin(engine):
    start = time.perf_counter()
    engine.rebin()
    return time.perf_counter() - start


def run_experiment():
    data = dataset()
    engine = build_qb_engine(data.partition, data.attribute, seed=31)
    existing_cost, existing_rebins = insert_existing(engine, data)
    new_value_cost, new_value_rebins = insert_new_values(engine)
    rebin_cost = force_rebin(engine)
    return (
        data, engine, existing_cost, existing_rebins,
        new_value_cost, new_value_rebins, rebin_cost,
    )


def test_insert_costs_under_qb(benchmark):
    (
        data, engine, existing_cost, existing_rebins,
        new_value_cost, new_value_rebins, rebin_cost,
    ) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_table(
        "Insert cost under QB (per operation)",
        ["operation", "ms"],
        [
            ("insert, value already binned", f"{existing_cost * 1e3:.3f}"),
            ("insert, new value (placed, or forced re-bin)",
             f"{new_value_cost * 1e3:.3f}"),
            ("full re-binning + re-outsourcing", f"{rebin_cost * 1e3:.3f}"),
        ],
    )
    print(
        f"  inserts absorbed: 50, re-binnings forced by full bins: "
        f"{existing_rebins + new_value_rebins}, explicit: 1"
    )

    # Shape: incremental inserts are much cheaper than a full re-bin, and the
    # data stays queryable and correct after all of them.
    assert existing_rebins == 0
    assert existing_cost < rebin_cost
    assert new_value_cost < rebin_cost
    assert len(engine.query("fresh-0")) == 1
    sample_value = data.all_values[0]
    expected = {
        row.rid
        for row in data.partition.sensitive.rows + data.partition.non_sensitive.rows
        if row[data.attribute] == sample_value
    }
    assert {row.rid for row in engine.query(sample_value)} == expected
