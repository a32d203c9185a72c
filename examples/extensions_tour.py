#!/usr/bin/env python3
"""Tour of the full-version extensions: ranges, joins, inserts, multi-attribute.

Builds two small partitioned relations (employees and department budgets) and
exercises each extension on top of the core Query Binning engine.

Run with:  python examples/extensions_tour.py
"""

import random

from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.data.partition import SensitivityPolicy, partition_relation
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.extensions.joins import BinnedJoinExecutor
from repro.extensions.multi_attribute import MultiAttributeEngine
from repro.extensions.range_queries import RangeQueryExecutor


def build_engine(partition, attribute, seed):
    return QueryBinningEngine(
        partition=partition,
        attribute=attribute,
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(seed),
    ).setup()


def employees_partition():
    schema = Schema(
        [Attribute("dept"), Attribute("grade", dtype=int), Attribute("name")]
    )
    relation = Relation("employees", schema)
    departments = ["defense", "design", "it", "hr", "ops", "lab"]
    for index in range(36):
        dept = departments[index % len(departments)]
        relation.insert(
            {"dept": dept, "grade": index % 9, "name": f"emp{index}"},
            sensitive=(dept in {"defense", "lab"}),
        )
    return partition_relation(relation, SensitivityPolicy())


def budgets_partition():
    schema = Schema([Attribute("dept"), Attribute("budget", dtype=int)])
    relation = Relation("budgets", schema)
    for dept, budget, sensitive in [
        ("defense", 900, True),
        ("design", 300, False),
        ("it", 250, False),
        ("hr", 120, False),
        ("lab", 640, True),
    ]:
        relation.insert({"dept": dept, "budget": budget}, sensitive=sensitive)
    return partition_relation(relation, SensitivityPolicy())


def main() -> None:
    employees = employees_partition()
    budgets = budgets_partition()

    # 1. range queries ---------------------------------------------------------
    grade_engine = build_engine(employees, "grade", seed=1)
    executor = RangeQueryExecutor(grade_engine)
    rows, trace = executor.query_range(3, 5)
    print(
        f"Range query grade in [3, 5]: {trace.rows_returned} rows via "
        f"{trace.distinct_bin_pairs} distinct bin pairs "
        f"({trace.covered_values} covered values)"
    )

    # 2. equi-join on the binned attribute -------------------------------------
    left = build_engine(employees, "dept", seed=2)
    right = build_engine(budgets, "dept", seed=3)
    joined, join_trace = BinnedJoinExecutor(left, right).execute()
    print(
        f"Join employees ⋈ budgets on dept: {join_trace.output_rows} rows from "
        f"{join_trace.join_values_probed} join values"
    )
    sample = joined[0].as_dict()
    print(f"  sample joined row: {sample}")

    # 3. inserts ---------------------------------------------------------------------
    # The partition's policy splits each row; the engine places a new value
    # in a free slot of the bins, or rebins when none will do.
    layout = left.layout
    new_cfo = {"dept": "finance", "grade": 4, "name": "new-cfo"}
    left.insert(employees.insert(new_cfo, sensitive=True))
    left.insert(employees.insert({"dept": "design", "grade": 2, "name": "new-designer"}))
    print(
        f"Inserts absorbed: 2 "
        f"({'in place' if left.layout is layout else 'after a re-binning'}); "
        f"query for the new sensitive dept returns "
        f"{len(left.query('finance'))} row(s)"
    )
    left.rebin()
    print(
        f"  after an explicit re-binning: {len(left.query('finance'))} finance row(s), "
        f"{len(left.query('design'))} design rows"
    )

    # 4. multi-attribute search ---------------------------------------------------
    multi = MultiAttributeEngine(
        employees, ["dept", "grade"], permutation_seed=9
    ).setup()
    conjunctive = multi.conjunctive_query({"dept": "design", "grade": 7})
    print(
        f"Multi-attribute conjunctive query dept=design AND grade=7: "
        f"{[row['name'] for row in conjunctive]}"
    )
    print(f"  total owner metadata across attributes: {multi.total_metadata_bytes()} bytes")


if __name__ == "__main__":
    main()
