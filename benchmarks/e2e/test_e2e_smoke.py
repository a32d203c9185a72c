"""Seconds-fast smoke test of the end-to-end benchmark.

Runs every workload at toy size, untraced and traced, and checks that each
metric ``BENCHMARK.json`` names is emitted and measured, that every answer
passed the oracle, and that the oracle rejects doctored answers.  The
default test run skips this file (see ``conftest.py`` here); run it by
naming it::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.workloads import WORKLOADS, Oracle, digest_answer, tenant_dataset

DEFINITIONS = json.loads(run.BENCHMARK_FILE.read_text())
TIME_UNITS = {"s", "ms", "us"}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in DEFINITIONS["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DEFINITIONS["end_to_end"])
    assert DEFINITIONS["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    outcome = run.run_workload(workload, seed=3, seconds=1.0, trace=trace, toy=True)
    assert outcome["correct"], outcome["details"]["problems"]
    assert outcome["attempted"] > 0 and outcome["failed"] == 0
    listed = DEFINITIONS["per_layer" if trace else "end_to_end"]
    values = outcome["values"]
    assert [m["name"] for m in listed if m["name"] not in values] == []
    # an end-to-end metric is never 0, and a per-layer time is measured on
    # every workload (a constant 0 would read the same on every run)
    for metric in listed:
        if not trace or metric["unit"] in TIME_UNITS:
            assert values[metric["name"]] > 0, metric["name"]


def test_oracle_flags_doctored_answers():
    dataset = tenant_dataset(WORKLOADS["svc_rw"].toy(), seed=3, tenant="tenant-a")
    oracle = Oracle(dataset)
    value = oracle.sensitive_values[0]
    answer = [
        (row.rid, dict(row.values)) for row in dataset.relation if row[oracle.attribute] == value
    ]

    def digest(rows):
        return digest_answer(rows, oracle.attribute)

    assert oracle.exact(value, digest(answer)) and oracle.bounded(value, digest(answer))

    altered = [(rid, dict(values)) for rid, values in answer]
    altered[0][1]["payload"] += "-tampered"
    for doctored in (answer[1:], answer + answer[:1], altered, []):
        assert not oracle.exact(value, digest(doctored))
        assert not oracle.bounded(value, digest(doctored))

    inserted = {oracle.attribute: value, "payload": f"s-payload-{value}-wextra"}
    oracle.note_insert(inserted, acknowledged=True)
    with_insert = answer + [(-1, inserted)]
    assert oracle.bounded(value, digest(answer)) and oracle.bounded(value, digest(with_insert))
    assert oracle.final(value, digest(with_insert)) and not oracle.final(value, digest(answer))
    # the same insert applied twice is not an acknowledged state
    assert not oracle.final(value, digest(with_insert + [(-2, inserted)]))
