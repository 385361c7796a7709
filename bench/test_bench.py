"""Smoke test of the benchmark itself: names, determinism, counts (quick runs, not measurements)."""

import json
import re

import pytest

from bench.pipeline import DECLARED_SECONDS
from bench.run import REPO_DIR, run_workload
from bench.workloads import WORKLOADS, generate

SPEC = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
#: Units of metrics that are counts of work, not times: the same seed must repeat them exactly.
COUNT_UNITS = {"count", "ratio", "B"}


def test_spec_lists_the_workloads_and_valid_names():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert SPEC["run_seconds"] == DECLARED_SECONDS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert generate(WORKLOADS[name], 1).digest() == generate(WORKLOADS[name], 1).digest()
    assert generate(WORKLOADS[name], 1).digest() != generate(WORKLOADS[name], 2).digest()


def _quick(name, trace, seed=1):
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = run_workload(name, seed=seed, seconds=0.3, trace=trace, quick=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in listed]
    return result["metrics"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_prints_exactly_the_end_to_end_metrics(name):
    _quick(name, trace=False)


def test_traced_run_prints_the_layer_metrics_and_repeats_every_count_exactly():
    # Every workload runs the same phases, so one workload's traced run covers the layer names.
    first, second = (_quick("serve_churn", trace=True, seed=3) for _ in range(2))
    counts = [key for key, metric in first.items() if metric["unit"] in COUNT_UNITS]
    assert len(counts) >= 12
    assert {key: first[key]["value"] for key in counts} == {key: second[key]["value"] for key in counts}
