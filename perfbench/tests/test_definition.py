"""BENCHMARK.json stays within the benchmark contract and matches run.py."""

import json
import os

import pytest

from perfbench import stats

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_keys(definition):
    assert set(definition) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert definition["command"] == ["python3", "perfbench/run.py"]
    assert definition["paths"] == ["perfbench"]
    assert 1 <= definition["run_seconds"] <= 60


def test_metric_names_and_units(definition):
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in definition[group]]
    names += [w["name"] for w in definition["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert stats.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64 and name[0].isalnum()
    for group in ("end_to_end", "per_layer"):
        for metric in definition[group]:
            assert metric["better"] in ("lower", "higher")
            assert stats.METRIC_NAME.fullmatch(metric["unit"].replace("/", "").replace("%", "x"))


def test_end_to_end_bounds(definition):
    by_name = {m["name"]: m for m in definition["end_to_end"]}
    assert by_name["setup_s"]["unit"] == "s"
    assert by_name["setup_s"]["better"] == "lower"
    bounds = [m["bound"] for m in definition["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert by_name["setup_s"]["bound"] == max(bounds)


def test_workloads_match_the_runner(definition):
    from perfbench import run

    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) | set(run.WITHHELD) == set(run.RUNNERS)
    assert not set(run.WORKLOADS) & set(run.WITHHELD)
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_training_layer_names_are_declared(definition):
    from perfbench import run

    declared = {m["name"] for m in definition["per_layer"]}
    assert set(run.TRAIN_LAYERS) <= declared
    # The online layers belong to the withheld workload; declared with it.
    assert not set(run.ONLINE_LAYERS) & declared
