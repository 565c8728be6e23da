"""Smoke test of the benchmark itself: a tiny op list per workload, run once
untraced and once traced, in this process.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_and_no_errors(workload, trace, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    result = run.run_workload(workload, seed=7, seconds=0, trace=trace, smoke=True)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert result["failures"] == []
    assert result["error_rate"] == 0
    assert result["correct"]
    if trace:
        assert_wrappers_removed()


def assert_wrappers_removed():
    import demuskin
    from demuskin import class2_words, cli, demushkin_core, quotient_builder, zq_linalg

    assert not hasattr(class2_words.ClassTwoElement.__mul__, "__wrapped__")
    assert not hasattr(zq_linalg.Submodule.__dict__["rank"].fget, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    for module in (demuskin, cli, quotient_builder):
        assert module.invariants is demushkin_core.invariants
        assert not hasattr(module.invariants, "__wrapped__")


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
