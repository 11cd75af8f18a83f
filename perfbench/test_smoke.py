"""Smoke test of the benchmark itself on the mini corpus scale.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload, in both modes, and that a failing command lowers the
success rate and marks the run incorrect.
"""

import dataclasses
import json

import pytest

import run as bench


def _result(tmp_path, workload, trace):
    result, record = bench.benchmark(workload, seed=3, seconds=0, trace=trace,
                                     scale=bench.MINI_SCALE, work=tmp_path)
    return result, record


def test_benchmark_json_matches_definitions():
    on_disk = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == bench.benchmark_json()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(tmp_path, workload, trace):
    result, record = _result(tmp_path, workload, trace)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"], record["commands"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["provenance"]["src_lines"] > 0
    assert record["digests"] or workload == "cold_pipeline" and not trace
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_failing_command_lowers_success_rate(tmp_path, monkeypatch):
    base = bench.WORKLOADS["cold_pipeline"]

    def with_failure(d):
        # the learned family without --model exits with a data error
        return base.commands(d) + [
            ["describe", "--config", d.config, "--family", "learned", "--out", d.out("bad")]]

    monkeypatch.setitem(bench.WORKLOADS, "cold_pipeline",
                        dataclasses.replace(base, commands=with_failure))
    result, record = _result(tmp_path, "cold_pipeline", False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert record["error_rate"] == pytest.approx(1 / result["attempted"])
