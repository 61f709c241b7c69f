"""Smoke test of the benchmark: on tiny inputs, every workload passes its
output checks and prints every metric of ``BENCHMARK.json`` with its unit.

    python3 -m pytest perfbench/test_perfbench.py -q

Each case starts its own Ray session; run the file alone, not next to a
timed benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def _assert_metrics(res: dict, spec: list, positive: bool) -> None:
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if positive:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _assert_metrics(_result(_run(ROOT, workload, 0)), BENCH["end_to_end"], positive=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_ledger(workload):
    res = _result(_run(ROOT, workload, 1))
    _assert_metrics(res, BENCH["per_layer"], positive=False)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # a layer whose wrapper stops firing reads 0 and its time moves elsewhere
    assert m["parse.ns_per_row"] > 0 and m["lookup.ns_per_row"] > 0
    if workload == "geo_hop":
        assert m["exchange.s"] > 0 and m["exchange.bucket.ns_per_row"] > 0
        assert m["exchange.reduce_fn.s"] > 0
    else:
        assert m["sink.files"] > 0 and m["route.ns_per_row"] > 0
        assert m["templates.ns_per_row"] > 0 and m["fanout.partials.ns_per_row"] > 0
        assert m["merge.driver_s"] > 0


def test_missing_trace_target_is_an_error(monkeypatch):
    from perfbench import tracing

    monkeypatch.setattr(tracing, "WORKER_TARGETS", tracing.WORKER_TARGETS + [
        ("fluent_plugin_geoip_ray.stages.enrich", "no_such_function", "x", None)])
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracing.check_targets()


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, a run must fail
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
