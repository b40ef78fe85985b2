"""Tests of the benchmark itself: run with `python3 -m pytest benchmarks/tests -q`."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as R  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=False)


def _small(name: str, count: int) -> W.Workload:
    w = W.WORKLOADS[name]
    return dataclasses.replace(w, inputs=lambda seed: w.inputs(seed)[:count])


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == R.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == T.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    w = _small(name, 12)
    first, second = (R.measure_traced(w, seed=5) for _ in range(2))
    other = R.measure_traced(w, seed=6)
    for res in (first, second, other):
        assert res["failures"] == []
        assert set(res["metrics"]) == set(T.PER_LAYER_UNITS)
    exact = [k for k, unit in T.PER_LAYER_UNITS.items() if unit in ("count", "ratio")]
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["fallback_rate"] == second["fallback_rate"]


def test_hunt_reproduces_the_roadmap_baseline():
    res = R.measure_traced(W.WORKLOADS["hunt-2c7"], seed=0)
    assert res["failures"] == []
    assert res["baseline_diff"] == {}
    assert res["fallback_rate"] == 603 / 2798


def test_checks_reject_wrong_outputs():
    g6 = W.allpairs_inputs(3)[0]["g6"]
    rc, out, err = W.call_cli(*W.allpairs_call({"g6": g6}))
    assert W.allpairs_check({"g6": g6}, rc, out).ok
    certs = [json.loads(line) for line in out.splitlines()]
    certs[0]["tauA"] += 1
    bad = "\n".join(json.dumps(c) for c in certs)
    assert not W.allpairs_check({"g6": g6}, rc, bad).ok
    assert not W.allpairs_check({"g6": g6}, 3, out).ok

    line = W.verify_inputs(3)[1]
    rc, out, _ = W.call_cli(*W.verify_call(line))
    assert W.verify_check(line, rc, out).ok
    assert not W.verify_check({**line, "expect": not line["expect"]}, rc, out).ok


def test_result_line_follows_the_spec():
    proc = _run(["--workload", "hunt-2c7", "--seed", "2", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(R.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert proc.stdout.startswith("env ")


def test_refuses_to_run_with_taupart_max_n():
    proc = _run(["--workload", "hunt-2c7", "--seed", "1", "--seconds", "1"],
                env={**os.environ, "TAUPART_MAX_N": "12"})
    assert proc.returncode == 2
    assert "{" not in proc.stdout


def test_fails_without_the_taupart_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "hunt-2c7", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
