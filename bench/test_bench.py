"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Runs every workload cut down with ``--tiny``, untraced and traced, and
checks the output contract: the last line parses, its metrics are exactly
the ones BENCHMARK.json lists (with their units), every end-to-end metric
including the error and failure metrics is printed by name and unit, no
answer fails, and the traced run's self-checks pass.  A copy of the
benchmark without the sources beside it must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

PRINTED = {
    "setup_s": "s", "plt_s": "s", "intervals_s": "s", "simplex_s": "s", "direct_s": "s",
    "battery_runs_per_s": "runs/s", "reservoir_runs_per_s": "runs/s",
    "intervals_err": "probability", "simplex_err": "probability",
    "direct_err": "probability", "sim_err": "probability",
    "fail_rate": "ratio", "peak_rss_mb": "MB",
}


def run(cwd: Path, workload: str, trace: int, seed: int = 0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_metrics(stdout: str) -> dict:
    """name -> (value, unit) from the report lines before the result line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_contract(workload):
    proc = run(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    shown = printed_metrics(proc.stdout)
    assert {k: shown[k][1] for k in PRINTED if k in shown} == PRINTED
    assert shown["fail_rate"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_contract(workload):
    proc = run(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout     # includes bit-identical answers
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["transient.integrate_piece_calls"] == m["transient.cells"] > 0
    assert m["montecarlo.vegas_calls"] + m["transient.closed_form_cells"] == m["transient.cells"]
    assert m["trace.overhead_ratio"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
