"""Smoke test of the benchmark: every workload, at a tiny size, passes its
output checks and emits every metric named in BENCHMARK.json with its unit.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc, lines = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)


def test_report_digest_is_stable_across_runs():
    digests = []
    for seed in (1, 2):
        proc, lines = _bench("montecarlo-d50", 0, seed=seed)
        assert proc.returncode == 0, proc.stderr
        digests += [ln for ln in lines if ln.startswith("check report_digest_stable")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
