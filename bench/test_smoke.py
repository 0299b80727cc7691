"""Smoke test of the benchmark harness: every workload, both modes, tiny inputs.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = {"setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "ok_share"}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["day_report", "distributed_solve", "pooled_scale"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["workload"] == workload and record["seed"] == 3
    assert workload in {w["name"] for w in spec["workloads"]}
    if not trace:
        assert set(declared) == END_TO_END
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_counts():
    runs = [_bench("--workload", "distributed_solve", "--seed", "5", "--seconds", "0.5",
                   "--trace", "1", "--smoke") for _ in range(2)]
    counts = []
    for proc in runs:
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls") or k.startswith("codes.rounds")})
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    # run.py finds the package next to its own directory; a copy without src/ must refuse
    os.mkdir(tmp_path / "bench")
    copy = tmp_path / "bench" / "run.py"
    with open(os.path.join(HERE, "run.py")) as src, open(copy, "w") as dst:
        dst.write(src.read())
    proc = subprocess.run([sys.executable, str(copy), "--workload", "day_report", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
