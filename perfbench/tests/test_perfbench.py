"""Tests of the benchmark itself (tiny sizes; run with pytest).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import Context, SpeedSampler, run_serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_end_to_end_metric(workload):
    line = last_json(bench("--workload", workload, "--seed", "3",
                           "--seconds", "0.5", "--trace", "0",
                           "--scale", "tiny"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "mixed", "--seed", "3", "--seconds", "0.5",
                 "--trace", "1", "--scale", "tiny")
    line = last_json(proc)
    assert line["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert "tracing overhead" in proc.stdout
    values = {k: v["value"] for k, v in line["metrics"].items()}
    # a mixed round exercises the collectors, the lake and the reads
    for name in ("cloudsim.advisor_s", "lake.append_s", "storage.commit_s",
                 "serving.rounds.n", "federated.query_s"):
        assert values[name] > 0, name


def test_layer_self_time_never_exceeds_span_duration(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with SpeedSampler() as speed:
            result = run_serve(Context(seed=5, seconds=0.3, scale="tiny",
                                       workdir=tmp_path, speed=speed,
                                       tracer=tracer))
    finally:
        tracer.uninstall()
    assert all(result.checks.values())
    times = tracer.self_times()
    for name, entry in times.items():
        assert entry["self_s"] <= entry["total_s"] + 1e-9, name
    # self times of every span add up to the root spans' durations
    basis = sum(end - start for _n, start, end, _p, _o in tracer.roots())
    attributed = sum(e["self_s"] for e in times.values())
    assert attributed == pytest.approx(basis, rel=1e-6)
    # every request through the frontend waited in its queue once
    assert times["frontend.wait"]["count"] == times["request"]["count"]


def test_self_time_clips_overlapping_children():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1, "r"],
                    ["a", 1.0, 4.0, 0, "r"],
                    ["b", 3.0, 6.0, 0, "r"],
                    ["c", 9.0, 12.0, 0, "r"]]
    times = tracer.self_times()
    # children cover [1, 6] and [9, 10] of the root's [0, 10]
    assert times["root"]["self_s"] == pytest.approx(4.0)
    assert times["a"]["self_s"] == pytest.approx(3.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "serve", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_trajectory_appends(tmp_path):
    log = BENCH / "out" / "trajectory.jsonl"
    before = log.read_text(encoding="utf-8").count("\n") \
        if log.exists() else 0
    last_json(bench("--workload", "serve", "--seed", "4", "--seconds",
                    "0.2", "--trace", "0", "--scale", "tiny"))
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == before + 1
    stamp = json.loads(lines[-1])["stamp"]
    for key in ("python", "numpy", "nproc", "src_sha256", "git_rev",
                "seed"):
        assert key in stamp
    assert stamp["seed"] == 4
