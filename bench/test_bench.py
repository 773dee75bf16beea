"""Smoke test of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import measure
import workloads

ROOT = workloads.ROOT
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_workload_completes_at_a_tiny_size(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli-small", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_sweep(job, outcome):
    """Change the area of the first valid row."""
    lines = job.output.read_text().split("\n")
    for i, line in enumerate(lines[1:], 1):
        value, phi, area, flag = line.split(",")
        if area != "nan":
            lines[i] = ",".join((value, phi, repr(float(area) * (1 + 1e-9)), flag))
            break
    job.output.write_text("\n".join(lines))


def _corrupt_sample(job, outcome):
    """Move the last point to the antipode: still on the sphere, outside the cap."""
    lines = job.output.read_text().split("\n")
    lines[-2] = ",".join(repr(-float(v)) for v in lines[-2].split(","))
    job.output.write_text("\n".join(lines))


def _corrupt_topology(job, outcome):
    outcome.value[0].points[0] *= -1.0


def _corrupt_coverage(job, outcome):
    doc = json.loads(outcome.stdout)
    doc["vertex_angle_rad"] += 1e-8
    outcome.stdout = json.dumps(doc)


CORRUPTIONS = {"sweep-grid": _corrupt_sweep, "sample-bulk": _corrupt_sample,
               "topology-churn": _corrupt_topology, "cli-small": _corrupt_coverage}


def _run_once(name, tmp_path, tamper):
    workload = workloads.build(name, 3, tmp_path, "tiny")
    execute = workloads.replay_cli if workload.cli else workloads.run_topology
    checker = measure.Checker(tamper)
    return measure.run_phase(workload, 0.0, execute, checker, time.perf_counter() + 60)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corrupted_output_counts_as_failed(name, tmp_path):
    assert _run_once(name, tmp_path, None).failures == []
    done = []

    def tamper_first(job, outcome):
        if not done and (name != "cli-small" or job.label.startswith("coverage")):
            done.append(job.label)
            CORRUPTIONS[name](job, outcome)

    phase = _run_once(name, tmp_path, tamper_first)
    assert len(phase.failures) == 1 and phase.failures[0].startswith(done[0])
    assert phase.attempted > 1


def test_output_of_the_wrong_type_counts_as_failed(tmp_path):
    def tamper(job, outcome):
        if job.label.startswith("coverage"):
            doc = json.loads(outcome.stdout)
            doc["vertex_angle_rad"] = "wide"
            outcome.stdout = json.dumps(doc)

    phase = _run_once("cli-small", tmp_path, tamper)
    assert len(phase.failures) == 6 and "TypeError" in phase.failures[0]


def test_same_inputs_with_other_bytes_count_as_failed(tmp_path):
    seen = set()

    def tamper_repeat(job, outcome):
        if job.label in seen:
            outcome.stdout += " "      # still valid JSON, but other bytes
        seen.add(job.label)

    workload = workloads.build("cli-small", 3, tmp_path, "tiny")
    workload.jobs, workload.stop_every = [workload.jobs[0]] * 2, 2
    phase = measure.run_phase(workload, 0.0, workloads.replay_cli, measure.Checker(tamper_repeat),
                              time.perf_counter() + 60)
    assert len(phase.failures) == 1 and "bytes differ" in phase.failures[0]


@pytest.mark.parametrize("n, percentile", [(5, 60.0), (20, 55.0), (100, 90.0),
                                           (20_000, 99.0)])
def test_tail_percentile_follows_the_sample_count(n, percentile):
    values = list(np.arange(n, dtype=float))
    value, got = measure.tail(values)
    assert got == pytest.approx(percentile)
    assert value == values[round(n * percentile / 100) - 1]   # nearest rank
