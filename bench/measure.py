"""One workload in one worker process: set up, say "ready", run, report.

run.py starts a worker (worker.py) once per set-up measurement (with
``--setup-only``) and once for the measured run.  The last line of standard
output is a JSON object with the run's numbers.

Untraced run: CLI workloads run each job in a fresh interpreter, as a user
does, through the worker's launcher; topology-churn calls the library.
Traced run: CLI jobs are replayed in-process through ``sagindome.cli.main``,
first untraced and then with every public function wrapped in a span, so
the two phases give the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy

import checks
import tracing
import workloads
from launcher import Launcher

ROOT = workloads.ROOT
HARD_LIMIT_S = 140        # a run stops here whatever --seconds says
STARTUP_PROBES = 5
UNTRACED_SHARE = 0.4      # of --seconds, in a traced run; the traced phase gets the rest
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
MAX_TAIL_PERCENTILE = 99.0  # beyond it, a 20 s run on a shared machine measures the neighbours


class Checker:
    """Checks each output once per distinct byte string, and that every
    repeat of the same inputs gives the same bytes."""

    def __init__(self, tamper=None) -> None:
        self.tamper = tamper          # corrupts an outcome before checking; smoke test only
        self.digest_by_label: dict[str, str] = {}
        self.verdicts: dict[str, tuple[dict, str | None]] = {}

    def __call__(self, job: workloads.Job, outcome: workloads.Outcome) -> tuple[dict, str | None]:
        if self.tamper is not None:
            self.tamper(job, outcome)
        digest = workloads.output_digest(job, outcome)
        if self.digest_by_label.setdefault(job.label, digest) != digest:
            return {}, f"{job.label}: bytes differ from an earlier run of the same inputs"
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = job.check(job, outcome), None
            except checks.CheckFailure as exc:
                self.verdicts[digest] = {}, f"{job.label}: {exc}"
            except Exception as exc:  # malformed output the checks did not foresee
                self.verdicts[digest] = {}, f"{job.label}: {type(exc).__name__}: {exc}"
        return self.verdicts[digest]


class Phase:
    """Closed-loop results of one timed phase."""

    def __init__(self) -> None:
        self.latency_ns = array("q")
        self.items = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict[str, float] = {"rows": 0, "nan_rows": 0, "points": 0, "bytes_out": 0}

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ns) / 1e9

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy_s if self.busy_s else 0.0


def run_phase(workload: workloads.Workload, seconds: float, execute, checker: Checker,
              hard_deadline: float, tracer: tracing.Tracer | None = None,
              min_ops: int = 1) -> Phase:
    """Run jobs in order, one at a time, until ``seconds`` have passed, at
    least ``min_ops`` jobs ran and a whole block of ``workload.stop_every``
    jobs is done."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or i % workload.stop_every or time.perf_counter() < deadline:
        if time.perf_counter() > hard_deadline:
            break
        job = workload.jobs[i % len(workload.jobs)]
        i += 1
        start = time.perf_counter_ns()
        try:
            outcome = tracer.run_op(execute, job) if tracer else execute(job)
        except Exception as exc:  # a crashed operation is a failed one; keep measuring
            elapsed = time.perf_counter_ns() - start
            facts, reason = {}, f"{job.label}: {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter_ns() - start
            facts, reason = checker(job, outcome)
        phase.latency_ns.append(elapsed)
        phase.attempted += 1
        if reason is None:
            phase.items += job.items
            for key in phase.facts:
                phase.facts[key] += facts.get(key, 0)
        else:
            phase.failures.append(reason)
    return phase


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples beyond it, capped at MAX_TAIL_PERCENTILE and never
    below the median.  Nearest rank."""
    n = len(sorted_values)
    rank = min(n - TAIL_BEYOND, math.ceil(n * MAX_TAIL_PERCENTILE / 100 - 1e-9))
    rank = max(rank, n // 2 + 1)
    return sorted_values[rank - 1], 100.0 * rank / n


def _digests(checker: Checker) -> dict:
    labels = checker.digest_by_label
    if len(labels) <= 32:
        return dict(labels)
    combined = hashlib.sha256("".join(labels[k] for k in sorted(labels)).encode()).hexdigest()
    return {f"all {len(labels)} outputs": combined}


def _report(workload, checker: Checker, phases: list[Phase]) -> dict:
    failures = [reason for phase in phases for reason in phase.failures]
    import sagindome.pointprocess as pointprocess
    return {
        "attempted": sum(phase.attempted for phase in phases),
        "failed": len(failures),
        "failures": failures[:10],
        "facts": workload.facts,
        "sha256": _digests(checker),
        "provenance": {
            "numpy": numpy.__version__,
            "bit_generator": getattr(pointprocess, "DEFAULT_RNG_ALGORITHM", "unknown"),
        },
    }


def timed_run(workload, seconds: float, checker: Checker, hard_deadline: float,
              launcher: Launcher) -> dict:
    if workload.cli:
        def execute(job):
            return workloads.Outcome(*launcher.run(workloads.cli_command(job)))
    else:
        execute = workloads.run_topology
    phase = run_phase(workload, seconds, execute, checker, hard_deadline)
    latency_ms = sorted(ns / 1e6 for ns in phase.latency_ns)
    tail_ms, tail_percentile = tail(latency_ms)
    # The processes that do the work: the CLI jobs, or this worker.
    peak_kb = (launcher.children_peak_rss_kb if workload.cli
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return dict(_report(workload, checker, [phase]),
                ops=phase.attempted, items=phase.items, busy_s=phase.busy_s,
                items_per_s=phase.items_per_s, op_p50_ms=statistics.median(latency_ms),
                op_tail_ms=tail_ms, tail_percentile=tail_percentile,
                peak_rss_mb=peak_kb / 1024, output_facts=phase.facts)


def startup_probes() -> dict:
    """Fresh-interpreter start-up, measured by running it (medians, ms)."""
    codes = {"bare": "pass", "numpy": "import numpy", "cli": "import sagindome.cli"}
    times = {name: [] for name in codes}
    for _ in range(STARTUP_PROBES):
        for name, code in codes.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
                           check=True, capture_output=True, timeout=60)
            times[name].append((time.perf_counter() - start) * 1e3)
    median = {name: statistics.median(values) for name, values in times.items()}
    return {"startup_ms": median["cli"], "numpy_import_ms": median["numpy"] - median["bare"]}


def layer_metrics(workload, summary: dict, traced: Phase, untraced: Phase,
                  probes: dict) -> dict:
    """Per-layer numbers from the traced phase.  ``*_us``: median inclusive
    time of one call; ``*_ms``: inclusive busy time per operation; counts are
    per operation."""
    ops = max(summary["ops"], 1)
    durations = summary["durations_ns"]

    def spans(*names):
        found = [durations[name] for name in names if name in durations]
        return [value for array_ in found for value in array_.tolist()]

    def median_us(*names):
        values = spans(*names)
        return statistics.median(values) / 1e3 if values else 0.0

    def busy_ms(*names):
        return sum(spans(*names)) / ops / 1e6

    def calls(*names):
        return len(spans(*names)) / ops

    formats = ("io.dumps", "io.sweep_rows_to_csv", "io.points_to_csv")
    geometry = ("geometry.half_power_beamwidth", "geometry.vertex_angle_uplink",
                "geometry.vertex_angle_downlink", "geometry.cap_area")
    facts = traced.facts
    format_s = busy_ms(*formats) * ops / 1e3
    self_ms = {layer: ns / ops / 1e6 for layer, ns in summary["self_ns"].items()}
    if workload.cli:   # a real CLI job also pays interpreter and import start-up
        self_ms["cli"] += probes["startup_ms"]
    total_ms = sum(self_ms.values()) or 1.0
    metrics = {
        "cli.startup_ms": probes["startup_ms"],
        "cli.numpy_import_ms": probes["numpy_import_ms"],
        "cli.main_ms": busy_ms("cli.main"),
        "io.parse_us": median_us("io.parse_descriptor"),
        "io.format_ms": busy_ms(*formats),
        "io.format_mb_per_s": facts["bytes_out"] / format_s / 1e6 if format_s else 0.0,
        "io.write_ms": busy_ms("io.write_text_file"),
        "io.bytes_out": facts["bytes_out"] / ops,
        "sweeps.run_sweep_ms": busy_ms("sweeps.run_sweep"),
        "sweeps.rows": facts["rows"] / ops,
        "sweeps.ok_ratio": 1.0 - facts["nan_rows"] / facts["rows"] if facts["rows"] else 0.0,
        "sweeps.expected_count_us": median_us("sweeps.expected_count"),
        "scenarios.coverage_us": median_us("scenarios.coverage"),
        "scenarios.coverage_calls": calls("scenarios.coverage"),
        "scenarios.validate_us": median_us("scenarios.validate"),
        "geometry.vertex_angle_us": median_us("geometry.vertex_angle_uplink",
                                              "geometry.vertex_angle_downlink"),
        "geometry.cap_area_us": median_us("geometry.cap_area"),
        "geometry.calls": calls(*geometry),
        "pointprocess.make_rng_us": median_us("pointprocess.make_rng"),
        "pointprocess.poisson_count_us": median_us("pointprocess.poisson_count"),
        "pointprocess.sample_angles_us": median_us("pointprocess.sample_cap_angles"),
        "pointprocess.generate_us": median_us("pointprocess.generate"),
        "pointprocess.generate_ms": busy_ms("pointprocess.generate"),
        "pointprocess.points": facts["points"] / ops,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer]
        metrics[f"{layer}.self_share"] = self_ms[layer] / total_ms
    metrics["trace.items_per_s"] = traced.items_per_s
    metrics["trace.untraced_items_per_s"] = untraced.items_per_s
    metrics["trace.overhead_items_per_s"] = traced.items_per_s - untraced.items_per_s
    return metrics


def traced_run(workload, seconds: float, checker: Checker, hard_deadline: float,
               seed: int) -> dict:
    probes = startup_probes()
    execute = workloads.replay_cli if workload.cli else workloads.run_topology
    # One untimed pass over every job first, so both timed phases find the
    # outputs already checked and the caches warm.
    warmup = run_phase(workload, 0.0, execute, checker, hard_deadline,
                       min_ops=len(workload.jobs))
    untraced = run_phase(workload, UNTRACED_SHARE * seconds, execute, checker, hard_deadline)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, (1.0 - UNTRACED_SHARE) * seconds, execute, checker,
                           hard_deadline, tracer)
    finally:
        tracer.uninstall()
    tracer.write(workloads.WORK / "spans" / f"{workload.name}-seed{seed}.npz")
    summary = tracer.summary()
    return dict(_report(workload, checker, [warmup, untraced, traced]),
                ops=summary["ops"], spans=len(tracer.start_col),
                layer_metrics=layer_metrics(workload, summary, traced, untraced, probes))


def main(argv: list[str], launcher: Launcher) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sagindome
    import sagindome.cli  # noqa: F401  (the replayed entry point)
    if Path(sagindome.__file__).resolve().parent != (src / "sagindome").resolve():
        print(f"error: imported sagindome from {sagindome.__file__}, not {src}", file=sys.stderr)
        return 1

    workdir = workloads.worker_dir(os.getpid())
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.size)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        checker = Checker()
        if args.trace:
            result = traced_run(workload, args.seconds, checker, hard_deadline, args.seed)
        else:
            result = timed_run(workload, args.seconds, checker, hard_deadline, launcher)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0
