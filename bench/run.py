"""Benchmark for sagindome: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run it from anywhere; it measures the package in ``src/`` next to this
directory.  It prints each metric by name and unit, then, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The full result, with sample counts, the tail percentile,
output digests and provenance, goes to ``.bench_work/results/``.  It exits
non-zero, printing no result, when the package is missing or a worker
process fails.

The parent process runs one worker process at a time, and a worker runs at
most one CLI child at a time.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import BUILDERS, ROOT, WORK, cli_env, worker_dir

SETUP_RUNS = 5              # fresh workers timed to set-up; setup_s is their median
RUN_LIMIT_S = 165          # workers still running then are killed, so a run ends within 180 s
SPEC = ROOT / "BENCHMARK.json"   # declares every metric's name and unit


class BenchError(Exception):
    """The benchmark itself could not run."""


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker with its launcher and CLI child, and wait until all have gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        for _ in range(100):
            os.killpg(proc.pid, 0)      # raises once no process of the group is left
            proc.poll()
            time.sleep(0.05)
    except ProcessLookupError:
        pass
    shutil.rmtree(worker_dir(proc.pid), ignore_errors=True)


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one fresh worker; return its set-up seconds and its result.

    The worker leads its own process group, so a worker still running at
    ``deadline`` is killed together with everything it started."""
    command = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
        proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {args.workload} exited {code}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sagindome").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sagindome" / "__init__.py").is_file():
        print(f"error: no sagindome package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, True, deadline)[0]
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        setup_s, result = run_worker(args, False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value}
                   for name, value in result.pop("layer_metrics").items()}
    else:
        samples = result["ops"]
        metrics = {
            "items_per_s": {"value": result["items_per_s"], "samples": samples},
            "op_p50_ms": {"value": result["op_p50_ms"], "samples": samples},
            "op_tail_ms": {"value": result["op_tail_ms"], "samples": samples,
                           "percentile": result["tail_percentile"]},
            "setup_s": {"value": statistics.median(setups), "samples": len(setups)},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "samples": 1},
            "ok_ratio": {"value": 1.0 - failed / attempted, "samples": attempted},
        }
    for name, metric in metrics.items():
        metric["unit"] = units[name]
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "metrics": metrics,
        "failed_ratio": failed / attempted, "setup_runs_s": setups, **result,
        "provenance": dict(
            result["provenance"], nproc=os.cpu_count(),
            cpu_affinity=len(os.sched_getaffinity(0)), python=platform.python_version(),
            workload_seed=args.seed, git_commit=git_commit(), source_sha256=source_sha256(),
            loadavg_start=load_start, loadavg_end=os.getloadavg()),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        extra = "".join(f" {key}={metric[key]}" for key in ("samples", "percentile")
                        if key in metric)
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}{extra}")
    print(f"{args.workload} failed_ratio {failed / attempted!r} ratio samples={attempted}")
    for reason in result["failures"]:
        print(f"{args.workload} failure: {reason}")
    print(f"{args.workload} full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
