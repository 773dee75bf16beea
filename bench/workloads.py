"""The four workloads: their inputs (made from the workload seed), how one
operation runs, and how its output is checked.

Why each workload exists:

- sweep-grid: four CLI sweeps, one per sweep parameter.  The per-row
  ``coverage`` loop in sweeps/scenarios/geometry does most of the work.
- sample-bulk: large CLI ``sample`` jobs.  CSV formatting in io does most of
  the work; pointprocess does little.
- topology-churn: an in-process library loop over many small descriptors,
  as Monte Carlo resampling does.  Per-call overhead in pointprocess and the
  scalar ``coverage`` dominate; io formatting is absent.
- cli-small: short CLI calls, where interpreter and import start-up (the cli
  layer) is most of each call.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"     # everything the benchmark writes


def worker_dir(pid: int) -> Path:
    """Scratch directory of the worker process ``pid``."""
    return WORK / f"worker-{pid}"

SCENARIOS = ("g2a", "a2s", "g2s", "a2g", "s2a", "s2g")

# Sizes.  The tiny sizes only serve the benchmark's own smoke test.
SWEEP_STEPS = {"full": 25_000, "tiny": 50}
SAMPLE_POINTS = {"full": 200_000, "tiny": 500}
TOPOLOGIES = {"full": 20_000, "tiny": 60}


def cli_env() -> dict:
    """Environment for every process the benchmark starts: the checkout's
    package first on the path, and no Earth-radius override."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "SAGIN_EARTH_RADIUS_KM")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Outcome:
    """What one operation produced."""

    returncode: int = 0
    stdout: str = ""
    stderr: str = ""
    value: object = None          # in-process result


@dataclass
class Job:
    """One operation.  ``label`` names its inputs: every run of the same
    label must give the same bytes."""

    label: str
    items: int                    # items one run finishes: rows, points, topologies or calls
    check: Callable[["Job", Outcome], dict]
    argv: list[str] | None = None  # CLI arguments after `python -m sagindome`
    descriptor: dict | None = None
    output: Path | None = None    # file the job writes
    data: dict = field(default_factory=dict)   # what the check needs


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    stop_every: int               # a timed phase ends only after a whole block of this many jobs
    cli: bool                     # operations are CLI jobs (else library calls)
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs

def _polar_deg(rng: random.Random) -> float:
    """Receiver polar angle, uniform over the sphere."""
    return math.degrees(math.acos(rng.uniform(-1.0, 1.0)))


def scenario_descriptor(rng: random.Random, scenario: str) -> dict:
    """A valid scenario inside the customary operating ranges."""
    d = {"scenario": scenario}
    if scenario in checks.UPLINKS:
        low_band = scenario == "g2a"
        d["carrier_frequency_hz"] = rng.uniform(1e9, 2.4e9) if low_band else rng.uniform(2e9, 40e9)
        d["illumination_coefficient"] = rng.uniform(60.0, 75.0)
        d["reflector_diameter_m"] = {"g2a": rng.uniform(0.2, 1.0), "a2s": rng.uniform(0.5, 2.0),
                                     "g2s": rng.uniform(2.0, 6.0)}[scenario]
    else:
        d["min_elevation_deg"] = rng.uniform(5.0, 30.0)
    if "air" in checks.LAYERS[scenario]:
        d["air_altitude_km"] = rng.uniform(1.0, 50.0)
    if "space" in checks.LAYERS[scenario]:
        d["space_altitude_km"] = rng.uniform(500.0, 35786.0)
    return d


def oracle_areas(descriptors: list[dict]) -> list[float]:
    """Cap areas of scenario descriptors by the oracle, one array call per scenario."""
    areas = [0.0] * len(descriptors)
    for scenario in SCENARIOS:
        index = [i for i, d in enumerate(descriptors) if d["scenario"] == scenario]
        if not index:
            continue
        keys = set(descriptors[index[0]]) - {"scenario"}
        params = checks.library_params(
            {key: np.array([descriptors[i][key] for i in index]) for key in keys})
        params["scenario"] = scenario
        phi = checks.vertex_oracle(params)[0]
        for i, area in zip(index, checks.cap_area(checks.radii(params)[0], phi).tolist()):
            areas[i] = area
    return areas


def add_sampling(rng: random.Random, descriptors: list[dict], means: list[float],
                 modes: list[str]) -> list[dict]:
    """Each descriptor plus a density giving Poisson mean floor(mean), a
    random receiver, a seed and a mode."""
    return [dict(d, density_per_km2=(math.floor(mean) + 0.5) / area,  # off an integer boundary
                 rx_azimuth_deg=rng.uniform(0.0, 360.0), rx_polar_deg=_polar_deg(rng),
                 seed=rng.randrange(2 ** 63), mode=mode)
            for d, area, mean, mode in zip(descriptors, oracle_areas(descriptors), means, modes)]


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _flags(descriptor: dict) -> list[str]:
    flags = []
    for key in ("scenario", "carrier_frequency_hz", "illumination_coefficient",
                "reflector_diameter_m", "min_elevation_deg", "air_altitude_km",
                "space_altitude_km"):
        if key in descriptor:
            flags += ["--" + key.replace("_", "-"), str(descriptor[key])]
    return flags


# ---------------------------------------------------------------- checks

def _succeeded(what: str, out: Outcome) -> None:
    checks.fail_unless(out.returncode == 0,
                       f"{what} exited {out.returncode}: {out.stderr.strip()}")


def _check_sweep(job: Job, out: Outcome) -> dict:
    _succeeded("sweep", out)
    return checks.check_sweep(job.output.read_text(encoding="utf-8"), job.data)


def _check_sample(job: Job, out: Outcome) -> dict:
    _succeeded("sample", out)
    return checks.check_sample(out.stdout, job.output, job.descriptor)


def _check_coverage(job: Job, out: Outcome) -> dict:
    _succeeded("coverage", out)
    return checks.check_coverage(out.stdout, checks.library_params(job.descriptor))


def _check_count(job: Job, out: Outcome) -> dict:
    _succeeded("count", out)
    return checks.check_count(out.stdout, checks.library_params(job.descriptor),
                              job.descriptor["density_per_km2"])


def _check_malformed(job: Job, out: Outcome) -> dict:
    return checks.check_malformed(out.returncode, out.stdout, out.stderr)


def _check_topology(job: Job, out: Outcome) -> dict:
    topology, dome, count_pair = out.value
    return checks.check_topology(topology, dome, count_pair, job.descriptor)


# ---------------------------------------------------------------- workloads

_SWEEP_KEYS = {"carrier_frequency": "carrier_frequency_hz", "min_elevation": "min_elevation_rad",
               "air_altitude": "air_altitude_km", "space_altitude": "space_altitude_km"}


def sweep_grid(rng: random.Random, workdir: Path, size: str) -> Workload:
    steps = SWEEP_STEPS[size]
    # The seed moves the scenarios but not the work: the share of
    # tangent-limited rows (cheaper) and of nan rows stays the same.
    g2s = {"scenario": "g2s", "space_altitude_km": rng.uniform(15000.0, 25000.0),
           "illumination_coefficient": rng.uniform(60.0, 75.0)}
    # Reflector size that puts the tangent-limited boundary a tenth of the
    # way along the log grid.
    boundary_hz = 1e8 * 400.0 ** 0.1
    edge_deg = math.degrees(math.asin(checks.EARTH_RADIUS_KM / (
        checks.EARTH_RADIUS_KM + g2s["space_altitude_km"])))
    g2s["reflector_diameter_m"] = (g2s["illumination_coefficient"] * checks.LIGHT_SPEED_M_PER_S
                                   / (boundary_hz * 2.0 * edge_deg))
    s2g = {"scenario": "s2g", "space_altitude_km": rng.uniform(500.0, 2000.0)}
    # Air altitudes at or above the space layer are invalid: a third of
    # this grid becomes nan rows.
    a2s = {"scenario": "a2s", "space_altitude_km": 1.0 + (30000.0 - 1.0) * 2.0 / 3.0,
           "carrier_frequency_hz": rng.uniform(2e9, 40e9),
           "illumination_coefficient": rng.uniform(60.0, 75.0),
           "reflector_diameter_m": rng.uniform(0.5, 2.0)}
    s2a = {"scenario": "s2a", "air_altitude_km": rng.uniform(1.0, 50.0),
           "min_elevation_deg": rng.uniform(5.0, 30.0)}
    # Every grid starts at a valid point: the CLI seeds the base scenario with
    # --from, so an invalid start exits 2 instead of giving a nan row.
    grids = [
        (g2s, "carrier_frequency", 1e8, 4e10, "log"),   # crosses the tangent-limited boundary
        (s2g, "min_elevation", 0.0, 90.0, "linear"),
        (a2s, "air_altitude", 1.0, 30000.0, "linear"),
        (s2a, "space_altitude", 500.0, 35786.0, "log"),
    ]
    jobs = []
    for base, param, low, high, scale in grids:
        output = workdir / f"sweep-{param}.csv"
        argv = ["sweep", *_flags(base), "--param", param, "--from", repr(low), "--to", repr(high),
                "--steps", str(steps), "--scale", scale, "--output", str(output)]
        to_library = math.radians if param == "min_elevation" else float
        jobs.append(Job(
            label=f"{base['scenario']}-{param}", items=steps, check=_check_sweep, argv=argv,
            output=output,
            data={"params": checks.library_params(base), "key": _SWEEP_KEYS[param],
                  "low": to_library(low), "high": to_library(high), "steps": steps,
                  "scale": scale}))
    return Workload("sweep-grid", jobs, stop_every=len(jobs), cli=True)


def sample_bulk(rng: random.Random, workdir: Path, size: str) -> Workload:
    points = SAMPLE_POINTS[size]
    modes = ("area_uniform", "paper_faithful")
    bases = [{"scenario": "s2g", "space_altitude_km": rng.uniform(500.0, 2000.0),
              "min_elevation_deg": rng.uniform(5.0, 30.0)} for _ in modes]
    jobs = []
    for descriptor in add_sampling(rng, bases, [points] * len(modes), modes):
        mode = descriptor["mode"]
        path = _write_json(workdir / f"sample-{mode}.json", descriptor)
        output = workdir / f"sample-{mode}.csv"
        jobs.append(Job(label=f"s2g-{mode}", items=points, check=_check_sample,
                        argv=["sample", "--descriptor", str(path), "--output", str(output)],
                        descriptor=descriptor, output=output))
    return Workload("sample-bulk", jobs, stop_every=len(jobs), cli=True)


def _random_means(rng: random.Random, count: int) -> list[float]:
    """Log-uniform on 5..500, so both the inversion (mean < 30) and the PTRS
    Poisson samplers run."""
    return [math.exp(rng.uniform(math.log(5.0), math.log(500.0))) for _ in range(count)]


def topology_churn(rng: random.Random, workdir: Path, size: str) -> Workload:
    count = TOPOLOGIES[size]
    bases = [scenario_descriptor(rng, SCENARIOS[i % len(SCENARIOS)]) for i in range(count)]
    means = _random_means(rng, count)
    modes = [rng.choice(("area_uniform", "paper_faithful")) for _ in range(count)]
    jobs = [Job(label=f"topology-{i}", items=1, check=_check_topology, descriptor=d)
            for i, d in enumerate(add_sampling(rng, bases, means, modes))]
    below = sum(mean < 30.0 for mean in means) / count
    return Workload("topology-churn", jobs, stop_every=len(SCENARIOS), cli=False,
                    facts={"share_mean_below_30": below})


# Each malformed descriptor must end in exit 2 with a one-line reason.
MALFORMED = (
    ("coverage", '{"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10, '
                 '"colour": "blue"}'),
    ("coverage", '{"space_altitude_km": 600, "min_elevation_deg": 10}'),
    ("coverage", '{"scenario": "s2g", "space_altitude_km": 600, '),
    ("coverage", '{"scenario": "s2g", "space_altitude_km": NaN, "min_elevation_deg": 10}'),
    ("coverage", '{"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10, '
                 '"carrier_frequency_hz": 2e9}'),
    ("coverage", '{"scenario": "s2g", "space_altitude_km": -600, "min_elevation_deg": 10}'),
    ("coverage", '{"scenario": "s2g", "space_altitude_km": "600", "min_elevation_deg": 10}'),
    ("coverage", '{"scenario": "x2y"}'),
    ("coverage", '[1, 2, 3]'),
    ("coverage", '{"scenario": "a2s", "air_altitude_km": 900, "space_altitude_km": 600, '
                 '"carrier_frequency_hz": 2e10, "illumination_coefficient": 70, '
                 '"reflector_diameter_m": 1}'),
    ("count", '{"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10}'),
    ("count", '{"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10, '
              '"density_per_km2": 1e-5, "seed": 1.5}'),
)


def cli_small(rng: random.Random, workdir: Path, size: str) -> Workload:
    order = list(SCENARIOS)
    rng.shuffle(order)
    # One descriptor per scenario, and a mean-57 one for the sample call.
    bases = [scenario_descriptor(rng, scenario) for scenario in [*order, order[0]]]
    means = [*_random_means(rng, len(order)), 57.0]
    modes = [rng.choice(("area_uniform", "paper_faithful")) for _ in order] + ["area_uniform"]
    *sampled, sample_descriptor = add_sampling(rng, bases, means, modes)
    descriptors = dict(zip(order, sampled))
    paths = {scenario: _write_json(workdir / f"{scenario}.json", d)
             for scenario, d in descriptors.items()}

    def coverage_pair(scenario):
        d = descriptors[scenario]
        return [Job(f"coverage-file-{scenario}", 1, _check_coverage, descriptor=d,
                    argv=["coverage", "--descriptor", str(paths[scenario])]),
                Job(f"coverage-flags-{scenario}", 1, _check_coverage, descriptor=d,
                    argv=["coverage", *_flags(d)])]

    def count(scenario):
        return Job(f"count-{scenario}", 1, _check_count, descriptor=descriptors[scenario],
                   argv=["count", "--descriptor", str(paths[scenario])])

    def malformed(index):
        command, text = MALFORMED[index % len(MALFORMED)]
        path = workdir / f"malformed-{index % len(MALFORMED)}.json"
        path.write_text(text, encoding="utf-8")
        return Job(f"malformed-{index % len(MALFORMED)}", 1, _check_malformed,
                   argv=[command, "--descriptor", str(path)])

    sample_path = _write_json(workdir / "sample-57.json", sample_descriptor)
    sample_out = workdir / "sample-57.csv"
    sample = Job(f"sample-57-{order[0]}", 1, _check_sample, descriptor=sample_descriptor,
                 argv=["sample", "--descriptor", str(sample_path), "--output", str(sample_out)],
                 output=sample_out)
    first = rng.randrange(len(MALFORMED))
    # Two blocks of ten calls, each with one malformed descriptor.
    jobs = (coverage_pair(order[0]) + coverage_pair(order[1]) + coverage_pair(order[2])
            + [count(order[3]), count(order[4]), malformed(first), sample]
            + coverage_pair(order[3]) + coverage_pair(order[4]) + coverage_pair(order[5])
            + [count(order[5]), count(order[0]), count(order[1]), malformed(first + 1)])
    return Workload("cli-small", jobs, stop_every=10, cli=True)


BUILDERS = {"sweep-grid": sweep_grid, "sample-bulk": sample_bulk,
            "topology-churn": topology_churn, "cli-small": cli_small}


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir, size)


# ---------------------------------------------------------------- execution

def cli_command(job: Job) -> list[str]:
    """The command a user types for this job, in a fresh interpreter."""
    return [sys.executable, "-m", "sagindome", *job.argv]


def replay_cli(job: Job) -> Outcome:
    """The same CLI job through ``sagindome.cli.main`` in this process."""
    import sagindome.cli
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = sagindome.cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, stdout.getvalue(), stderr.getvalue())


def run_topology(job: Job) -> Outcome:
    """parse_descriptor -> coverage -> sample_config -> generate -> expected_count.

    Names are looked up on the package at call time, so a traced run's
    rebinding takes effect."""
    import sagindome
    descriptor = sagindome.parse_descriptor(job.descriptor)
    dome = sagindome.coverage(descriptor.spec)
    config = descriptor.sample_config()
    topology = sagindome.generate(dome, config)
    count_pair = sagindome.expected_count(dome, config.density_per_km2)
    return Outcome(value=(topology, dome, count_pair))


def output_digest(job: Job, out: Outcome) -> str:
    """sha256 of everything an operation produced, for the same-seed,
    same-bytes check."""
    digest = hashlib.sha256()
    if out.value is not None:
        topology, dome, count_pair = out.value
        digest.update(topology.points.tobytes())
        digest.update(repr((topology.count, dome.vertex_angle_rad, dome.area_km2,
                            count_pair)).encode())
        return digest.hexdigest()
    digest.update(f"{out.returncode}\0{out.stdout}\0{out.stderr}\0".encode())
    if job.output is not None and out.returncode == 0:
        with open(job.output, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()
