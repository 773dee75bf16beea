"""Replay a seeded set of CLI invocations on two source trees and compare
every byte they write.

Run from the repository root::

    git archive HEAD src | tar -x -C /tmp/base
    python tests/cli_diff.py --base /tmp/base/src --head src [--count 240] [--seed 0]

Each tree is a ``src`` directory that holds the ``sagindome`` package.  The
invocations are drawn once, from the hostile values of
``test_cli_properties.py``, grids across interval ends and 1 024-row sweep
blocks, samples in both modes on the s2g reference dome and on small a2g and
g2s domes with counts on and next to the 1 024-row sample blocks, half of
them on domes scaled to Earth radii from 1 m to 1e12 km, and ``--output``
files.  They are replayed in-process, in one
child process per tree, each invocation in a directory of its own with
relative paths, so no absolute path enters the comparison.  For each
one the exit code, standard output, standard error and every file written
are compared byte for byte.

The report gives the counts per subcommand and per field, then the first
``--show`` differing invocations with the first differing line of each
field.  The tool exits 0 whether the trees differ or not: a difference may
be a declared change of the output contract.  It exits non-zero only when it
fails itself, for example when a tree cannot be imported.
"""

import argparse
import contextlib
import io
import json
import os
import random
import shlex
import struct
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

SUBCOMMANDS = ("coverage", "count", "sweep", "sample")
FIELDS = ("exit", "stdout", "stderr", "files")
# The order subcommands are drawn in: sweeps and samples, which cross block
# boundaries, twice as often as the rest.
_CYCLE = ("coverage", "sweep", "sample", "count", "sweep", "sample")
# Sweep grids on and next to multiples of the 1 024-row block, and small ones.
_SWEEP_STEPS = (2, 3, 17, 1023, 1024, 1025, 2047, 2048, 2049, 3073)
# Sample counts on and next to multiples of the 1 024-row block: up to
# 1 024 points are drawn without numpy, and from 1 025 on by numpy's blocks,
# from two generators.  Among them are counts 1 more than a multiple of
# 4 096, whose last row a tree that rotates a one-row tail of 4 096-row
# blocks computes by another BLAS routine.
_SAMPLE_COUNTS = (0, 1, 1023, 1024, 1025, 1026, 2047, 2048, 2049, 4095, 4096, 4097, 6145,
                  8192, 8193)
# Sample domes: the s2g reference dome and two small ones, on which those
# counts take densities of about 1 to 5 per km^2.
_SAMPLE_SCENARIOS = ("s2g", "a2g", "g2s")
# Earth radii, in km, that half the sample domes are drawn at, their
# altitudes scaled by the same factor so each dome keeps its angles: its
# points then have every coordinate below 1 km, or up to 13 integer digits,
# which the CSV kernel lays out in its narrowest and widest slots.
_EARTH_RADII = (1e-3, 0.5, 6371.0, 1e6, 1e12)
# Grid bounds in CLI units that cross the ends of each parameter's interval.
_SWEEP_RANGES = {
    "carrier_frequency": [(2e9, 40e9), (1e8, 5e10), (-1e8, 2.4e9)],
    "min_elevation": [(0.0, 90.0), (5.0, 30.0), (-20.0, 100.0)],
    "air_altitude": [(1.0, 10.0), (0.0, 30000.0), (-5.0, 25000.0)],
    "space_altitude": [(500.0, 600.0), (100.0, 40000.0), (-100.0, 1000.0)],
}
_DESCRIPTOR = "descriptor.json"
_CAPTURED = {"exit": "_exit", "stdout": "_stdout", "stderr": "_stderr"}


def _double(rng: random.Random) -> float:
    """Any double, by its 64 bits."""
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _descriptor(rng: random.Random, hostile: list, keys: tuple) -> dict:
    """A valid descriptor of a random scenario, then up to two of its values
    made hostile, up to one key dropped and up to one known key added, as
    ``test_cli_properties.descriptors`` draws them."""
    from test_cli_properties import VALID

    scenario = rng.choice(sorted(VALID))
    data = {"scenario": scenario, **VALID[scenario], "density_per_km2": 5e-6, "seed": 42}
    for key in rng.sample(sorted(data), rng.choice((0, 0, 1, 2))):
        data[key] = rng.choice([*hostile, _double(rng)])
    if rng.random() < 0.2:
        del data[rng.choice(sorted(data))]
    if rng.random() < 0.2:
        data[rng.choice(keys)] = rng.choice([*hostile, _double(rng)])
    return data


def _flags(data: dict) -> list[str]:
    from test_cli_properties import _flag

    return [token for key, value in data.items() for token in _flag(key, value)]


def _coverage(rng: random.Random) -> dict:
    from test_cli_properties import HOSTILE_FLOATS, HOSTILE_VALUES, KEYS, VALID

    if rng.random() < 0.5:
        data = _descriptor(rng, HOSTILE_VALUES, KEYS)
        return {"argv": ["coverage", "--descriptor", _DESCRIPTOR],
                "files": {_DESCRIPTOR: json.dumps(data)}}
    scenario = rng.choice(sorted(VALID))
    flags = {key: float(value) for key, value in VALID[scenario].items()}
    if rng.random() < 0.5:
        flags[rng.choice(sorted(flags))] = rng.choice([*HOSTILE_FLOATS, _double(rng)])
    return {"argv": ["coverage", "--scenario", scenario, *_flags(flags)], "files": {}}


def _count(rng: random.Random) -> dict:
    from test_cli_properties import HOSTILE_VALUES, KEYS

    data = _descriptor(rng, HOSTILE_VALUES, KEYS)
    if rng.random() < 0.1:
        return {"argv": ["count", "--descriptor", _DESCRIPTOR],
                "files": {_DESCRIPTOR: rng.choice(["{broken", "[]", '{"scenario": 1'])}}
    return {"argv": ["count", "--descriptor", _DESCRIPTOR],
            "files": {_DESCRIPTOR: json.dumps(data)}}


def _sweep(rng: random.Random) -> dict:
    from sagindome import Scenario, SweepParameter
    from sagindome.scenarios import parameter_applicable
    from test_cli_properties import GRID_BOUNDS, HOSTILE_FLOATS, VALID

    scenario = rng.choice(sorted(VALID))
    flags = {key: float(value) for key, value in VALID[scenario].items()}
    if rng.random() < 0.2:
        flags[rng.choice(sorted(flags))] = rng.choice([*HOSTILE_FLOATS, _double(rng)])
    parameter = rng.choice([p.value for p in SweepParameter
                            if parameter_applicable(p, Scenario(scenario))])
    bounds = list(rng.choice(_SWEEP_RANGES[parameter]))
    for index in range(2):
        if rng.random() < 0.2:
            bounds[index] = rng.choice(GRID_BOUNDS)
    bounds.sort(reverse=rng.random() < 0.1)
    steps = rng.choice([*_SWEEP_STEPS, rng.randint(2, 3000)])
    argv = ["sweep", "--scenario", scenario, *_flags(flags), "--param", parameter,
            "--from", repr(bounds[0]), "--to", repr(bounds[1]), "--steps", str(steps),
            "--scale", rng.choice(["linear", "linear", "linear", "log"])]
    output = rng.choice([None, None, "sweep.csv", "missing/sweep.csv"])
    if output:
        argv += ["--output", output]
    return {"argv": argv, "files": {}}


def _seed_for_count(rng: random.Random, density: float, area: float, count: int) -> int:
    """A seed whose Poisson draw at ``density`` over ``area`` is ``count``."""
    from sagindome import make_rng, poisson_count

    seed = rng.randrange(2 ** 32)
    while poisson_count(density, area, make_rng(seed)) != count:
        seed += 1
    return seed


def _sample_dome(scenario: str, earth_radius_km: float | None) -> dict:
    """The descriptor values of a sample dome: ``VALID``'s, or those scaled
    to an Earth of ``earth_radius_km``."""
    from sagindome import DEFAULT_EARTH_RADIUS_KM
    from test_cli_properties import VALID

    if earth_radius_km is None:
        return dict(VALID[scenario])
    scale = earth_radius_km / DEFAULT_EARTH_RADIUS_KM
    return {**{key: value * scale if key.endswith("_altitude_km") else value
               for key, value in VALID[scenario].items()},
            "earth_radius_km": earth_radius_km}


def _sample(rng: random.Random, areas: dict[tuple[str, float | None], float]) -> dict:
    from test_cli_properties import HOSTILE_VALUES, KEYS

    output = rng.choice(["points.csv"] * 5 + ["missing/points.csv"])
    if rng.random() < 0.3:
        data = _descriptor(rng, HOSTILE_VALUES, KEYS)
    else:
        scenario = rng.choice(_SAMPLE_SCENARIOS)
        earth_radius_km = rng.choice(_EARTH_RADII) if rng.random() < 0.5 else None
        area = areas[scenario, earth_radius_km]
        count = rng.choice(_SAMPLE_COUNTS)
        density = (count + 0.5) / area
        data = {"scenario": scenario, **_sample_dome(scenario, earth_radius_km),
                "density_per_km2": density,
                "seed": _seed_for_count(rng, density, area, count),
                "mode": rng.choice(["area_uniform", "paper_faithful"])}
        if rng.random() < 0.7:
            data.update(rx_azimuth_deg=rng.uniform(-360, 360), rx_polar_deg=rng.uniform(0, 180))
    return {"argv": ["sample", "--descriptor", _DESCRIPTOR, "--output", output],
            "files": {_DESCRIPTOR: json.dumps(data)}}


def draw_invocations(count: int, seed: int) -> list[dict]:
    """``count`` invocations, each an argv and the input files it reads.
    The package importable here finds the seeds of the sample counts."""
    from sagindome import coverage, parse_descriptor

    rng = random.Random(seed)
    areas = {(scenario, radius): coverage(parse_descriptor(
        {"scenario": scenario, **_sample_dome(scenario, radius)}).spec).area_km2
        for scenario in _SAMPLE_SCENARIOS for radius in (None, *_EARTH_RADII)}
    draw = {"coverage": _coverage, "count": _count, "sweep": _sweep,
            "sample": lambda rng: _sample(rng, areas)}
    return [draw[_CYCLE[index % len(_CYCLE)]](rng) for index in range(count)]


def replay(invocations_path: Path, out: Path) -> None:
    """Run each invocation through ``main`` in this process, in its own
    directory under ``out``, and leave its captured exit code, standard
    output and standard error there beside the files it wrote.  The
    package must come from the tree on ``PYTHONPATH``."""
    import sagindome
    from sagindome.cli import main

    src = str(Path(sagindome.__file__).resolve().parents[1])
    if src != str(Path(os.environ["PYTHONPATH"]).resolve()):
        raise RuntimeError(f"sagindome was imported from {src}, not {os.environ['PYTHONPATH']}")
    invocations = json.loads(invocations_path.read_text(encoding="utf-8"))
    for index, invocation in enumerate(invocations):
        run = out / f"{index:04d}"
        run.mkdir(parents=True)
        for name, text in invocation["files"].items():
            (run / name).write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(run)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(invocation["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = "traceback"
        for field, text in (("exit", str(code)), ("stdout", stdout.getvalue()),
                            ("stderr", stderr.getvalue())):
            text = text.replace(str(run), "<dir>").replace(src, "<src>")
            (run / _CAPTURED[field]).write_bytes(text.encode("utf-8", "backslashreplace"))


def _start(tree: Path, invocations_path: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--replay", str(invocations_path),
         str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _first_difference(base: bytes | None, head: bytes | None) -> str:
    if base is None or head is None:
        return "written on the " + ("head" if base is None else "base") + " side only"
    base_lines, head_lines = base.split(b"\n"), head.split(b"\n")
    for number, (old, new) in enumerate(zip(base_lines, head_lines), 1):
        if old != new:
            return f"line {number}: base {old[:100]!r} head {new[:100]!r}"
    return f"base {len(base_lines)} lines, head {len(head_lines)} lines"


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare(count: int, base: Path, head: Path) -> dict[int, dict[str, list[str]]]:
    """The differing fields of each invocation that differs, each with the
    first difference of each item of that field."""
    differences = {}
    for index in range(count):
        base_run, head_run = base / f"{index:04d}", head / f"{index:04d}"
        fields = {}
        for field, name in _CAPTURED.items():
            old, new = _read(base_run / name), _read(head_run / name)
            if old != new:
                fields[field] = [_first_difference(old, new)]
        written = sorted({path.relative_to(run).as_posix()
                          for run in (base_run, head_run) for path in run.rglob("*")
                          if path.is_file() and path.name not in _CAPTURED.values()})
        files = [f"{name}: {_first_difference(old, new)}" for name in written
                 if (old := _read(base_run / name)) != (new := _read(head_run / name))]
        if files:
            fields["files"] = files
        if fields:
            differences[index] = fields
    return differences


def diff(base: Path, head: Path, count: int, seed: int) -> tuple[list[dict], dict]:
    """Draw ``count`` invocations, replay them on both trees and compare."""
    invocations = draw_invocations(count, seed)
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as work:
        work = Path(work)
        invocations_path = work / "invocations.json"
        invocations_path.write_text(json.dumps(invocations), encoding="utf-8")
        children = [_start(tree, invocations_path, work / side)
                    for side, tree in (("base", base), ("head", head))]
        for child, side in zip(children, ("base", "head")):
            _, err = child.communicate()
            if child.returncode != 0:
                raise RuntimeError(f"the {side} replay failed:\n{err.decode()}")
        return invocations, compare(count, work / "base", work / "head")


def report(invocations: list[dict], differences: dict, seed: int, show: int) -> str:
    runs = Counter(invocation["argv"][0] for invocation in invocations)
    differing = Counter(invocations[index]["argv"][0] for index in differences)
    by_field = Counter((invocations[index]["argv"][0], field)
                       for index, fields in differences.items() for field in fields)
    header = ("subcommand", "runs", "differing", *FIELDS)
    lines = [f"cli_diff: {len(invocations)} invocations (seed {seed}), "
             f"{len(differences)} differing", " ".join(f"{cell:>10}" for cell in header)]
    for name in (*SUBCOMMANDS, "all"):
        names = SUBCOMMANDS if name == "all" else (name,)
        cells = [sum(runs[n] for n in names), sum(differing[n] for n in names),
                 *(sum(by_field[n, field] for n in names) for field in FIELDS)]
        lines.append(" ".join(f"{cell:>10}" for cell in (name, *cells)))
    for index in sorted(differences)[:show]:
        lines.append(f"#{index}: sagindome {shlex.join(invocations[index]['argv'])}")
        lines += [f"  {field}: {detail}" for field, details in differences[index].items()
                  for detail in details]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--base", type=Path, help="the parent's src directory")
    parser.add_argument("--head", type=Path, help="the change's src directory")
    parser.add_argument("--count", type=int, default=240, help="invocations to draw")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show", type=int, default=10, help="differing invocations listed")
    parser.add_argument("--replay", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        replay(*args.replay)
        return 0
    if args.base is None or args.head is None:
        parser.error("--base and --head are required")
    sys.path.insert(0, str(args.head.resolve()))
    invocations, differences = diff(args.base.resolve(), args.head.resolve(),
                                     args.count, args.seed)
    print(report(invocations, differences, args.seed, args.show))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
