"""The package surface and its start-up contract.

Only ``pointprocess`` imports numpy, so only the ``sample`` command loads it.
``import sagindome``, the ``coverage``, ``count`` and ``sweep`` commands,
``--help`` and every descriptor error run without numpy, and, since the
records are plain frozen classes, without ``dataclasses`` and ``inspect``;
``sweep`` loads no ``pointprocess`` and ``sample`` no ``sweeps``.  The
package resolves the names of those two modules on first access.  Each
check runs in a fresh interpreter, since this one has imported everything
already.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import sagindome
from sagindome import (
    AntennaConfig,
    Descriptor,
    DomeGeometry,
    RangeViolation,
    SampleConfig,
    Scenario,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    SweepTable,
    Topology,
)

S2G_DESCRIPTOR = {"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10,
                  "density_per_km2": 5e-6, "seed": 7}

# Runs each argv (JSON list in argv[1]) through cli.main and prints, after
# importing the package, after importing the cli and after each call, the
# exit code and which of the watched modules (JSON list in argv[2]) are loaded.
_CLI_PROBE = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[2])
def loaded():
    return [name for name in watched if name in sys.modules]
import sagindome
results = [["import sagindome", 0, loaded()]]
from sagindome.cli import main
results.append(["import sagindome.cli", 0, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([" ".join(argv), code, loaded()])
print(json.dumps(results))
"""


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sagindome.__file__).resolve().parents[1])
    completed = subprocess.run([sys.executable, "-c", code, *args], env=env,
                               capture_output=True, text=True, timeout=120, check=False)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def run_cli_probe(calls: list[list[str]], watched: list[str]) -> list[list]:
    return json.loads(run_fresh(_CLI_PROBE, json.dumps(calls), json.dumps(watched)))


@pytest.fixture
def s2g_descriptor(tmp_path):
    path = tmp_path / "s2g.json"
    path.write_text(json.dumps(S2G_DESCRIPTOR))
    return str(path)


class TestStartup:
    def test_core_commands_load_no_numpy(self, s2g_descriptor, tmp_path):
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_text('{"scenario": "s2g", ')
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps(dict(S2G_DESCRIPTOR, space_altitude_km=-1)))
        results = run_cli_probe([
            ["coverage", "--descriptor", s2g_descriptor],
            ["coverage", "--scenario", "s2g", "--space-altitude-km", "600",
             "--min-elevation-deg", "10"],
            ["count", "--descriptor", s2g_descriptor],
            ["coverage", "--descriptor", str(undecodable)],
            ["count", "--descriptor", str(invalid)],
            ["--help"],
        ], ["numpy", "dataclasses", "inspect"])
        assert [code for _, code, _ in results] == [0, 0, 0, 0, 0, 2, 2, 0]
        assert [call for call, _, loaded in results if loaded] == []

    def test_sweep_loads_no_sampler(self, tmp_path):
        grid = tmp_path / "sweep.csv"
        results = run_cli_probe([
            ["sweep", "--scenario", "s2g", "--space-altitude-km", "600",
             "--param", "min_elevation", "--from", "5", "--to", "30", "--steps", "6",
             "--output", str(grid)],
        ], ["numpy", "sagindome.pointprocess", "dataclasses", "inspect"])
        assert results[-1][1:] == [0, []]
        assert len(grid.read_text().splitlines()) == 7

    def test_sample_loads_no_sweeps(self, s2g_descriptor, tmp_path):
        points = tmp_path / "points.csv"
        results = run_cli_probe([
            ["sample", "--descriptor", s2g_descriptor, "--output", str(points)],
        ], ["numpy", "sagindome.sweeps"])
        assert results[-1][1:] == [0, ["numpy"]]
        assert points.read_text().startswith("x_km,y_km,z_km\n")


    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads through Linux's /proc/self/task")
    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_sample_process_blas_threads(self, s2g_descriptor, tmp_path, user_value):
        # A sitecustomize module on the path reports, at exit of `python -m
        # sagindome sample`, the process's threads and the variable.
        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import atexit, os\n"
            "def report():\n"
            "    with open(os.environ['THREADS_REPORT'], 'w') as out:\n"
            "        print(len(os.listdir('/proc/self/task')),\n"
            "              os.environ.get('OPENBLAS_NUM_THREADS'), file=out)\n"
            "atexit.register(report)\n")
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(Path(sagindome.__file__).resolve().parents[1])])
        env["THREADS_REPORT"] = str(tmp_path / "report")
        if user_value:
            env["OPENBLAS_NUM_THREADS"] = user_value
        completed = subprocess.run(
            [sys.executable, "-m", "sagindome", "sample", "--descriptor", s2g_descriptor,
             "--output", str(tmp_path / "points.csv")],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert completed.returncode == 0, completed.stderr
        threads, value = (tmp_path / "report").read_text().split()
        if user_value:
            assert value == user_value
        else:
            assert (threads, value) == ("1", "1")


class TestPackageSurface:
    def test_every_public_name_resolves(self):
        resolved = run_fresh(
            "import json, sagindome\n"
            "print(json.dumps([n for n in sagindome.__all__ "
            "if getattr(sagindome, n) is not None]))")
        assert json.loads(resolved) == sagindome.__all__

    def test_star_import_binds_every_public_name(self):
        bound = run_fresh(
            "import json\n"
            "from sagindome import *\n"
            "import sagindome\n"
            "print(json.dumps([n for n in sagindome.__all__ if n in globals()]))")
        assert json.loads(bound) == sagindome.__all__

    def test_dir_lists_every_public_name(self):
        listed = run_fresh("import json, sagindome\nprint(json.dumps(dir(sagindome)))")
        assert set(sagindome.__all__) <= set(json.loads(listed))
        assert len(sagindome.__all__) == 39

    def test_unknown_name_raises_attribute_error(self):
        message = run_fresh(
            "import sagindome\n"
            "try:\n"
            "    sagindome.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)")
        assert message == "module 'sagindome' has no attribute 'no_such_name'\n"

    def test_lazy_name_is_the_defining_modules_object(self):
        # The benchmark's tracer rebinds a function under every name that
        # holds it, and its topology loop calls sagindome.generate, so the
        # package must cache the defining module's own object.
        same = run_fresh(
            "import sagindome\n"
            "generate = sagindome.generate\n"
            "import sagindome.pointprocess\n"
            "print(generate is sagindome.pointprocess.generate"
            " and vars(sagindome)['generate'] is generate)")
        assert same == "True\n"


def _spec() -> ScenarioSpec:
    return ScenarioSpec(Scenario.S2G, space_altitude_km=600.0, min_elevation_rad=0.25)


def _sample() -> SampleConfig:
    return SampleConfig(5e-6, rx_polar_rad=0.5, mode="paper_faithful", seed=7)


_SPEC_REPR = ("ScenarioSpec(scenario=<Scenario.S2G: 's2g'>, air_altitude_km=None, "
              "space_altitude_km=600.0, antenna=None, min_elevation_rad=0.25, "
              "earth_radius_km=6371.0)")
_SAMPLE_REPR = ("SampleConfig(density_per_km2=5e-06, rx_azimuth_rad=0.0, rx_polar_rad=0.5, "
                "mode=<SampleMode.PAPER_FAITHFUL: 'paper_faithful'>, seed=7)")

# Each record: a function that builds a sample instance, the repr the
# record printed as a dataclass, and whether it compares by value (True)
# or by identity (False).
_RECORDS = {
    "AntennaConfig": (
        lambda: AntennaConfig(70.0, 4.0, 40e9),
        "AntennaConfig(illumination_coefficient=70.0, reflector_diameter_m=4.0, "
        "carrier_frequency_hz=40000000000.0)", True),
    "DomeGeometry": (
        lambda: DomeGeometry(6971.0, 6371.0, 0.5, False),
        "DomeGeometry(transmitter_radius_km=6971.0, receiver_radius_km=6371.0, "
        "vertex_angle_rad=0.5, tangent_limited=False, delta=0.8775825618903728, "
        "area_km2=37377764.24028399)", True),
    "ScenarioSpec": (_spec, _SPEC_REPR, True),
    "RangeViolation": (
        lambda: RangeViolation("air_altitude_km", 60.0, 1.0, 50.0),
        "RangeViolation(parameter='air_altitude_km', value=60.0, low=1.0, high=50.0)", True),
    "SweepSpec": (
        lambda: SweepSpec(_spec(), SweepParameter.MIN_ELEVATION, 0.0, 1.5, 4),
        f"SweepSpec(base={_SPEC_REPR}, parameter=<SweepParameter.MIN_ELEVATION: "
        "'min_elevation'>, low=0.0, high=1.5, steps=4, scale=<SweepScale.LINEAR: 'linear'>)",
        True),
    "SampleConfig": (_sample, _SAMPLE_REPR, True),
    "Descriptor": (
        lambda: Descriptor(_spec(), _sample(), ("density_per_km2",)),
        f"Descriptor(spec={_SPEC_REPR}, sample={_SAMPLE_REPR}, "
        "missing=('density_per_km2',))", True),
    "Topology": (
        lambda: Topology(np.array([[1.0, 2.0, 3.0]])),
        "Topology(points=array([[1., 2., 3.]]))", False),
    "SweepTable": (
        lambda: SweepTable(array("d", [0.5]), array("d", [0.25]), array("d", [1.5]), [False],
                           {1: "why"}),
        "SweepTable(parameter_value=array('d', [0.5]), vertex_angle_rad=array('d', [0.25]), "
        "area_km2=array('d', [1.5]), tangent_limited=[False], errors={1: 'why'})", False),
}


class TestRecords:
    @pytest.mark.parametrize("name", list(_RECORDS))
    def test_record_behaves_as_its_dataclass_did(self, name):
        build, text, by_value = _RECORDS[name]
        record, twin = build(), build()
        assert repr(record) == text
        assert record == record
        assert (record == twin) is by_value
        if by_value:
            assert hash(record) == hash(twin)
        assert len({record, twin}) == (1 if by_value else 2)
        assert record != object()
        field = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = None
        assert repr(record) == text
        for restored in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(restored) is type(record) and restored is not record
            assert repr(restored) == text
            assert (restored == record) is by_value
