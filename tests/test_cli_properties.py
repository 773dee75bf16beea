"""Property tests: any descriptor over the known keys ends in exit 0 with strict
JSON, on ``coverage``, ``count`` and ``sample`` alike, and any sweep over
hostile flags and grid bounds in exit 0 with CSV; or else in exit 2 with one
``error:`` line, never in a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagindome import Scenario, SweepParameter
from sagindome.cli import main
from sagindome.scenarios import parameter_applicable

# One valid descriptor per scenario (the reference configurations), plus
# the sampling keys ``count`` needs.
VALID = {
    "g2a": {"air_altitude_km": 5, "carrier_frequency_hz": 2e9,
            "illumination_coefficient": 70, "reflector_diameter_m": 0.2},
    "a2s": {"air_altitude_km": 5, "space_altitude_km": 20000, "carrier_frequency_hz": 40e9,
            "illumination_coefficient": 70, "reflector_diameter_m": 4},
    "g2s": {"space_altitude_km": 20000, "carrier_frequency_hz": 40e9,
            "illumination_coefficient": 70, "reflector_diameter_m": 4},
    "a2g": {"air_altitude_km": 5, "min_elevation_deg": 10},
    "s2a": {"air_altitude_km": 5, "space_altitude_km": 600, "min_elevation_deg": 10},
    "s2g": {"space_altitude_km": 600, "min_elevation_deg": 10},
}
KEYS = ("scenario", "carrier_frequency_hz", "illumination_coefficient",
        "reflector_diameter_m", "min_elevation_deg", "air_altitude_km",
        "space_altitude_km", "earth_radius_km", "density_per_km2", "rx_azimuth_deg",
        "rx_polar_deg", "seed", "mode")

HOSTILE = st.one_of(
    st.sampled_from([0, 0.0, -0.0, -1, -600.0, 1e308, 1.7976931348623157e308, 5e-324,
                     10 ** 30, 10 ** 400, True, False, None, "", "600",
                     float("nan"), float("inf"), *VALID, "area_uniform", "paper_faithful"]),
    st.floats(),
    st.integers(),
    st.text(max_size=8),
)


@st.composite
def descriptors(draw) -> dict:
    scenario = draw(st.sampled_from(sorted(VALID)))
    data = {"scenario": scenario, **VALID[scenario], "density_per_km2": 5e-6, "seed": 42}
    # Hostile values on keys the descriptor has: the checks of each value.
    for key in draw(st.lists(st.sampled_from(sorted(data)), unique=True, max_size=2)):
        data[key] = draw(HOSTILE)
    # A missing key, and any known key added, so also one that does not
    # apply to the scenario.
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        del data[key]
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=1)):
        data[key] = draw(HOSTILE)
    return data


def _reject_constant(token: str):
    raise AssertionError(f"non-standard JSON token {token}")


@pytest.fixture(scope="module")
def descriptor_path(tmp_path_factory):
    return tmp_path_factory.mktemp("descriptors") / "descriptor.json"


# What ``count`` or ``sample`` may refuse on a descriptor ``coverage`` takes:
# a sampling key it needs that the descriptor lacks, or a density whose
# product with an area overflows or exceeds the sample cap.
MISSING_KEY_LINES = ("error: descriptor is missing density_per_km2\n",
                     "error: descriptor is missing seed\n")
PRODUCT_PREFIXES = ("error: expected count density * area overflows",
                    "error: full-sphere count 4*pi*r^2 * density overflows",
                    "error: Poisson mean floor(density * area) must be <=")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=descriptors())
def test_exit_code_and_output(descriptor_path, data):
    descriptor_path.write_text(json.dumps(data), encoding="utf-8")
    points_path = descriptor_path.with_name("points.csv")
    refusals = {}
    for command in ("coverage", "count", "sample"):
        argv = [command, "--descriptor", str(descriptor_path)]
        if command == "sample":
            argv += ["--output", str(points_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant),
                              dict)
        else:
            assert code == 2
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert lines[0].endswith("\n")
            refusals[command] = lines[0]
    # One boundary: the commands refuse a descriptor with the same line,
    # unless the descriptor is whole and only what a command adds fails.
    if "coverage" in refusals:
        assert refusals == dict.fromkeys(("coverage", "count", "sample"),
                                         refusals["coverage"])
    else:
        for line in refusals.values():
            assert line in MISSING_KEY_LINES or line.startswith(PRODUCT_PREFIXES)


# Float flag values and grid bounds: argparse refuses anything else with
# its own usage text, before the program runs.
HOSTILE_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -600.0, 5e-324, 1e-320, 1e308,
                     1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]),
    st.floats(),
)
GRID_BOUND = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e308, -0.0, float("inf"), float("-inf"),
                     0.0, 1.0, 10.0, 90.0, 600.0, 20000.0, 2e9, 40e9]),
    st.floats(-100.0, 5e10),
)


def _flag(key: str, value) -> str:
    # ``--key=value``, so that argparse never reads ``-inf`` as a flag.
    return f"--{key.replace('_', '-')}={value!r}"


@st.composite
def sweep_argvs(draw) -> list[str]:
    scenario = draw(st.sampled_from(sorted(VALID)))
    flags = {key: float(value) for key, value in VALID[scenario].items()}
    for key in draw(st.lists(st.sampled_from(sorted(flags)), max_size=1)):
        flags[key] = draw(HOSTILE_FLOAT)
    parameter = draw(st.sampled_from([p.value for p in SweepParameter
                                      if parameter_applicable(p, Scenario(scenario))]))
    bounds = draw(st.lists(GRID_BOUND, min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        bounds.sort()
    return ["sweep", f"--scenario={scenario}",
            *(_flag(key, value) for key, value in flags.items()),
            f"--param={parameter}", _flag("from", bounds[0]), _flag("to", bounds[1]),
            f"--steps={draw(st.sampled_from([2, 3, 17]))}",
            f"--scale={draw(st.sampled_from(['linear', 'log']))}"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=sweep_argvs())
# A log elevation grid whose start underflows to 0 rad.
@example(argv=["sweep", "--scenario=s2g", "--space-altitude-km=600.0",
               "--min-elevation-deg=10.0", "--param=min_elevation", "--from=5e-324",
               "--to=90.0", "--steps=3", "--scale=log"])
# A fixed f * D that underflows to 0.
@example(argv=["sweep", "--scenario=g2s", "--space-altitude-km=600.0",
               "--carrier-frequency-hz=1e-320", "--illumination-coefficient=70.0",
               "--reflector-diameter-m=1e-320", "--param=space_altitude", "--from=500.0",
               "--to=600.0", "--steps=2", "--scale=linear"])
def test_sweep_exit_code_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        steps = int(argv[-2].partition("=")[2])
        rows = out.getvalue().splitlines()
        assert rows[0] == "param_value,vertex_angle_rad,area_km2,tangent_limited"
        assert len(rows) == steps + 1
        assert all(len(row.split(",")) == 4 for row in rows[1:])
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("warning: "))
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith("\n")
