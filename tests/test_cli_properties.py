"""Property test: any descriptor over the known keys ends in exit 0 with strict
JSON, or exit 2 with one ``error:`` line, never in a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagindome.cli import main

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=descriptors())
def test_exit_code_and_output(descriptor_path, data):
    descriptor_path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("coverage", "count"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--descriptor", str(descriptor_path)])
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
