"""End-to-end command-line behaviour: payloads, exit codes, reproducibility."""

import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sagindome import (
    AntennaConfig,
    InvalidParameterError,
    SampleConfig,
    Scenario,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    cap_area,
    coverage,
    load_descriptor,
    run_sweep,
)
import sagindome
from sagindome import pointprocess, sweeps
from sagindome.cli import main
from sagindome.io import (
    POINTS_CSV_HEADER,
    format_real,
    points_blocks_csv_chunks,
    sweep_blocks_csv_chunks,
)
from sagindome.pointprocess import MAX_SAMPLE_POINTS
from sagindome.scenarios import MAX_SWEEP_STEPS
from sagindome.sweeps import _BLOCK_ROWS

from test_pointprocess import MODES, one_shot_points

S2G_DESCRIPTOR = """{
  "scenario": "s2g",
  "space_altitude_km": 600,
  "min_elevation_deg": 10,
  "density_per_km2": 5e-6,
  "seed": 42
}
"""

A2G_DESCRIPTOR = """{
  "scenario": "a2g",
  "air_altitude_km": 5,
  "min_elevation_deg": 10,
  "density_per_km2": 0.005,
  "seed": 7
}
"""

G2S_MEO_FLAGS = [
    "--scenario", "g2s", "--space-altitude-km", "20000",
    "--carrier-frequency-hz", "40e9", "--illumination-coefficient", "70",
    "--reflector-diameter-m", "4",
]

# f * D = 1e-300 * 1e-300 underflows to 0 in the beamwidth's denominator.
UNDERFLOW_FLAGS = [
    "--scenario", "g2a", "--air-altitude-km", "10",
    "--illumination-coefficient", "1e300", "--reflector-diameter-m", "1e-300",
]
UNDERFLOW_REASON = ("carrier_frequency_hz * reflector_diameter_m underflows to 0: "
                    "1e-300 * 1e-300")



def a2s_air_sweep(space_altitude: str) -> list[str]:
    """An air-altitude sweep of a2s under the given space altitude."""
    return ["--scenario", "a2s", "--space-altitude-km", space_altitude,
            "--carrier-frequency-hz", "40e9", "--illumination-coefficient", "70",
            "--reflector-diameter-m", "4", "--param", "air_altitude", "--from", "1",
            "--to", "10"]


def count_grid_points(monkeypatch) -> list[int]:
    """The index of every grid point evaluated from now on, in order."""
    evaluated = []
    grid_point = sweeps.grid_point

    def counting(*args):
        point = grid_point(*args)
        return lambda index: evaluated.append(index) or point(index)

    monkeypatch.setattr(sweeps, "grid_point", counting)
    return evaluated


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def s2g_descriptor(tmp_path):
    path = tmp_path / "s2g.json"
    path.write_text(S2G_DESCRIPTOR)
    return str(path)


@pytest.fixture
def a2g_descriptor(tmp_path):
    path = tmp_path / "a2g.json"
    path.write_text(A2G_DESCRIPTOR)
    return str(path)


class TestCoverageCommand:
    def test_s2g_payload(self, s2g_descriptor, capsys):
        code, out, err = run_cli(["coverage", "--descriptor", s2g_descriptor], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["scenario"] == "s2g"
        assert payload["r_t_km"] == 6971.0
        assert payload["r_r_km"] == 6371.0
        assert payload["area_km2"] == pytest.approx(1.15884092e7, rel=0.005)
        assert payload["tangent_limited"] is False
        assert payload["validation_warnings"] == []
        assert "beamwidth_rad" not in payload

    def test_a2g_payload(self, a2g_descriptor, capsys):
        code, out, _ = run_cli(["coverage", "--descriptor", a2g_descriptor], capsys)
        assert code == 0
        assert json.loads(out)["area_km2"] == pytest.approx(2.4643e3, rel=0.005)

    def test_uplink_flags_payload(self, capsys):
        code, out, _ = run_cli(["coverage", *G2S_MEO_FLAGS], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["beamwidth_rad"] > 0.0
        assert payload["area_km2"] == pytest.approx(1648.6, rel=0.005)

    def test_round_trip_area_from_emitted_fields(self, s2g_descriptor, capsys):
        _, out, _ = run_cli(["coverage", "--descriptor", s2g_descriptor], capsys)
        payload = json.loads(out)
        recomputed = cap_area(payload["r_t_km"], payload["vertex_angle_rad"])
        assert abs(recomputed - payload["area_km2"]) <= 1e-12 * payload["area_km2"]

    def test_validation_warnings_emitted(self, capsys):
        code, out, _ = run_cli([
            "coverage", "--scenario", "s2g", "--space-altitude-km", "600",
            "--min-elevation-deg", "45"], capsys)
        assert code == 0
        warnings = json.loads(out)["validation_warnings"]
        assert len(warnings) == 1
        assert warnings[0]["parameter"] == "min_elevation_rad"
        assert warnings[0]["severity"] == "warning"
        assert len(warnings[0]["permitted"]) == 2

    def test_malformed_json_exits_2_with_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, out, err = run_cli(["coverage", "--descriptor", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_infinite_area_exit_2(self, capsys):
        code, out, err = run_cli(["coverage", "--scenario", "s2g",
                                  "--space-altitude-km", "1e308",
                                  "--min-elevation-deg", "10"], capsys)
        assert code == 2 and out == ""
        assert err == "error: area_km2 must be finite and >= 0, got inf\n"

    @pytest.mark.parametrize("flags, name", [
        (["--earth-radius-km", "inf"], "earth_radius_km"),
        (["--space-altitude-km", "inf"], "space_altitude_km"),
        # Finite inputs whose radii both overflow: the receiver's is named.
        (["--scenario", "s2a", "--earth-radius-km", "1e308", "--air-altitude-km", "1e308",
          "--space-altitude-km", "1.5e308"], "r_r_km"),
    ], ids=["earth-flag", "altitude-flag", "radii-overflow"])
    def test_infinite_downlink_input_named(self, flags, name, capsys):
        base = ["coverage", "--scenario", "s2g", "--space-altitude-km", "600",
                "--min-elevation-deg", "10"]
        code, out, err = run_cli(base + flags, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {name} must be finite, got inf\n"

    def test_infinite_antenna_input_named(self, capsys):
        flags = [*G2S_MEO_FLAGS]
        flags[flags.index("--illumination-coefficient") + 1] = "inf"
        code, out, err = run_cli(["coverage", *flags], capsys)
        assert code == 2 and out == ""
        assert err == "error: illumination_coefficient must be finite, got inf\n"

    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"scenario": "s2g", "space_altitude_km": 1' + "0" * 400
                        + ', "min_elevation_deg": 10}')
        code, out, err = run_cli(["coverage", "--descriptor", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == ("error: space_altitude_km must be finite, got an integer "
                       "beyond the float range\n")

    def test_underflowing_beamwidth_denominator_exit_2(self, capsys):
        code, out, err = run_cli(["coverage", *UNDERFLOW_FLAGS,
                                  "--carrier-frequency-hz", "1e-300"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {UNDERFLOW_REASON}\n"

    @pytest.mark.parametrize("descriptor,reason", [
        # An altitude lost in rounding against a huge Earth radius, and
        # against the default one.
        ({"scenario": "a2g", "air_altitude_km": 5, "min_elevation_deg": 10,
          "earth_radius_km": 7.205759403792794e+16},
         "earth_radius_km=7.205759403792794e+16 with air_altitude_km=5.0"),
        ({"scenario": "a2g", "air_altitude_km": 1e-13, "min_elevation_deg": 10},
         "earth_radius_km=6371.0 with air_altitude_km=1e-13"),
        # Two altitudes that round to the same radius.
        ({"scenario": "a2s", "air_altitude_km": 3, "space_altitude_km": 4.5,
          "earth_radius_km": 1e16, "carrier_frequency_hz": 2e9,
          "illumination_coefficient": 70, "reflector_diameter_m": 4},
         "earth_radius_km=1e+16 with air_altitude_km=3.0 and space_altitude_km=4.5"),
    ])
    def test_equal_radii_named_by_their_inputs(self, descriptor, reason, tmp_path, capsys):
        expected = (2, "", "error: transmitter and receiver radii round to the same "
                           f"value: {reason}\n")
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(descriptor))
        assert run_cli(["coverage", "--descriptor", str(path)], capsys) == expected
        flags = [text for key, value in descriptor.items()
                 for text in ("--" + key.replace("_", "-"), str(value))]
        assert run_cli(["coverage", *flags], capsys) == expected

    def test_descriptor_and_flags_conflict(self, s2g_descriptor, capsys):
        code, _, err = run_cli(["coverage", "--descriptor", s2g_descriptor,
                                "--scenario", "s2g"], capsys)
        assert code == 2 and "not both" in err

    def test_earth_radius_sources(self, s2g_descriptor, capsys):
        code, out, _ = run_cli(["coverage", "--scenario", "s2g",
                                "--space-altitude-km", "600", "--min-elevation-deg", "10",
                                "--earth-radius-km", "6400"], capsys)
        assert code == 0 and json.loads(out)["r_t_km"] == 7000.0
        code, out, err = run_cli(["coverage", "--descriptor", s2g_descriptor,
                                  "--earth-radius-km", "6400"], capsys)
        assert code == 2 and out == "" and "not both" in err


class TestSweepCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency",
            "--from", "2e9", "--to", "40e9", "--steps", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param_value,vertex_angle_rad,area_km2,tangent_limited"
        assert len(lines) == 6

    def test_frequency_sweep_area_strictly_decreasing(self, capsys):
        code, out, _ = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency",
            "--from", "2e9", "--to", "40e9", "--steps", "50", "--scale", "log"],
            capsys)
        assert code == 0
        areas = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_elevation_flags_are_degrees(self, capsys):
        code, out, _ = run_cli([
            "sweep", "--scenario", "s2g", "--space-altitude-km", "600",
            "--param", "min_elevation", "--from", "5", "--to", "30",
            "--steps", "2"], capsys)
        assert code == 0
        first = out.strip().split("\n")[1]
        assert float(first.split(",")[0]) == pytest.approx(0.087266462599716474)

    def test_swept_flag_may_be_omitted(self, capsys):
        code, _, _ = run_cli([
            "sweep", "--scenario", "g2s", "--space-altitude-km", "20000",
            "--illumination-coefficient", "70", "--reflector-diameter-m", "4",
            "--param", "carrier_frequency", "--from", "2e9", "--to", "40e9",
            "--steps", "3"], capsys)
        assert code == 0

    def test_inapplicable_parameter_exits_2(self, capsys):
        code, _, err = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "min_elevation",
            "--from", "5", "--to", "30", "--steps", "3"], capsys)
        assert code == 2
        assert "inapplicable" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency",
            "--from", "2e9", "--to", "40e9", "--steps", "3",
            "--output", str(target)], capsys)
        assert code == 0 and out == ""
        content = target.read_bytes()
        assert content.startswith(b"param_value,")
        assert b"\r" not in content


    S2A_SPACE_SWEEP = [
        "sweep", "--scenario", "s2a", "--air-altitude-km", "10",
        "--min-elevation-deg", "10", "--param", "space_altitude", "--steps", "10"]

    def test_invalid_first_grid_point_is_a_nan_row(self, capsys):
        # Space altitude 1 km lies below the 10 km air layer: that row fails,
        # the other nine are evaluated.
        code, out, err = run_cli([*self.S2A_SPACE_SWEEP, "--from", "1", "--to", "35786"],
                                 capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 10
        assert rows[0] == ["1", "nan", "nan", "false"]
        assert all(math.isfinite(float(row[2])) for row in rows[1:])
        assert err.count("\n") == 1 and "1 of 10 sweep rows failed" in err

    def test_fixed_flags_invalid_at_every_grid_point_exit_2(self, capsys):
        code, out, err = run_cli([*self.S2A_SPACE_SWEEP, "--from", "1", "--to", "5"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: air_altitude_km=10.0 must be below "
                       "space_altitude_km=1.0\n")

    @pytest.mark.parametrize("argv,reason", [
        (["--scenario", "g2s", "--space-altitude-km", "20000",
          "--illumination-coefficient", "70", "--reflector-diameter-m", "-4",
          "--param", "carrier_frequency", "--from", "2e9", "--to", "40e9"],
         "reflector_diameter_m must be > 0, got -4.0"),
        # The base's frequency is the first valid grid value, so the fixed
        # altitude is named, not the invalid grid start.
        (["--scenario", "a2s", "--air-altitude-km", "10", "--space-altitude-km", "-600",
          "--illumination-coefficient", "70", "--reflector-diameter-m", "4",
          "--param", "carrier_frequency", "--from", "0", "--to", "40e9"],
         "space_altitude_km must be > 0, got -600.0"),
        # Likewise the base's elevation, so the altitude order is named.
        (["--scenario", "s2a", "--air-altitude-km", "700", "--space-altitude-km", "600",
          "--min-elevation-deg", "10", "--param", "min_elevation", "--from", "-10",
          "--to", "30"],
         "air_altitude_km=700.0 must be below space_altitude_km=600.0"),
        # The other layer's altitude fails on its own, so no grid value can
        # pass: the base is parsed at the grid start.
        (a2s_air_sweep("nan"), "space_altitude_km must be > 0, got nan"),
    ])
    def test_invalid_fixed_flag_exit_2(self, argv, reason, capsys):
        code, out, err = run_cli(["sweep", *argv, "--steps", "3"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("altitude, reason", [
        ("nan", "space_altitude_km must be > 0, got nan"),
        ("-600", "space_altitude_km must be > 0, got -600.0"),
    ])
    def test_invalid_other_altitude_searches_no_grid(self, altitude, reason, capsys,
                                                     monkeypatch):
        evaluated = count_grid_points(monkeypatch)
        code, out, err = run_cli(["sweep", *a2s_air_sweep(altitude), "--steps", "1000000"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == f"error: {reason}\n"
        assert evaluated == []

    @pytest.mark.parametrize("argv, reason", [
        # Elevations below 0 and air altitudes above the space layer: no grid
        # value is valid, so the scenario is parsed at the grid start.
        (["--scenario", "s2g", "--space-altitude-km", "600", "--param", "min_elevation",
          "--from", "-20", "--to", "-10"],
         "min_elevation_rad must lie in [0, pi/2], got -0.3490658503988659"),
        ([*a2s_air_sweep("600")[:-4], "--from", "700", "--to", "800"],
         "air_altitude_km=700.0 must be below space_altitude_km=600.0"),
    ], ids=["s2g-elevation", "a2s-air"])
    def test_base_search_bisects_the_grid(self, argv, reason, capsys, monkeypatch):
        # A grid with no valid value ends as at 3 steps, after O(log steps)
        # grid points, not a walk over all of them.
        assert run_cli(["sweep", *argv, "--steps", "3"], capsys) == (2, "", f"error: {reason}\n")
        evaluated = count_grid_points(monkeypatch)
        code, out, err = run_cli(["sweep", *argv, "--steps", str(MAX_SWEEP_STEPS)], capsys)
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        assert 0 < len(evaluated) <= 2 * math.ceil(math.log2(MAX_SWEEP_STEPS))

    @pytest.mark.parametrize("steps", [str(MAX_SWEEP_STEPS + 1), "10" + "0" * 15])
    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_steps_above_the_cap_exit_2_before_allocating(self, steps, scale, capsys,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(sweeps, "grid_point", refuse)
        code, out, err = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency",
            "--from", "2e9", "--to", "40e9", "--steps", steps, "--scale", scale], capsys)
        assert code == 2 and out == ""
        assert err == f"error: steps must be <= {MAX_SWEEP_STEPS}, got {steps}\n"

    def test_failed_rows_reported_on_stderr(self, capsys):
        # The grid of tests/test_sweeps.py: below ~583 MHz the beam is wider
        # than 180 degrees.
        code, out, err = run_cli([
            "sweep", "--scenario", "g2a", "--air-altitude-km", "5",
            "--illumination-coefficient", "70", "--reflector-diameter-m", "0.2",
            "--param", "carrier_frequency", "--from", "300e6", "--to", "2.4e9",
            "--steps", "22", "--scale", "log"], capsys)
        table = run_sweep(SweepSpec(
            ScenarioSpec(Scenario.G2A, air_altitude_km=5.0,
                         antenna=AntennaConfig(70.0, 0.2, 2e9)),
            SweepParameter.CARRIER_FREQUENCY, 300e6, 2.4e9, 22, SweepScale.LOGARITHMIC))
        failed = [table.errors[index] for index in sorted(table.errors)]
        assert code == 0
        assert out == "".join(sweep_blocks_csv_chunks([table]))
        assert len(failed) == 7
        assert err == (f"warning: 7 of 22 sweep rows failed; first at "
                       f"param_value=300000000: {failed[0]}\n")
        assert failed[0].startswith("beamwidth_rad must lie in (0, pi)")

    def test_equal_radii_row_named_by_its_inputs(self, capsys):
        code, out, err = run_cli([
            "sweep", "--scenario", "a2g", "--min-elevation-deg", "10",
            "--param", "air_altitude", "--from", "1e-15", "--to", "10", "--steps", "3"], capsys)
        assert code == 0
        assert out.split("\n")[1] == "1.0000000000000001e-15,nan,nan,false"
        assert err == ("warning: 1 of 3 sweep rows failed; first at "
                       "param_value=1.0000000000000001e-15: transmitter and receiver radii "
                       "round to the same value: earth_radius_km=6371.0 with "
                       "air_altitude_km=1e-15\n")

    def test_underflowing_beamwidth_denominator_is_a_nan_row(self, capsys):
        code, out, err = run_cli([
            "sweep", *UNDERFLOW_FLAGS, "--param", "carrier_frequency",
            "--from", "1e-300", "--to", "1e-299", "--steps", "3"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[1:] for row in rows] == [["nan", "nan", "false"]] * 3
        assert err == (f"warning: 3 of 3 sweep rows failed; first at "
                       f"param_value=1e-300: {UNDERFLOW_REASON}\n")

    def test_underflowing_beamwidth_denominator_with_fixed_frequency(self, capsys):
        # A fixed f * D that underflows gives nan rows, as a swept one does.
        code, out, err = run_cli([
            "sweep", "--scenario", "g2s", "--space-altitude-km", "600",
            "--carrier-frequency-hz", "1e-320", "--illumination-coefficient", "70",
            "--reflector-diameter-m", "1e-320", "--param", "space_altitude",
            "--from", "500", "--to", "600", "--steps", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["500,nan,nan,false", "600,nan,nan,false"]
        assert err == ("warning: 2 of 2 sweep rows failed; first at param_value=500: "
                       "carrier_frequency_hz * reflector_diameter_m underflows to 0: "
                       "1e-320 * 1e-320\n")

    def test_log_elevation_grid_underflowing_to_zero_rad_exit_2(self, capsys):
        # 5e-324 degrees passes the check in degrees but is 0.0 in radians.
        code, out, err = run_cli([
            "sweep", "--scenario", "s2g", "--space-altitude-km", "600",
            "--min-elevation-deg", "10", "--param", "min_elevation",
            "--from", "5e-324", "--to", "90", "--steps", "3", "--scale", "log"], capsys)
        assert code == 2 and out == ""
        assert err == "error: logarithmic sweeps require low > 0\n"

    @pytest.mark.parametrize("steps", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("first_failed", ["inside", "boundary", "row-0"])
    def test_streamed_blocks_match_the_whole_table(self, steps, first_failed, tmp_path,
                                                   capsys):
        # Air altitudes at or above the space layer fail.  The space altitude
        # is the grid value of the row where failures start: two thirds
        # along, or row _BLOCK_ROWS (the last row of a shorter grid).  In the
        # row-0 case the grid starts at the invalid altitude 0 and its last
        # third lies above a 20 000 km space layer, so the first reason and
        # most of the count come from different blocks.
        low, high = (0.0, 30000.0) if first_failed == "row-0" else (1.0, 30000.0)
        point = sweeps.grid_point(low, high, steps, SweepScale.LINEAR)
        space = {"inside": point(steps * 2 // 3),
                 "boundary": point(min(_BLOCK_ROWS, steps - 1)),
                 "row-0": 20000.0}[first_failed]
        argv = ["sweep", *a2s_air_sweep(repr(space))[:-4], "--from", repr(low),
                "--to", repr(high), "--steps", str(steps)]
        table = run_sweep(SweepSpec(
            ScenarioSpec(Scenario.A2S, air_altitude_km=1.0, space_altitude_km=space,
                         antenna=AntennaConfig(70.0, 4.0, 40e9)),
            SweepParameter.AIR_ALTITUDE, low, high, steps))
        first = min(table.errors)
        assert first == {"inside": steps * 2 // 3, "boundary": min(_BLOCK_ROWS, steps - 1),
                         "row-0": 0}[first_failed]
        assert max(table.errors) == steps - 1
        report = (f"warning: {len(table.errors)} of {steps} sweep rows failed; first at "
                  f"param_value={format_real(table.parameter_value[first])}: "
                  f"{table.errors[first]}\n")
        expected = "".join(sweep_blocks_csv_chunks([table]))
        assert run_cli(argv, capsys) == (0, expected, report)
        target = tmp_path / "rows.csv"
        assert run_cli([*argv, "--output", str(target)], capsys) == (0, "", report)
        assert target.read_bytes() == expected.encode()

    def test_streamed_sweep_holds_one_block(self, tmp_path, capsys):
        # 1e5 a2s air altitudes, a third of them above the space layer.  The
        # whole table and its reasons would take over 10 MB; one block and
        # its CSV text take about 0.5 MB.
        target = tmp_path / "rows.csv"
        argv = ["sweep", *a2s_air_sweep("20000")[:-4], "--from", "1", "--to", "30000",
                "--steps", "100000", "--output", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 0
        assert err.startswith("warning: 33335 of 100000 sweep rows failed; ")
        assert target.stat().st_size > 5_000_000
        assert peak < 2_000_000

    @pytest.mark.parametrize("argv, reason", [
        ([*G2S_MEO_FLAGS[:-2], "--reflector-diameter-m", "-4", "--param",
          "carrier_frequency", "--from", "2e9", "--to", "40e9", "--steps", "3"],
         "reflector_diameter_m must be > 0, got -4.0"),
        ([*S2A_SPACE_SWEEP[1:], "--from", "1", "--to", "5"],
         "air_altitude_km=10.0 must be below space_altitude_km=1.0"),
    ], ids=["invalid-flag", "no-valid-grid-value"])
    def test_exit_2_on_fixed_values_writes_no_output(self, argv, reason, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, err = run_cli(["sweep", *argv, "--output", str(target)], capsys)
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        assert not target.exists()

    def test_sweep_checks_run_before_the_output_is_opened(self, tmp_path, capsys,
                                                          monkeypatch):
        # The base scenario parses; the sweep's own eager set-up, which reads
        # the base scenario's values, is made to fail, so the command ends
        # before writing anything.
        def refuse(*args):
            raise InvalidParameterError("refused")

        monkeypatch.setattr(sweeps, "_values", refuse)
        target = tmp_path / "rows.csv"
        code, out, err = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency", "--from", "2e9",
            "--to", "40e9", "--steps", "3", "--output", str(target)], capsys)
        assert (code, out, err) == (2, "", "error: refused\n")
        assert not target.exists()

    def test_no_report_without_failed_rows(self, capsys):
        code, _, err = run_cli([
            "sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency",
            "--from", "2e9", "--to", "40e9", "--steps", "5"], capsys)
        assert code == 0 and err == ""


class TestSampleCommand:
    def test_summary_and_points(self, s2g_descriptor, tmp_path, capsys):
        target = tmp_path / "points.csv"
        code, out, _ = run_cli(["sample", "--descriptor", s2g_descriptor,
                                "--output", str(target)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["seed"] == 42
        assert summary["rng_algorithm"] == "pcg64"
        assert summary["mode"] == "area_uniform"
        assert summary["area_km2"] == pytest.approx(1.15884092e7, rel=0.005)
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "x_km,y_km,z_km"
        assert len(lines) == 1 + summary["count"]

    def test_byte_identical_reruns(self, s2g_descriptor, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(["sample", "--descriptor", s2g_descriptor,
                        "--output", str(first)], capsys)[0] == 0
        assert run_cli(["sample", "--descriptor", s2g_descriptor,
                        "--output", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_density_header_only(self, tmp_path, capsys):
        descriptor = tmp_path / "zero.json"
        descriptor.write_text(S2G_DESCRIPTOR.replace("5e-6", "0"))
        target = tmp_path / "empty.csv"
        code, out, _ = run_cli(["sample", "--descriptor", str(descriptor),
                                "--output", str(target)], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 0
        assert target.read_text() == "x_km,y_km,z_km\n"

    def test_unwritable_output_exits_3(self, s2g_descriptor, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "points.csv"
        code, out, err = run_cli(["sample", "--descriptor", s2g_descriptor,
                                  "--output", str(target)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("density", ["1e3", "1e308"])
    def test_poisson_mean_above_the_cap_exit_2_before_drawing(self, density, tmp_path,
                                                              capsys, monkeypatch):
        # 1e3 per km^2 on this dome is a mean of 11 588 409 182 points (about
        # 278 GB of coordinates); 1e308 overflows the mean to inf.
        class Refuse:
            def random(self, *args, **kwargs):
                raise AssertionError("nothing may be drawn")

        monkeypatch.setattr(pointprocess, "make_rng", lambda *args: Refuse())
        descriptor = tmp_path / "dense.json"
        descriptor.write_text(S2G_DESCRIPTOR.replace("5e-6", density))
        target = tmp_path / "points.csv"
        code, out, err = run_cli(["sample", "--descriptor", str(descriptor),
                                  "--output", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: Poisson mean floor(density * area) must be "
                              f"<= {MAX_SAMPLE_POINTS}, got density * area = ")
        assert err.count("\n") == 1
        assert not target.exists()

    @MODES
    @pytest.mark.parametrize("block_rows, chunk_rows, count", [
        # Seven-row blocks put many block boundaries in a small draw.  The
        # CLI writes each block as one chunk; the same points cut into
        # chunks of another size give the same text.
        *((7, 3, count) for count in (0, 1, 6, 7, 8, 13, 14, 15, 7 * 9 + 3)),
        *((7, 2048, count) for count in (7, 8, 7 * 9 + 3)),
        # A second large block size shows that the bytes do not follow it.
        *((rows, 2048, count) for rows in (pointprocess._BLOCK_ROWS, 4096)
          for count in (rows - 1, rows, rows + 1, 2 * rows + 1)),
    ])
    def test_streamed_blocks_match_the_one_shot_draw(self, mode, block_rows, chunk_rows,
                                                     count, tmp_path, capsys, monkeypatch):
        # The count is fixed so that draws end on and next to block
        # boundaries.  A draw of more than one block takes its polar uniforms
        # from a copy of the stream advanced past the azimuths; the one-shot
        # draw takes them from one generator after all the azimuths and
        # rotates the whole draw by one product.
        monkeypatch.setattr(pointprocess, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(pointprocess, "poisson_count", lambda *args: count)
        descriptor = tmp_path / "oriented.json"
        descriptor.write_text(json.dumps({
            "scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10,
            "density_per_km2": 1e-4, "rx_azimuth_deg": 137, "rx_polar_deg": 63,
            "seed": 2024, "mode": mode.value}))
        target = tmp_path / "points.csv"
        code, out, err = run_cli(["sample", "--descriptor", str(descriptor),
                                  "--output", str(target)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == count
        loaded = load_descriptor(str(descriptor))
        points = one_shot_points(coverage(loaded.spec), loaded.sample_config())
        assert len(points) == count
        # Compared as lines, so that a failure names its first row quickly.
        text = target.read_text()
        assert text.split("\n") == [
            POINTS_CSV_HEADER, *(",".join(map(format_real, row)) for row in points.tolist()), ""]
        assert text == "".join(points_blocks_csv_chunks(
            points[start:start + chunk_rows] for start in range(0, count, chunk_rows)))

    def test_streamed_sample_holds_one_block(self, tmp_path, capsys):
        # ~2e5 points: the whole draw's coordinates alone would take 4.8 MB,
        # and the draw held whole peaked at about 8.3 MB.  One block of 2 048
        # points and its text, written as one chunk, take about 1.2 MB, so
        # the peak, about 2.3 MB, is the 2 MiB buffer that lifts the
        # allocator's thresholds, freed untouched.
        descriptor = tmp_path / "bulk.json"
        descriptor.write_text(S2G_DESCRIPTOR.replace("5e-6", "0.0172"))
        target = tmp_path / "points.csv"
        tracemalloc.start()
        try:
            code = main(["sample", "--descriptor", str(descriptor), "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = json.loads(capsys.readouterr().out)["count"]
        assert code == 0 and count > 190_000
        assert target.stat().st_size > 10_000_000
        assert peak < 3_000_000

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        descriptor = tmp_path / "noseed.json"
        descriptor.write_text('{"scenario": "s2g", "space_altitude_km": 600, '
                              '"min_elevation_deg": 10, "density_per_km2": 5e-6}')
        code, _, err = run_cli(["sample", "--descriptor", str(descriptor),
                                "--output", str(tmp_path / "p.csv")], capsys)
        assert code == 2 and "seed" in err


class TestCountCommand:
    def test_leo_ground(self, s2g_descriptor, capsys):
        code, out, _ = run_cli(["count", "--descriptor", s2g_descriptor], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_product"] == pytest.approx(57.94, abs=0.01)
        assert payload["poisson_mean"] == 57
        assert payload["full_sphere_count"] == pytest.approx(3053.3, abs=0.1)

    def test_meo_uplink(self, tmp_path, capsys):
        descriptor = tmp_path / "g2s.json"
        descriptor.write_text(
            '{"scenario": "g2s", "space_altitude_km": 20000, '
            '"carrier_frequency_hz": 40e9, "illumination_coefficient": 70, '
            '"reflector_diameter_m": 4, "density_per_km2": 0.05}')
        code, out, _ = run_cli(["count", "--descriptor", str(descriptor)], capsys)
        assert code == 0
        assert json.loads(out)["exact_product"] == pytest.approx(82.43, rel=0.005)

    def test_zero_density(self, tmp_path, capsys):
        descriptor = tmp_path / "zero.json"
        descriptor.write_text(S2G_DESCRIPTOR.replace("5e-6", "0"))
        code, out, _ = run_cli(["count", "--descriptor", str(descriptor)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_product"] == 0.0
        assert payload["poisson_mean"] == 0
        assert payload["full_sphere_count"] == 0.0

    @pytest.mark.parametrize("density, what", [("1e300", "full-sphere count"),
                                                ("1e308", "expected count")])
    def test_overflowing_count_exit_2(self, density, what, tmp_path, capsys):
        descriptor = tmp_path / "dense.json"
        descriptor.write_text(S2G_DESCRIPTOR.replace("5e-6", density))
        code, out, err = run_cli(["count", "--descriptor", str(descriptor)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {what}") and err.count("\n") == 1

    def test_underflowing_beamwidth_denominator_exit_2(self, tmp_path, capsys):
        descriptor = tmp_path / "underflow.json"
        descriptor.write_text(
            '{"scenario": "g2a", "air_altitude_km": 10, "carrier_frequency_hz": 1e-300, '
            '"illumination_coefficient": 1e300, "reflector_diameter_m": 1e-300, '
            '"density_per_km2": 1}')
        code, out, err = run_cli(["count", "--descriptor", str(descriptor)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {UNDERFLOW_REASON}\n"

    def test_missing_density_exits_2(self, tmp_path, capsys):
        descriptor = tmp_path / "nodensity.json"
        descriptor.write_text('{"scenario": "s2g", "space_altitude_km": 600, '
                              '"min_elevation_deg": 10}')
        code, _, err = run_cli(["count", "--descriptor", str(descriptor)], capsys)
        assert code == 2 and "density" in err


class TestArgparseRefusals:
    """argparse's own refusals end like every other input error: one
    ``error:`` line, exit 2, no usage block."""

    GRID = ["--from", "0", "--to", "10"]

    @pytest.mark.parametrize("argv, start", [
        (["sweep", "--scenario", "s2g", "--space-altitude-km", "600", "--param",
          "min_elevation", *GRID, "--steps", "1e3"],
         "error: argument --steps: invalid int value"),
        (["sweep", "--scenario", "x2y", "--param", "min_elevation", *GRID, "--steps", "3"],
         "error: argument --scenario: invalid choice"),
        (["sweep", "--scenario", "s2g", "--space-altitude-km", "600", *GRID, "--steps", "3"],
         "error: the following arguments are required: --param"),
        ([], "error: the following arguments are required: command"),
    ], ids=["steps-not-int", "unknown-scenario", "missing-param", "no-subcommand"])
    def test_one_line_exit_2(self, argv, start, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0
        assert out.startswith("usage: sagindome") and err == ""


class TestNegativeFloatValues:
    """A float flag takes every negative value ``float`` reads, not only the
    plain decimals stock argparse takes, so such a value ends in the
    command's own result or one-line reason, never in the usage block."""

    ELEVATION_SWEEP = ["sweep", "--scenario", "s2g", "--space-altitude-km", "600",
                       "--min-elevation-deg", "10", "--param", "min_elevation", "--to", "10",
                       "--steps", "3"]

    @pytest.mark.parametrize("argv, code, err", [
        ([*ELEVATION_SWEEP, "--from", "-1e-3"], 0,
         "warning: 1 of 3 sweep rows failed; first at param_value=-1.7453292519943296e-05: "
         "min_elevation_rad must lie in [0, pi/2], got -1.7453292519943296e-05\n"),
        ([*ELEVATION_SWEEP, "--from", "-inf"], 2,
         "error: sweep range requires low < high and a finite high - low, "
         "got low=-inf high=10.0\n"),
        (["coverage", "--scenario", "s2g", "--space-altitude-km", "-6e2",
          "--min-elevation-deg", "10"], 2,
         "error: space_altitude_km must be > 0, got -600.0\n"),
        (["coverage", "--scenario", "s2g", "--space-altitude-km", "600",
          "--min-elevation-deg", "-NaN"], 2,
         "error: min_elevation_rad must lie in [0, pi/2], got nan\n"),
    ], ids=["from-exponent", "from-inf", "altitude-exponent", "elevation-nan"])
    def test_value_is_not_an_option(self, argv, code, err, capsys):
        assert run_cli(argv, capsys)[::2] == (code, err)


class TestOneBoundary:
    """Every descriptor key is checked when the descriptor is parsed, so
    ``coverage``, ``count`` and ``sample`` refuse a descriptor alike."""

    @pytest.mark.parametrize("key, text, reason", [
        ("density_per_km2", "1e400", "density_per_km2 must be finite and >= 0, got inf"),
        ("rx_azimuth_deg", "1e400", "rx_azimuth_rad must be finite"),
        ("rx_polar_deg", "1e400", "rx_polar_rad must be finite"),
        ("seed", "-1", "seed must lie in [0, 2**64), got -1"),
        ("seed", str(2 ** 64), f"seed must lie in [0, 2**64), got {2 ** 64}"),
        ("seed", "1.5", "seed must be an integer, got 1.5"),
    ], ids=["density-1e400", "azimuth-1e400", "polar-1e400", "seed-negative",
            "seed-2**64", "seed-fraction"])
    def test_same_line_on_every_command(self, key, text, reason, tmp_path, capsys):
        # Raw JSON text: 1e400 reads as inf, which no Python value dumps to.
        values = {"scenario": '"s2g"', "space_altitude_km": "600", "min_elevation_deg": "10",
                  "density_per_km2": "5e-6", "seed": "42", key: text}
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}")
        target = tmp_path / "points.csv"
        for argv in (["coverage"], ["count"], ["sample", "--output", str(target)]):
            code, out, err = run_cli([*argv, "--descriptor", str(descriptor)], capsys)
            assert (code, out, err) == (2, "", f"error: {reason}\n")
        assert not target.exists()

    def test_sample_builds_one_sample_config(self, s2g_descriptor, tmp_path, capsys,
                                             monkeypatch):
        built = []
        init = SampleConfig.__init__
        monkeypatch.setattr(SampleConfig, "__init__", lambda config, *args, **kwargs:
                            built.append(config) or init(config, *args, **kwargs))
        code, _, _ = run_cli(["sample", "--descriptor", s2g_descriptor,
                              "--output", str(tmp_path / "points.csv")], capsys)
        assert code == 0 and len(built) == 1


class BrokenPipe:
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def writelines(self, lines):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["coverage", *G2S_MEO_FLAGS],
        ["sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency", "--from", "2e9",
         "--to", "40e9", "--steps", "5"],
    ], ids=["coverage", "sweep"])
    def test_broken_pipe_exit_3(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: cannot write standard output: broken pipe\n"

    @pytest.mark.parametrize("argv, lines_read", [
        (["coverage", *G2S_MEO_FLAGS], 0),
        (["sweep", "--scenario", "s2g", "--space-altitude-km", "600", "--param",
          "min_elevation", "--from", "5", "--to", "30", "--steps", "20000"], 1),
    ], ids=["coverage", "sweep"])
    def test_reader_closing_the_pipe(self, argv, lines_read):
        # Buffered stdout (no PYTHONUNBUFFERED), so text is still buffered at
        # exit; the 20 000-row CSV is far larger than a pipe buffer.
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(sagindome.__file__).resolve().parents[1])
        with subprocess.Popen([sys.executable, "-m", "sagindome", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
            for _ in range(lines_read):
                process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait(timeout=60) == 3
        assert err == b"error: cannot write standard output: broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["coverage", *G2S_MEO_FLAGS],
        ["count", "--descriptor", "{descriptor}"],
        ["sample", "--descriptor", "{descriptor}", "--output", "{tmp}/points.csv"],
        ["sweep", *G2S_MEO_FLAGS, "--param", "carrier_frequency", "--from", "2e9",
         "--to", "40e9", "--steps", "2049"],
    ], ids=["coverage", "count", "sample", "sweep"])
    def test_full_device_exit_3(self, argv, s2g_descriptor, tmp_path):
        # Every write to /dev/full fails with ENOSPC, whichever buffer
        # reaches it: a print's, a CSV chunk's or the flush at the end.
        argv = [arg.format(descriptor=s2g_descriptor, tmp=tmp_path) for arg in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(sagindome.__file__).resolve().parents[1]))
        with open("/dev/full", "w") as full:
            process = subprocess.run([sys.executable, "-m", "sagindome", *argv], env=env,
                                     stdout=full, stderr=subprocess.PIPE, timeout=60)
        reason = os.strerror(errno.ENOSPC).lower()
        assert process.returncode == 3
        assert process.stderr == f"error: cannot write standard output: {reason}\n".encode()
