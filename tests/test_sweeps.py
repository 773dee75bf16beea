"""Sweep grids, monotone coverage trends, and expected-count arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagindome import (
    AntennaConfig,
    DomeGeometry,
    InvalidParameterError,
    Scenario,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    SweepTable,
    coverage,
    expected_count,
    full_sphere_count,
    run_sweep,
)
from sagindome.cli import main
from sagindome.errors import SaginDomeError
from sagindome.scenarios import MAX_SWEEP_STEPS, _check_values, _slot
from sagindome.sweeps import base_value, grid_point
from conftest import reference_spec, with_parameter


def grid_values(low: float, high: float, steps: int, scale: SweepScale) -> list[float]:
    """Every point of a grid, in grid order."""
    return list(map(grid_point(low, high, steps, scale), range(steps)))


def _areas(table: SweepTable) -> list[float]:
    assert not table.errors
    return table.area_km2.tolist()


class TestSweepSpecValidation:
    def test_requires_low_below_high(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY,
                      40e9, 2e9, 10)

    @pytest.mark.parametrize("steps", [10.0, 2.5, True])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(InvalidParameterError, match="steps must be an integer"):
            SweepSpec(reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY,
                      2e9, 40e9, steps)

    def test_requires_two_steps(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY,
                      2e9, 40e9, 1)

    def test_steps_capped(self):
        spec = reference_spec(Scenario.G2S)
        SweepSpec(spec, SweepParameter.CARRIER_FREQUENCY, 2e9, 40e9, MAX_SWEEP_STEPS)
        with pytest.raises(InvalidParameterError, match=f"steps must be <= {MAX_SWEEP_STEPS}"):
            SweepSpec(spec, SweepParameter.CARRIER_FREQUENCY, 2e9, 40e9, MAX_SWEEP_STEPS + 1)

    @pytest.mark.parametrize("low,high", [(2e9, math.inf), (-math.inf, 40e9), (math.nan, 40e9),
                                          (-1.7e308, 1.7e308)])
    def test_range_must_be_finite(self, low, high):
        with pytest.raises(InvalidParameterError, match="finite"):
            SweepSpec(reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY,
                      low, high, 10)

    @pytest.mark.parametrize("field, value", [("parameter", "air_altitude"),
                                              ("scale", "log")])
    def test_enum_fields_refuse_their_values(self, field, value):
        fields = dict(base=reference_spec(Scenario.A2S),
                      parameter=SweepParameter.AIR_ALTITUDE, low=1.0, high=2.0, steps=5)
        with pytest.raises(InvalidParameterError, match=f"{field} must be a Sweep"):
            SweepSpec(**dict(fields, **{field: value}))

    def test_log_scale_needs_positive_low(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(reference_spec(Scenario.S2G), SweepParameter.MIN_ELEVATION,
                      0.0, 0.5, 10, SweepScale.LOGARITHMIC)

    @pytest.mark.parametrize("scenario,parameter", [
        (Scenario.G2S, SweepParameter.MIN_ELEVATION),
        (Scenario.S2G, SweepParameter.CARRIER_FREQUENCY),
        (Scenario.S2G, SweepParameter.AIR_ALTITUDE),
        (Scenario.G2A, SweepParameter.SPACE_ALTITUDE),
    ])
    def test_inapplicable_parameter_rejected(self, scenario, parameter):
        with pytest.raises(InvalidParameterError, match="inapplicable"):
            SweepSpec(reference_spec(scenario), parameter, 1.0, 2.0, 5)


def _grid_ranges(smallest: float = -1e300):
    finite = st.floats(smallest, 1e300, allow_nan=False, allow_infinity=False)
    return st.tuples(finite, finite).filter(lambda pair: pair[0] < pair[1])


class TestGridValues:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_grid_ranges(), st.integers(2, 300))
    def test_linear_grid_is_linspace(self, bounds, steps):
        low, high = bounds
        grid = grid_values(low, high, steps, SweepScale.LINEAR)
        assert grid == np.linspace(low, high, steps).tolist()

    def test_linear_grid_whose_step_underflows_is_linspace(self):
        # (high - low) / 99 rounds to 0, so linspace scales i / 99 instead.
        grid = grid_values(5e-324, 1e-323, 100, SweepScale.LINEAR)
        assert grid == np.linspace(5e-324, 1e-323, 100).tolist()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_grid_ranges(1e-300), st.integers(2, 300))
    def test_log_grid_keeps_its_ends_and_stays_in_range(self, bounds, steps):
        low, high = bounds
        grid = grid_values(low, high, steps, SweepScale.LOGARITHMIC)
        assert len(grid) == steps and grid[0] == low and grid[-1] == high
        assert all(low <= value <= high for value in grid)
        assert np.allclose(grid, np.geomspace(low, high, steps), rtol=1e-13, atol=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(1e-300, 1e300), st.integers(1, 4), st.integers(3, 6))
    @example(2067.70305724198, 1, 4)  # 10 ** y rounds above the grid end here
    def test_log_grid_between_neighbouring_floats_stays_in_range(self, low, ulps, steps):
        high = low
        for _ in range(ulps):
            high = math.nextafter(high, math.inf)
        grid = grid_values(low, high, steps, SweepScale.LOGARITHMIC)
        assert grid[0] == low and grid[-1] == high
        assert all(low <= value <= high for value in grid)


def _walked_base(parameter, air, space, low, high, steps, scale):
    """The first grid value that passes the value check given the other
    layer's fixed altitude, found by trying each in turn."""
    slot = _slot(parameter)
    altitude = parameter in (SweepParameter.AIR_ALTITUDE, SweepParameter.SPACE_ALTITUDE)
    values = [None, None, air, space] if altitude else [None] * 4
    values[slot] = None
    try:
        _check_values(*values)
    except SaginDomeError:
        return low
    for value in grid_values(low, high, steps, scale):
        values[slot] = value
        try:
            _check_values(*values)
        except SaginDomeError:
            continue
        return value
    return low


_ALTITUDES = st.one_of(st.none(), st.sampled_from([math.nan, -600.0, 0.0, 600.0]),
                       st.floats(-1e3, 1e5))


class TestBaseValue:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.sampled_from(list(SweepParameter)), _ALTITUDES, _ALTITUDES,
           st.floats(-2.0, 2.0), st.floats(1e-9, 3.0), st.integers(2, 60),
           st.sampled_from(list(SweepScale)))
    @example(SweepParameter.MIN_ELEVATION, None, None, -0.0, 2.0, 3, SweepScale.LINEAR)
    @example(SweepParameter.SPACE_ALTITUDE, 600.0, None, 500.0 / 600.0, 0.25, 5,
             SweepScale.LOGARITHMIC)
    def test_bisection_finds_the_first_valid_grid_value(self, parameter, air, space, start,
                                                        span, steps, scale):
        # Grids around the end of the swept value's interval: 0, pi/2 or the
        # other layer's altitude.
        other = {SweepParameter.AIR_ALTITUDE: space, SweepParameter.SPACE_ALTITUDE: air}
        unit = other.get(parameter)
        unit = abs(unit) if unit and math.isfinite(unit) else 1.0
        low, high = unit * start, unit * (start + span)
        if scale is SweepScale.LOGARITHMIC:
            low, high = abs(low) + 1e-300, abs(low) + unit * span
        expected = _walked_base(parameter, air, space, low, high, steps, scale)
        found = base_value(parameter, air, space, low, high, steps, scale)
        assert (found, math.copysign(1.0, found)) == (expected, math.copysign(1.0, expected))


# A 175-degree beam, tangent-limited above a few km of receiver altitude.
WIDE_BEAM_G2A = ScenarioSpec(Scenario.G2A, air_altitude_km=5.0,
                             antenna=AntennaConfig(70.0, 0.2, 0.6e9))
# A 52.5-degree beam, tangent-limited above about 8000 km.
WIDE_BEAM_G2S = ScenarioSpec(Scenario.G2S, space_altitude_km=600.0,
                             antenna=AntennaConfig(70.0, 0.2, 2e9))
# f * D underflows to 0, so every row with a valid altitude fails on it.
UNDERFLOWING_G2S = ScenarioSpec(Scenario.G2S, space_altitude_km=600.0,
                                antenna=AntennaConfig(70.0, 1e-320, 1e-320))
# Finite inputs whose radii both overflow to inf, so every row fails on the
# receiver radius.
OVERFLOWING_S2A = ScenarioSpec(Scenario.S2A, air_altitude_km=1e308, space_altitude_km=1.5e308,
                               min_elevation_rad=math.radians(10.0), earth_radius_km=1e308)


class TestRunSweep:
    def test_two_steps_hit_the_endpoints(self):
        table = run_sweep(SweepSpec(reference_spec(Scenario.G2S),
                                    SweepParameter.CARRIER_FREQUENCY, 2e9, 40e9, 2))
        assert table.parameter_value.tolist() == [2e9, 40e9]

    def test_rows_in_grid_order_linear_and_log(self):
        for scale in SweepScale:
            table = run_sweep(SweepSpec(reference_spec(Scenario.G2S),
                                        SweepParameter.CARRIER_FREQUENCY,
                                        2e9, 40e9, 17, scale))
            values = table.parameter_value.tolist()
            assert len(values) == 17
            assert values == sorted(values)
            assert values[0] == pytest.approx(2e9, rel=1e-12)
            assert values[-1] == pytest.approx(40e9, rel=1e-12)

    def test_uplink_area_decreases_with_frequency(self):
        areas = _areas(run_sweep(SweepSpec(reference_spec(Scenario.G2S),
                                           SweepParameter.CARRIER_FREQUENCY,
                                           2e9, 40e9, 50)))
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_downlink_area_decreases_with_elevation(self):
        areas = _areas(run_sweep(SweepSpec(reference_spec(Scenario.S2G),
                                           SweepParameter.MIN_ELEVATION,
                                           math.radians(5.0), math.radians(30.0), 50)))
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_uplink_area_grows_with_receiver_altitude(self):
        areas = _areas(run_sweep(SweepSpec(reference_spec(Scenario.G2A),
                                           SweepParameter.AIR_ALTITUDE,
                                           1.0, 50.0, 50)))
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_downlink_area_grows_with_transmitter_altitude(self):
        areas = _areas(run_sweep(SweepSpec(reference_spec(Scenario.S2G),
                                           SweepParameter.SPACE_ALTITUDE,
                                           500.0, 35786.0, 50)))
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_uplink_area_grows_with_space_altitude(self):
        areas = _areas(run_sweep(SweepSpec(reference_spec(Scenario.G2S),
                                           SweepParameter.SPACE_ALTITUDE,
                                           500.0, 35786.0, 50)))
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_failed_grid_points_are_recorded_not_raised(self):
        # Below ~583 MHz the 0.2 m reflector's beam exceeds 180 degrees and
        # the vertex-angle formula has no value; those rows carry the error.
        table = run_sweep(SweepSpec(reference_spec(Scenario.G2A),
                                    SweepParameter.CARRIER_FREQUENCY,
                                    300e6, 2.4e9, 22, SweepScale.LOGARITHMIC))
        failed = set(table.errors)
        assert failed and len(failed) < len(table.parameter_value)
        for index, (value, area) in enumerate(zip(table.parameter_value, table.area_km2)):
            if index in failed:
                assert math.isnan(area) and value < 583.1e6
            else:
                assert area > 0

    @pytest.mark.parametrize("scenario,parameter,low,high,failures", [
        # Air altitudes from 1 km up past the 20000 km space layer.
        (Scenario.A2S, SweepParameter.AIR_ALTITUDE, 1.0, 30000.0, 100),
        (Scenario.G2A, SweepParameter.CARRIER_FREQUENCY, 300e6, 2.4e9, 41),
        (Scenario.G2S, SweepParameter.CARRIER_FREQUENCY, 1e8, 40e9, 0),
        (Scenario.S2G, SweepParameter.MIN_ELEVATION, 0.0, 0.5 * math.pi, 0),
        (Scenario.S2A, SweepParameter.SPACE_ALTITUDE, 1.0, 35786.0, 1),
        (Scenario.A2G, SweepParameter.AIR_ALTITUDE, 1.0, 50.0, 0),
    ])
    def test_no_row_builds_a_record(self, monkeypatch, scenario, parameter, low, high,
                                    failures):
        # Failed and evaluated rows alike go through the value checks and
        # the closed forms alone: no row builds a record.
        spec = SweepSpec(reference_spec(scenario), parameter, low, high, 300)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a sweep row must build no record")

        for cls in (AntennaConfig, ScenarioSpec, DomeGeometry):
            monkeypatch.setattr(cls, "__init__", refuse)
        table = run_sweep(spec)
        assert len(table.errors) == failures

    @pytest.mark.parametrize("scenario,parameter,low,high,reasons", [
        (Scenario.G2S, SweepParameter.CARRIER_FREQUENCY, -40e9, 40e9,
         ("carrier_frequency_hz must be > 0",)),
        (Scenario.S2G, SweepParameter.MIN_ELEVATION, -0.5 * math.pi, math.pi,
         ("min_elevation_rad must lie in [0, pi/2]",)),
        (Scenario.A2S, SweepParameter.AIR_ALTITUDE, -30000.0, 30000.0,
         ("air_altitude_km must be > 0", "must be below space_altitude_km")),
        (Scenario.S2A, SweepParameter.SPACE_ALTITUDE, -600.0, 600.0,
         ("space_altitude_km must be > 0", "must be below space_altitude_km")),
    ])
    @pytest.mark.parametrize("first", ["low", "-0.0"])
    def test_failed_row_reasons_are_the_coverage_errors(self, scenario, parameter, low,
                                                        high, reasons, first):
        # Each failed row's reason is the text coverage raises at its value.
        # 1001 steps over a range symmetric about 0 put a row at exactly 0;
        # a grid from -0.0 starts at -0.0.
        if first == "-0.0":
            low = -0.0
        base = reference_spec(scenario)
        table = run_sweep(SweepSpec(base, parameter, low, high, 1001))
        expected = {}
        for index, value in enumerate(table.parameter_value.tolist()):
            try:
                coverage(with_parameter(base, parameter, value))
            except SaginDomeError as exc:
                expected[index] = str(exc)
        assert table.errors == expected
        assert list(table.errors) == sorted(table.errors)
        for reason in reasons:
            assert any(reason in text for text in table.errors.values()), reason
        failed = list(table.errors)
        assert np.isnan(np.asarray(table.vertex_angle_rad)[failed]).all()
        assert np.isnan(np.asarray(table.area_km2)[failed]).all()
        assert not np.asarray(table.tangent_limited)[failed].any()

    @pytest.mark.parametrize("base,parameter,low,high", [
        # Across the tangent boundary near 2.7 GHz, and beams wider than pi.
        (reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY, -1e9, 40e9),
        (reference_spec(Scenario.G2A), SweepParameter.CARRIER_FREQUENCY, 300e6, 2.4e9),
        (reference_spec(Scenario.S2G), SweepParameter.MIN_ELEVATION, -0.5 * math.pi, math.pi),
        # Receiver altitudes across the tangent boundary of a wide beam.
        (WIDE_BEAM_G2A, SweepParameter.AIR_ALTITUDE, -10.0, 50.0),
        (WIDE_BEAM_G2S, SweepParameter.SPACE_ALTITUDE, 1.0, 36000.0),
        (reference_spec(Scenario.A2S), SweepParameter.AIR_ALTITUDE, -30000.0, 30000.0),
        (reference_spec(Scenario.S2A), SweepParameter.SPACE_ALTITUDE, -600.0, 36000.0),
        (UNDERFLOWING_G2S, SweepParameter.SPACE_ALTITUDE, -600.0, 36000.0),
        (OVERFLOWING_S2A, SweepParameter.SPACE_ALTITUDE, 1.1e308, 1.7e308),
    ], ids=["g2s-frequency", "g2a-frequency", "s2g-elevation", "g2a-air", "g2s-space",
            "a2s-air", "s2a-space", "g2s-space-underflow", "s2a-space-overflow"])
    @pytest.mark.parametrize("scale", list(SweepScale))
    def test_rows_are_coverage_at_their_grid_values(self, base, parameter, low, high, scale):
        if scale is SweepScale.LOGARITHMIC:
            low = max(low, 1e-3)
        table = run_sweep(SweepSpec(base, parameter, low, high, 501, scale))
        assert table.parameter_value.tolist() == grid_values(low, high, 501, scale)
        kinds = set()
        rows = zip(table.parameter_value, table.vertex_angle_rad, table.area_km2,
                   table.tangent_limited)
        for index, (value, phi, area, tangent_limited) in enumerate(rows):
            try:
                dome = coverage(with_parameter(base, parameter, value))
            except SaginDomeError as exc:
                kinds.add(type(exc))
                assert table.errors[index] == str(exc)
                assert math.isnan(phi) and math.isnan(area) and tangent_limited is False
                continue
            kinds.add(dome.tangent_limited)
            assert index not in table.errors
            assert (phi, area, tangent_limited) == (
                dome.vertex_angle_rad, dome.area_km2, dome.tangent_limited)
        assert kinds - {False}, "the grid crosses no boundary"

    def test_log_grid_next_to_the_largest_float_stays_in_range(self, capsys):
        # A power of ten that rounds up past the largest float gives the
        # grid end, not inf.
        low, high = "1.7976931348623155e308", "1.7976931348623157e308"
        code = main(["sweep", "--scenario", "a2s", "--space-altitude-km", high,
                     "--carrier-frequency-hz", "2e10", "--illumination-coefficient", "70",
                     "--reflector-diameter-m", "1", "--param", "air_altitude",
                     "--from", low, "--to", high, "--steps", "3", "--scale", "log"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "RuntimeWarning" not in err and err.count("\n") == 1
        values = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert len(values) == 3
        assert all(float(low) <= value <= float(high) for value in values)

    def test_deterministic(self):
        spec = SweepSpec(reference_spec(Scenario.S2G), SweepParameter.MIN_ELEVATION,
                         math.radians(5.0), math.radians(30.0), 13)
        first, second = run_sweep(spec), run_sweep(spec)
        for column in ("parameter_value", "vertex_angle_rad", "area_km2", "tangent_limited"):
            assert np.array_equal(getattr(first, column), getattr(second, column))
        assert first.errors == second.errors

    def test_overflowing_area_is_a_failed_row(self):
        table = run_sweep(SweepSpec(reference_spec(Scenario.S2G),
                                    SweepParameter.SPACE_ALTITUDE, 1e150, 1e308, 3,
                                    SweepScale.LOGARITHMIC))
        assert 0 not in table.errors and math.isfinite(table.area_km2[0])
        for index in (1, 2):
            assert table.errors[index] == "area_km2 must be finite and >= 0, got inf"
            assert math.isnan(table.area_km2[index])
            assert math.isnan(table.vertex_angle_rad[index])

    def test_tangent_limited_rows_are_flagged(self):
        # Sweeping the receiver altitude across a wide 175-degree beam: high
        # altitudes fall back to the tangent cone.
        base = ScenarioSpec(Scenario.G2A, air_altitude_km=5.0,
                            antenna=AntennaConfig(70.0, 0.2, 0.6e9))
        table = run_sweep(SweepSpec(base, SweepParameter.AIR_ALTITUDE, 1.0, 50.0, 25))
        assert any(table.tangent_limited)
        assert not table.errors


class TestCountArithmetic:
    def test_leo_ground_expected_count(self, s2g_spec):
        exact, mean = expected_count(coverage(s2g_spec), 5e-6)
        assert exact == pytest.approx(57.94, abs=0.01)
        assert mean == 57

    def test_leo_air_expected_count(self):
        dome = coverage(reference_spec(Scenario.S2A))
        exact, mean = expected_count(dome, 5e-6)
        assert exact == pytest.approx(13.47, abs=0.01)
        assert mean == 13

    def test_zero_density(self, s2g_spec):
        assert expected_count(coverage(s2g_spec), 0.0) == (0.0, 0)

    def test_full_sphere_leo_shell(self):
        assert full_sphere_count(6971.0, 5e-6) == pytest.approx(3053.3, abs=0.1)

    def test_full_sphere_zero_density(self):
        assert full_sphere_count(6971.0, 0.0) == 0.0

    def test_full_sphere_normalization(self):
        assert full_sphere_count(1.0, 1.0 / (4.0 * math.pi)) == pytest.approx(
            1.0, rel=1e-15)

    def test_overflowing_counts_rejected(self, s2g_spec):
        with pytest.raises(InvalidParameterError, match="overflows"):
            expected_count(coverage(s2g_spec), 1e308)
        with pytest.raises(InvalidParameterError, match="overflows"):
            full_sphere_count(6971.0, 1e300)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            full_sphere_count(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            expected_count(coverage(reference_spec(Scenario.S2G)), -0.1)
