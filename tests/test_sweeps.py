"""Sweep grids, monotone coverage trends, and expected-count arithmetic."""

import math

import numpy as np
import pytest

from sagindome import (
    AntennaConfig,
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
from sagindome import sweeps
from sagindome.sweeps import MAX_SWEEP_STEPS
from conftest import reference_spec


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
        failed = np.zeros(len(table.parameter_value), dtype=bool)
        failed[list(table.errors)] = True
        assert failed.any() and not failed.all()
        assert np.isnan(table.area_km2[failed]).all()
        assert (table.parameter_value[failed] < 583.1e6).all()
        assert (table.area_km2[~failed] > 0).all()

    @pytest.mark.parametrize("scenario,parameter,low,high,failures", [
        # Air altitudes from 1 km up past the 20000 km space layer.
        (Scenario.A2S, SweepParameter.AIR_ALTITUDE, 1.0, 30000.0, 100),
        (Scenario.G2A, SweepParameter.CARRIER_FREQUENCY, 300e6, 2.4e9, 41),
        (Scenario.G2S, SweepParameter.CARRIER_FREQUENCY, 1e8, 40e9, 0),
        (Scenario.S2G, SweepParameter.MIN_ELEVATION, 0.0, 0.5 * math.pi, 0),
        (Scenario.S2A, SweepParameter.SPACE_ALTITUDE, 1.0, 35786.0, 1),
        (Scenario.A2G, SweepParameter.AIR_ALTITUDE, 1.0, 50.0, 0),
    ])
    def test_scalar_path_runs_only_for_failed_rows(self, monkeypatch, scenario, parameter,
                                                   low, high, failures):
        calls = []

        def counting_coverage(spec):
            calls.append(spec)
            return coverage(spec)

        monkeypatch.setattr(sweeps, "coverage", counting_coverage)
        table = run_sweep(SweepSpec(reference_spec(scenario), parameter, low, high, 300))
        assert len(table.errors) == failures
        assert len(calls) <= failures

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
        assert table.tangent_limited.any()
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
