"""Scenario resolution, range validation, and end-to-end coverage.

Frozen areas were computed through the difference-of-angles oracle route
(never through coverage() itself) and cross-checked against the published
reference figures at 0.5%.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagindome import (
    AntennaConfig,
    Direction,
    DomeGeometry,
    InvalidGeometryError,
    InvalidParameterError,
    Scenario,
    ScenarioSpec,
    coverage,
    validate,
)
from sagindome import geometry, scenarios
from sagindome.errors import SaginDomeError
from sagindome.scenarios import _check_values, _fault, _interval
from conftest import AREA_RTOL, PUBLISHED_AREAS_KM2, layer_radii, reference_spec

# Oracle-route areas at the reference configurations with the default
# constants (light speed 2.998e8 m/s).
ORACLE_AREAS_KM2 = {
    Scenario.S2G: 11588409.182075689,
    Scenario.S2A: 2694261.0801690524,
    Scenario.A2G: 2464.34825451622,
    Scenario.G2S: 1646.370390844833,
    Scenario.A2S: 1645.5472905711545,
    Scenario.G2A: 19.07452525567024,
}

DISH = AntennaConfig(70.0, 4.0, 40e9)
WHIP = AntennaConfig(70.0, 0.2, 2e9)


def radii(dome) -> tuple[float, float]:
    return dome.transmitter_radius_km, dome.receiver_radius_km


class TestResolveRadii:
    """The radii ``coverage`` resolves: each layer's Earth radius plus altitude."""

    def test_ground_to_space_meo(self):
        spec = ScenarioSpec(Scenario.G2S, space_altitude_km=20000.0, antenna=DISH)
        assert radii(coverage(spec)) == (6371.0, 26371.0)

    def test_space_to_ground_leo(self):
        spec = ScenarioSpec(Scenario.S2G, space_altitude_km=600.0,
                            min_elevation_rad=math.radians(10.0))
        assert radii(coverage(spec)) == (6971.0, 6371.0)

    def test_air_to_ground(self):
        spec = ScenarioSpec(Scenario.A2G, air_altitude_km=5.0,
                            min_elevation_rad=math.radians(10.0))
        assert radii(coverage(spec)) == (6376.0, 6371.0)

    def test_direction_consistency(self, any_reference_spec):
        r_t, r_r = radii(coverage(any_reference_spec))
        if any_reference_spec.scenario.direction is Direction.UPLINK:
            assert r_t < r_r
        else:
            assert r_t > r_r

    def test_custom_earth_radius_shifts_both(self):
        spec = ScenarioSpec(Scenario.S2G, space_altitude_km=600.0,
                            min_elevation_rad=math.radians(10.0),
                            earth_radius_km=6378.0)
        assert radii(coverage(spec)) == (6978.0, 6378.0)


class TestSpecInvariants:
    def test_scenario_must_be_a_scenario(self):
        with pytest.raises(InvalidParameterError, match="scenario must be a Scenario"):
            ScenarioSpec("s2g", space_altitude_km=600.0, min_elevation_rad=0.2)

    def test_uplink_requires_antenna(self):
        with pytest.raises(InvalidParameterError, match="antenna"):
            ScenarioSpec(Scenario.G2S, space_altitude_km=600.0)

    def test_uplink_rejects_elevation(self):
        with pytest.raises(InvalidParameterError, match="min_elevation"):
            ScenarioSpec(Scenario.G2S, space_altitude_km=600.0, antenna=DISH,
                         min_elevation_rad=0.2)

    def test_downlink_requires_elevation(self):
        with pytest.raises(InvalidParameterError, match="min_elevation"):
            ScenarioSpec(Scenario.S2G, space_altitude_km=600.0)

    def test_downlink_rejects_antenna(self):
        with pytest.raises(InvalidParameterError, match="antenna"):
            ScenarioSpec(Scenario.S2G, space_altitude_km=600.0,
                         min_elevation_rad=0.2, antenna=DISH)

    def test_missing_required_altitude(self):
        with pytest.raises(InvalidParameterError, match="space_altitude_km"):
            ScenarioSpec(Scenario.G2S, antenna=DISH)

    def test_inapplicable_altitude_rejected(self):
        with pytest.raises(InvalidParameterError, match="air_altitude_km"):
            ScenarioSpec(Scenario.G2S, air_altitude_km=5.0, space_altitude_km=600.0,
                         antenna=DISH)

    def test_air_must_sit_below_space(self):
        with pytest.raises(InvalidGeometryError):
            ScenarioSpec(Scenario.A2S, air_altitude_km=700.0, space_altitude_km=600.0,
                         antenna=DISH)

    def test_nonpositive_altitude(self):
        with pytest.raises(InvalidParameterError, match="air_altitude_km"):
            ScenarioSpec(Scenario.A2G, air_altitude_km=0.0,
                         min_elevation_rad=math.radians(10.0))


class TestValidate:
    def test_clean_low_band_report(self):
        spec = ScenarioSpec(Scenario.G2A, air_altitude_km=5.0, antenna=WHIP)
        assert validate(spec) == ()

    def test_satellite_band_overshoot(self):
        spec = ScenarioSpec(Scenario.G2S, space_altitude_km=20000.0,
                            antenna=AntennaConfig(70.0, 4.0, 100e9))
        violations = validate(spec)
        assert [v.parameter for v in violations] == ["carrier_frequency_hz"]
        assert violations[0].low == 2e9
        assert violations[0].high == 40e9

    def test_elevation_overshoot(self):
        spec = ScenarioSpec(Scenario.S2A, air_altitude_km=5.0, space_altitude_km=600.0,
                            min_elevation_rad=math.radians(45.0))
        assert [v.parameter for v in validate(spec)] == ["min_elevation_rad"]

    def test_low_band_range_applies_to_ground_air(self):
        spec = ScenarioSpec(Scenario.G2A, air_altitude_km=5.0,
                            antenna=AntennaConfig(70.0, 0.2, 5e9))
        assert [v.parameter for v in validate(spec)] == ["carrier_frequency_hz"]

    def test_altitude_ranges(self):
        low_air = ScenarioSpec(Scenario.A2G, air_altitude_km=0.5,
                               min_elevation_rad=math.radians(10.0))
        assert [v.parameter for v in validate(low_air)] == ["air_altitude_km"]
        high_space = ScenarioSpec(Scenario.S2G, space_altitude_km=40000.0,
                                  min_elevation_rad=math.radians(10.0))
        assert [v.parameter for v in validate(high_space)] == ["space_altitude_km"]

    def test_range_edges_are_inside(self):
        spec = ScenarioSpec(Scenario.S2G, space_altitude_km=35786.0,
                            min_elevation_rad=math.radians(30.0))
        assert validate(spec) == ()

    def test_multiple_violations_reported_together(self):
        spec = ScenarioSpec(Scenario.A2S, air_altitude_km=80.0,
                            space_altitude_km=400.0,
                            antenna=AntennaConfig(70.0, 4.0, 60e9))
        names = sorted(v.parameter for v in validate(spec))
        assert names == ["air_altitude_km", "carrier_frequency_hz",
                         "space_altitude_km"]


class TestCoverage:
    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_matches_oracle_route(self, scenario):
        dome = coverage(reference_spec(scenario))
        # The G2A cap is ~3.9e-4 rad wide, so 1 - delta is ~7.5e-8 and one
        # ulp of rounding in the closed form moves the area by ~1.5e-9
        # relative; the wider caps have no such conditioning limit.
        rel = 1e-8 if scenario is Scenario.G2A else 1e-9
        assert dome.area_km2 == pytest.approx(ORACLE_AREAS_KM2[scenario], rel=rel)

    @pytest.mark.parametrize("scenario", sorted(PUBLISHED_AREAS_KM2, key=lambda s: s.value),
                             ids=lambda s: s.value)
    def test_matches_published_figures(self, scenario):
        dome = coverage(reference_spec(scenario))
        assert dome.area_km2 == pytest.approx(PUBLISHED_AREAS_KM2[scenario],
                                              rel=AREA_RTOL)

    def test_dome_fields_are_consistent(self, any_reference_spec):
        dome = coverage(any_reference_spec)
        r_t, r_r = layer_radii(any_reference_spec)
        assert radii(dome) == (r_t, r_r)
        assert -1.0 <= dome.delta <= 1.0
        assert 0.0 <= dome.vertex_angle_rad <= math.pi
        # Area and delta describe the same cap: 2*pi*R^2*(1-delta).
        expected = 2.0 * math.pi * r_t * r_t * (1.0 - dome.delta)
        assert dome.area_km2 == pytest.approx(expected, rel=1e-9)
        assert dome.delta == pytest.approx(math.cos(dome.vertex_angle_rad), abs=1e-15)

    def test_cap_area_computed_once(self, any_reference_spec, monkeypatch):
        # The dome is built from the values _resolve checked and computed, so
        # it is the public constructor's dome without a second cap area.
        calls = []
        for module in (scenarios, geometry):
            monkeypatch.setattr(module, "_cap_area", lambda *args, body=module._cap_area:
                                calls.append(args) or body(*args))
        dome = coverage(any_reference_spec)
        assert len(calls) == 1
        assert dome == DomeGeometry(dome.transmitter_radius_km, dome.receiver_radius_km,
                                    dome.vertex_angle_rad, dome.tangent_limited)

    def test_area_bounded_by_sphere_and_positive(self, any_reference_spec):
        dome = coverage(any_reference_spec)
        assert 0.0 < dome.area_km2 <= 4.0 * math.pi * dome.transmitter_radius_km ** 2

    @pytest.mark.parametrize("scenario", [Scenario.G2A, Scenario.A2S, Scenario.G2S],
                             ids=lambda s: s.value)
    def test_uplink_vertex_below_tangent_bound(self, scenario):
        dome = coverage(reference_spec(scenario))
        bound = math.acos(dome.transmitter_radius_km / dome.receiver_radius_km)
        assert dome.vertex_angle_rad <= bound + 1e-12

    @pytest.mark.parametrize("freq", [2e9, 10e9, 40e9])
    def test_ground_origin_slightly_beats_air_origin_uplink(self, freq):
        # Same satellite, same antenna: the ground cap marginally exceeds the
        # air cap because the longer path subtends a larger vertex angle.
        antenna = AntennaConfig(70.0, 4.0, freq)
        g2s = coverage(ScenarioSpec(Scenario.G2S, space_altitude_km=20000.0,
                                    antenna=antenna))
        a2s = coverage(ScenarioSpec(Scenario.A2S, air_altitude_km=50.0,
                                    space_altitude_km=20000.0, antenna=antenna))
        assert g2s.area_km2 > a2s.area_km2

    @pytest.mark.parametrize("air_km", [1.0, 5.0, 50.0])
    def test_ground_receiver_slightly_beats_air_receiver_downlink(self, air_km):
        alpha = math.radians(10.0)
        s2g = coverage(ScenarioSpec(Scenario.S2G, space_altitude_km=600.0,
                                    min_elevation_rad=alpha))
        s2a = coverage(ScenarioSpec(Scenario.S2A, air_altitude_km=air_km,
                                    space_altitude_km=600.0, min_elevation_rad=alpha))
        assert s2g.area_km2 > s2a.area_km2

    def test_tangent_limited_flag_propagates(self):
        # 0.6 GHz on the 0.2 m reflector gives a ~175 degree beam, wider than
        # the ground sphere seen from 50 km up.
        spec = ScenarioSpec(Scenario.G2A, air_altitude_km=50.0,
                            antenna=AntennaConfig(70.0, 0.2, 0.6e9))
        dome = coverage(spec)
        assert dome.tangent_limited is True
        assert dome.vertex_angle_rad == pytest.approx(
            math.acos(6371.0 / 6421.0), rel=1e-12)


def _reference_check(frequency, elevation, air, space):
    """The value checks as ``ScenarioSpec`` wrote them out before they were
    stated as intervals: their classes, texts and order."""
    for name, value in (("carrier_frequency_hz", frequency), ("min_elevation_rad", elevation),
                        ("air_altitude_km", air), ("space_altitude_km", space)):
        if value is None:
            continue
        if name == "min_elevation_rad":
            if not 0.0 <= value <= 0.5 * math.pi:
                raise InvalidParameterError(
                    f"min_elevation_rad must lie in [0, pi/2], got {value!r}")
            continue
        if not value > 0.0:
            raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
        if value == math.inf:
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if air is not None and space is not None and air >= space:
        raise InvalidGeometryError(
            f"air_altitude_km={air!r} must be below space_altitude_km={space!r}")


def _outcome(check, values):
    try:
        check(*values)
    except SaginDomeError as exc:
        return type(exc), str(exc)
    return None


_EDGES = (-0.0, 0.0, 0.5 * math.pi, math.inf, -math.inf, math.nan, 600.0, 5e-324, -5e-324)
_VALUES = st.one_of(st.none(), st.sampled_from(_EDGES), st.floats(),
                    st.floats(-1.0, 2.0), st.floats(0.0, 1e5))


class TestValueInterval:
    """Each value's interval, given the others, and ``_check_values`` are one
    rule: they accept the same values and name a fault in the same words."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(_VALUES, min_size=4, max_size=4))
    def test_check_values_keeps_its_texts_and_order(self, values):
        assert _outcome(_check_values, values) == _outcome(_reference_check, values)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.integers(0, 3), st.lists(_VALUES, min_size=4, max_size=4), st.data())
    def test_interval_is_the_value_check(self, slot, values, data):
        values[slot] = None
        fixed = _outcome(_check_values, values)
        any_value = _VALUES.filter(lambda value: value is not None)
        if fixed is not None:
            # A fixed value that fails on its own fails with any swept value.
            values[slot] = data.draw(any_value)
            assert _outcome(_check_values, values) is not None
            return
        low, high = _interval(slot, values)
        # The ends and their neighbouring floats (an altitude equal to the
        # other layer's among them), or any value.
        ends = [low, high, *(math.nextafter(end, toward) for end in (low, high)
                             for toward in (-math.inf, math.inf))]
        value = values[slot] = data.draw(st.one_of(st.sampled_from(ends), any_value))
        outcome = _outcome(_check_values, values)
        assert (outcome is None) == (low < value < high)
        if outcome is not None:
            fault = _fault(slot, value, values)
            assert outcome == (type(fault), str(fault))
