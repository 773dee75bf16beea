"""Property test: every row of ``run_sweep`` is ``coverage`` at its grid value.

Every row is compared with ``coverage`` evaluated at the same grid value,
bit for bit, and with the difference-form oracles.  Bases, parameters and
grids are drawn so that grids cross the tangent-limited boundary and the
invalid regions (negative altitudes, air at or above space, elevations
outside [0, pi/2], beams wider than 180 degrees).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sagindome import (
    AntennaConfig,
    Direction,
    LIGHT_SPEED_M_PER_S,
    Layer,
    SaginDomeError,
    Scenario,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    coverage,
    half_power_beamwidth,
    run_sweep,
)
from sagindome.scenarios import parameter_applicable
from sagindome.sweeps import grid_point
from cap_oracles import vertex_angle_downlink_oracle, vertex_angle_uplink_oracle
from conftest import layer_radii, with_parameter

ORACLE_RAD = 1e-9       # vertex angle against the difference-form oracles
BOUNDARY_RAD = 1e-12    # the oracles lose precision this close to the tangent boundary
# arccos near 1 costs the closed form about 1e-16/phi rad, so below this
# angle it cannot meet the oracle bound.
ORACLE_MIN_PHI = 1e-6


def _unit(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def bases(draw):
    scenario = draw(st.sampled_from(list(Scenario)))
    layers = scenario.layers
    uplink = scenario.direction is Direction.UPLINK
    return ScenarioSpec(
        scenario,
        air_altitude_km=draw(_unit(0.5, 100.0)) if Layer.AIR in layers else None,
        space_altitude_km=draw(_unit(200.0, 40000.0)) if Layer.SPACE in layers else None,
        antenna=AntennaConfig(draw(_unit(50.0, 80.0)), draw(_unit(0.05, 10.0)),
                              draw(_unit(1e8, 5e10))) if uplink else None,
        min_elevation_rad=None if uplink else draw(_unit(0.0, 0.5 * math.pi)),
        earth_radius_km=draw(_unit(6000.0, 6800.0)),
    )


def _natural_scale(base: ScenarioSpec, parameter: SweepParameter) -> float:
    """A value near which the swept parameter changes regime: the
    tangent-limited boundary for the frequency, the other layer for the
    altitudes."""
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        r_t, r_r = layer_radii(base)
        edge_deg = math.degrees(2.0 * math.asin(r_t / r_r))
        antenna = base.antenna
        return (antenna.illumination_coefficient * LIGHT_SPEED_M_PER_S
                / (antenna.reflector_diameter_m * edge_deg))
    if parameter is SweepParameter.MIN_ELEVATION:
        return 1.0
    if parameter is SweepParameter.AIR_ALTITUDE:
        return base.space_altitude_km or 50.0
    return base.air_altitude_km or 1000.0


@st.composite
def sweeps(draw):
    base = draw(bases())
    parameter = draw(st.sampled_from(
        [p for p in SweepParameter if parameter_applicable(p, base.scenario)]))
    scale = draw(st.sampled_from(list(SweepScale)))
    unit = _natural_scale(base, parameter)
    if scale is SweepScale.LINEAR:
        start = draw(_unit(-0.5, 2.0))
        low, high = unit * start, unit * (start + draw(_unit(0.01, 5.0)))
    else:
        low = unit * 10.0 ** draw(_unit(-2.0, 1.0))
        high = low * 10.0 ** draw(_unit(0.01, 3.0))
    return SweepSpec(base, parameter, low, high, draw(st.integers(2, 40)), scale)


def _boundary_distance(spec: ScenarioSpec) -> float:
    """Half-beam minus the tangent-limited threshold; inf for downlinks."""
    if spec.scenario.direction is Direction.DOWNLINK:
        return math.inf
    r_t, r_r = layer_radii(spec)
    return 0.5 * half_power_beamwidth(spec.antenna) - math.asin(r_t / r_r)


def _oracle(spec: ScenarioSpec, tangent_limited: bool) -> float:
    r_t, r_r = layer_radii(spec)
    if spec.scenario.direction is Direction.DOWNLINK:
        return vertex_angle_downlink_oracle(spec.min_elevation_rad, r_t, r_r)
    if tangent_limited:
        return math.acos(r_t / r_r)
    return vertex_angle_uplink_oracle(half_power_beamwidth(spec.antenna), r_t, r_r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweeps())
def test_rows_match_coverage_and_oracles(spec):
    table = run_sweep(spec)
    grid = table.parameter_value.tolist()
    assert grid == list(map(grid_point(spec.low, spec.high, spec.steps, spec.scale),
                            range(spec.steps)))
    assert set(table.errors) <= set(range(len(grid)))
    rows = zip(grid, table.vertex_angle_rad, table.area_km2, table.tangent_limited)
    for index, (value, phi, area, tangent_limited) in enumerate(rows):
        try:
            point = with_parameter(spec.base, spec.parameter, value)
            dome = coverage(point)
        except SaginDomeError as exc:
            assert table.errors.get(index) == str(exc)
            assert math.isnan(phi) and math.isnan(area)
            assert tangent_limited is False
            continue
        assert index not in table.errors
        assert phi == dome.vertex_angle_rad
        assert area == dome.area_km2
        assert tangent_limited is dome.tangent_limited
        if abs(_boundary_distance(point)) > BOUNDARY_RAD and phi >= ORACLE_MIN_PHI:
            assert abs(phi - _oracle(point, tangent_limited)) <= ORACLE_RAD
