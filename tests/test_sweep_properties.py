"""Property test: the array pass of ``run_sweep`` against the scalar path.

Every row of ``run_sweep`` is compared with ``coverage`` evaluated at the
same grid value, and with the difference-form oracles.  Bases, parameters
and grids are drawn so that grids cross the tangent-limited boundary and
the invalid regions (negative altitudes, air at or above space, elevations
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
    resolve_radii,
    run_sweep,
    vertex_angle_downlink_oracle,
    vertex_angle_uplink_oracle,
)
from sagindome.sweeps import _with_parameter, grid_values, parameter_applicable

SCALAR_RAD = 1e-12      # vertex angle against the scalar path
ORACLE_RAD = 1e-9       # vertex angle against the difference-form oracles
AREA_RTOL = 1e-10       # area against the scalar path
BOUNDARY_RAD = 1e-12    # tangent flags may differ this close to the boundary
# arccos near 1 costs the closed form about 1e-16/phi rad, so below this
# angle it cannot meet the oracle bound, on either path.
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
        r_t, r_r = resolve_radii(base)
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
    r_t, r_r = resolve_radii(spec)
    return 0.5 * half_power_beamwidth(spec.antenna) - math.asin(r_t / r_r)


def _oracle(spec: ScenarioSpec, tangent_limited: bool) -> float:
    r_t, r_r = resolve_radii(spec)
    if spec.scenario.direction is Direction.DOWNLINK:
        return vertex_angle_downlink_oracle(spec.min_elevation_rad, r_t, r_r)
    if tangent_limited:
        return math.acos(r_t / r_r)
    return vertex_angle_uplink_oracle(half_power_beamwidth(spec.antenna), r_t, r_r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweeps())
def test_array_pass_matches_scalar_path(spec):
    table = run_sweep(spec)
    grid = grid_values(spec.low, spec.high, spec.steps, spec.scale).tolist()
    assert table.parameter_value.tolist() == grid
    assert set(table.errors) <= set(range(len(grid)))
    rows = zip(grid, table.vertex_angle_rad.tolist(), table.area_km2.tolist(),
               table.tangent_limited.tolist())
    for index, (value, phi, area, tangent_limited) in enumerate(rows):
        try:
            point = _with_parameter(spec.base, spec.parameter, value)
            dome = coverage(point)
        except SaginDomeError as exc:
            assert table.errors.get(index) == str(exc)
            assert math.isnan(phi) and math.isnan(area)
            assert not tangent_limited
            continue
        assert index not in table.errors
        near_boundary = abs(_boundary_distance(point)) <= BOUNDARY_RAD
        if tangent_limited != dome.tangent_limited:
            # Only an ulp of the threshold apart: the branches meet there.
            assert near_boundary
            continue
        assert abs(phi - dome.vertex_angle_rad) <= SCALAR_RAD
        assert math.isclose(area, dome.area_km2, rel_tol=AREA_RTOL, abs_tol=0.0)
        if not near_boundary and phi >= ORACLE_MIN_PHI:
            assert abs(phi - _oracle(point, tangent_limited)) <= ORACLE_RAD
