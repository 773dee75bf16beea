"""Parameter sweeps over scenario geometry, one grid point at a time.

Each grid value gets the checks ``ScenarioSpec`` and ``AntennaConfig`` apply
to the swept value, then the closed-form kernel behind ``coverage``
(``geometry._dome``), so a row is exactly ``coverage`` at its grid value, or
the text of the error it raises.  No dataclass is built per row, and no
numpy is needed.
"""

import math
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .errors import SaginDomeError
from .geometry import _beamwidth, _dome, _elevation_text, _positive_error
from .scenarios import (
    Direction,
    Layer,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    _altitude_order_text,
    resolve_radii,
)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's grid points as columns, in grid order.  A point that could
    not be evaluated holds nan, nan and False; ``errors`` maps its index to why."""

    parameter_value: array
    vertex_angle_rad: array
    area_km2: array
    tangent_limited: list[bool]
    errors: dict[int, str]


def grid_values(low: float, high: float, steps: int, scale: SweepScale) -> Iterator[float]:
    """The points of a range that passed ``check_grid``, one at a time.

    A linear grid follows np.linspace's formula, so it has its bytes.  A log
    grid is 10 ** y over the linear grid of the bounds' log10, clamped to
    [low, high] (a power that overflows gives ``high``), between the bounds.
    """
    if scale is SweepScale.LINEAR:
        div, delta = steps - 1, high - low
        step = delta / div
        for index in range(div):
            yield index * step + low if step else index / div * delta + low
        yield high
        return
    yield low
    exponents = grid_values(math.log10(low), math.log10(high), steps, SweepScale.LINEAR)
    for exponent in islice(exponents, 1, steps - 1):
        try:
            value = 10.0 ** exponent
        except OverflowError:
            value = high
        yield min(max(value, low), high)
    yield high


def value_error(parameter: SweepParameter, air_altitude_km: float | None,
                space_altitude_km: float | None) -> Callable[[float], str | None]:
    """The checks ``ScenarioSpec`` and ``AntennaConfig`` apply to a swept
    value (library units), in their order, as a function from the value to
    the text of the first that fails, or None: positivity and finiteness, or
    the elevation range; then the order against the other layer's fixed
    altitude, which is None for a layer the scenario lacks."""
    if parameter is SweepParameter.MIN_ELEVATION:
        return lambda value: (None if 0.0 <= value <= 0.5 * math.pi
                              else _elevation_text("min_elevation_rad", value))
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        return partial(_positive_error, "carrier_frequency_hz")
    air = parameter is SweepParameter.AIR_ALTITUDE
    name = "air_altitude_km" if air else "space_altitude_km"
    fixed = space_altitude_km if air else air_altitude_km
    fixed_repr = repr(fixed)

    def error(value: float) -> str | None:
        reason = _positive_error(name, value)
        if reason is not None or fixed is None:
            return reason
        if air and value >= fixed:
            return _altitude_order_text(repr(value), fixed_repr)
        if not air and fixed >= value:
            return _altitude_order_text(fixed_repr, repr(value))
        return None
    return error


def _dome_at(base: ScenarioSpec,
             parameter: SweepParameter) -> Callable[[float], tuple[float, float, bool]]:
    """The kernel's (phi, area, tangent_limited) of ``coverage`` of the base
    scenario with the swept parameter set to a value ``value_error`` passes.
    As in ``coverage``, an uplink's beamwidth is formed on each row, from the
    swept or the fixed carrier frequency."""
    scenario, earth, antenna = base.scenario, base.earth_radius_km, base.antenna
    uplink = scenario.direction is Direction.UPLINK
    r_t, r_r = resolve_radii(base)
    layer = {SweepParameter.AIR_ALTITUDE: Layer.AIR,
             SweepParameter.SPACE_ALTITUDE: Layer.SPACE}.get(parameter)
    at_t, at_r = scenario.transmitter_layer is layer, scenario.receiver_layer is layer
    fixed = antenna.carrier_frequency_hz if uplink else base.min_elevation_rad

    def dome(value: float) -> tuple[float, float, bool]:
        angle = value if layer is None else fixed
        if uplink:
            angle = _beamwidth(antenna.illumination_coefficient, angle,
                               antenna.reflector_diameter_m)
        return _dome(uplink, earth + value if at_t else r_t, earth + value if at_r else r_r,
                     angle)
    return dome


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate coverage at each grid point, in grid order."""
    reject = value_error(spec.parameter, spec.base.air_altitude_km,
                         spec.base.space_altitude_km)
    dome_at = _dome_at(spec.base, spec.parameter)
    values = array("d", grid_values(spec.low, spec.high, spec.steps, spec.scale))
    phi, area, tangent, errors = array("d"), array("d"), [], {}
    for index, value in enumerate(values):
        reason = reject(value)
        if reason is None:
            try:
                row = dome_at(value)
            except SaginDomeError as exc:
                reason = str(exc)
        if reason is not None:
            errors[index] = reason
            row = math.nan, math.nan, False
        phi.append(row[0])
        area.append(row[1])
        tangent.append(row[2])
    return SweepTable(values, phi, area, tangent, errors)
