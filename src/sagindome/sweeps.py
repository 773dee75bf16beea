"""Parameter sweeps over scenario geometry, evaluated as one array pass."""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SaginDomeError
from .geometry import CLAMP_TOLERANCE, LIGHT_SPEED_M_PER_S, _elevation_text, _positive_text
from .scenarios import (
    Direction,
    Layer,
    SweepParameter,
    SweepScale,
    SweepSpec,
    _altitude_order_text,
    _with_parameter,
    coverage,
)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's grid points as columns, in grid order.  A point that could
    not be evaluated holds nan, nan and False; ``errors`` maps its index to why."""

    parameter_value: np.ndarray
    vertex_angle_rad: np.ndarray
    area_km2: np.ndarray
    tangent_limited: np.ndarray
    errors: dict[int, str]


def grid_values(low: float, high: float, steps: int, scale: SweepScale) -> np.ndarray:
    """The grid of a range that passed ``check_grid``."""
    if scale is SweepScale.LOGARITHMIC:
        return np.geomspace(low, high, steps)
    return np.linspace(low, high, steps)


def invalid_values(parameter: SweepParameter, values: np.ndarray,
                   air_altitude_km: float | None,
                   space_altitude_km: float | None) -> np.ndarray:
    """Mask of the grid values (library units) that make the scenario itself
    invalid: the checks of ScenarioSpec and AntennaConfig that involve the
    swept value.  The altitude of the swept layer is ignored; an altitude is
    None for a layer the scenario lacks.
    """
    if parameter is SweepParameter.MIN_ELEVATION:
        return ~((values >= 0.0) & (values <= 0.5 * math.pi))
    invalid = ~(values > 0.0)
    if parameter is SweepParameter.AIR_ALTITUDE and space_altitude_km is not None:
        invalid |= values >= space_altitude_km
    if parameter is SweepParameter.SPACE_ALTITUDE and air_altitude_km is not None:
        invalid |= air_altitude_km >= values
    return invalid


def _rejection_reason(spec: SweepSpec) -> Callable[[float], str]:
    """The error ScenarioSpec raises at a finite grid value that
    ``invalid_values`` marks, in its order: positivity, then altitude order."""
    base, parameter = spec.base, spec.parameter
    if parameter is SweepParameter.MIN_ELEVATION:
        return partial(_elevation_text, "min_elevation_rad")
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        return partial(_positive_text, "carrier_frequency_hz")
    air = parameter is SweepParameter.AIR_ALTITUDE
    name = "air_altitude_km" if air else "space_altitude_km"
    fixed = repr(base.space_altitude_km if air else base.air_altitude_km)

    def reason(value: float) -> str:
        if not value > 0.0:
            return _positive_text(name, value)
        if air:
            return _altitude_order_text(repr(value), fixed)
        return _altitude_order_text(fixed, repr(value))
    return reason


def _acos_clamped(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """arccos of ``delta`` clamped to [-1, 1] as ``geometry._clamp_cosine``
    does, plus the mask of arguments outside it beyond CLAMP_TOLERANCE."""
    beyond = (delta - 1.0 > CLAMP_TOLERANCE) | (-1.0 - delta > CLAMP_TOLERANCE)
    return np.arccos(np.clip(delta, -1.0, 1.0)), beyond


def _evaluate(spec: SweepSpec, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``coverage`` at every grid value in one array pass.

    Returns new arrays (vertex angle, area, tangent_limited, irregular,
    rejected), where ``rejected`` is the ``invalid_values`` mask.
    The closed forms and their operation order are those of ``coverage``;
    only the transcendental functions come from numpy instead of ``math``.
    Squares go through ``np.float_power``, the C library's ``pow`` that
    Python's ``x ** 2`` calls, because ``x * x`` differs from it in the last
    bit for about one value in a thousand, and arccos near 1 magnifies that.
    An ``irregular`` row is one the scalar path rejects (an invalid
    scenario, radii in the wrong order, which float rounding allows for tiny
    altitudes, a beam outside (0, pi), a clamp exceeded beyond tolerance) or
    whose result is not finite; its other columns are meaningless.
    """
    base, parameter = spec.base, spec.parameter

    def field(swept: SweepParameter, fixed: float) -> np.ndarray | np.float64:
        # Fixed values enter as np.float64, so that every operation below
        # obeys np.errstate (a Python float division by 0 raises) and ``~``
        # negates a numpy bool, never a Python one (~True is -2).
        return values if parameter is swept else np.float64(fixed)

    def radius(layer: Layer) -> np.ndarray | np.float64:
        earth = np.float64(base.earth_radius_km)
        if layer is Layer.GROUND:
            return earth
        if layer is Layer.AIR:
            return earth + field(SweepParameter.AIR_ALTITUDE, base.air_altitude_km)
        return earth + field(SweepParameter.SPACE_ALTITUDE, base.space_altitude_km)

    rejected = invalid_values(parameter, values, base.air_altitude_km,
                              base.space_altitude_km)
    r_t = radius(base.scenario.transmitter_layer)
    r_r = radius(base.scenario.receiver_layer)
    with np.errstate(all="ignore"):
        if base.scenario.direction is Direction.UPLINK:
            antenna = base.antenna
            frequency = field(SweepParameter.CARRIER_FREQUENCY, antenna.carrier_frequency_hz)
            beamwidth = np.radians(
                antenna.illumination_coefficient * LIGHT_SPEED_M_PER_S
                / (frequency * antenna.reflector_diameter_m))
            half = 0.5 * beamwidth
            ratio = r_t / r_r
            tangent = half > np.arcsin(ratio)
            k = r_r / r_t
            s = np.sin(half)
            radicand = 1.0 - np.float_power(k * s, 2.0)
            delta = k * s * s + np.cos(half) * np.sqrt(np.maximum(radicand, 0.0))
            phi, beyond = _acos_clamped(delta)
            phi = np.where(tangent, np.arccos(ratio), phi)
            irregular = (rejected | ~(r_t > 0.0) | (r_t >= r_r)
                         | ~((beamwidth > 0.0) & (beamwidth < math.pi))
                         | (~tangent & ((-radicand > CLAMP_TOLERANCE) | beyond)))
        else:
            elevation = field(SweepParameter.MIN_ELEVATION, base.min_elevation_rad)
            k = r_r / r_t
            c = np.cos(elevation)
            radicand = 1.0 - np.float_power(k * c, 2.0)
            delta = k * c * c + np.sin(elevation) * np.sqrt(np.maximum(radicand, 0.0))
            phi, beyond = _acos_clamped(delta)
            tangent = np.zeros(values.shape, dtype=bool)
            irregular = (rejected | ~(r_r > 0.0) | (r_r >= r_t)
                         | (-radicand > CLAMP_TOLERANCE) | beyond)
        half_sin = np.sin(0.5 * phi)
        area = 4.0 * math.pi * r_t * r_t * half_sin * half_sin
    return phi, area, tangent, irregular | ~np.isfinite(phi) | ~np.isfinite(area), rejected


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate coverage at each grid point, in grid order.

    The grid is evaluated in one array pass.  A row whose value makes the
    scenario itself invalid (``invalid_values``) takes its reason from that
    mask, in the text ScenarioSpec would raise.  Other rows the pass marks
    irregular are evaluated again by the scalar ``coverage`` path, whose
    result is written in place and which supplies their error text.
    """
    values = grid_values(spec.low, spec.high, spec.steps, spec.scale)
    phi, area, tangent, irregular, rejected = _evaluate(spec, values)
    # ScenarioSpec refuses an infinite value (geomspace can round one up next
    # to the largest float) as not finite before it compares the altitudes,
    # so such a row takes the scalar path.
    rejected &= np.isfinite(values)
    phi[rejected] = area[rejected] = math.nan
    tangent[rejected] = False
    reason = _rejection_reason(spec)
    errors = {}
    for index in np.flatnonzero(irregular).tolist():
        # A float, not np.float64, so error texts quote it as the scalar path does.
        value = float(values[index])
        if rejected[index]:
            errors[index] = reason(value)
            continue
        try:
            dome = coverage(_with_parameter(spec.base, spec.parameter, value))
            row = dome.vertex_angle_rad, dome.area_km2, dome.tangent_limited
        except SaginDomeError as exc:
            errors[index] = str(exc)
            row = math.nan, math.nan, False
        phi[index], area[index], tangent[index] = row
    return SweepTable(values, phi, area, tangent, errors)
