"""Parameter sweeps over scenario geometry and expected-count arithmetic."""

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, SaginDomeError
from .geometry import (
    CLAMP_TOLERANCE,
    LIGHT_SPEED_M_PER_S,
    DomeGeometry,
    _require_finite_nonnegative,
    _require_positive,
)
from .scenarios import Direction, Layer, ScenarioSpec, coverage

# Largest grid a sweep may ask for.  Each step costs about 70 bytes at peak
# (the float temporaries of the array pass and the result columns), so a CLI
# sweep at the cap peaks near 110 MB.
MAX_SWEEP_STEPS = 1_000_000


class SweepParameter(Enum):
    CARRIER_FREQUENCY = "carrier_frequency"
    MIN_ELEVATION = "min_elevation"
    AIR_ALTITUDE = "air_altitude"
    SPACE_ALTITUDE = "space_altitude"


class SweepScale(Enum):
    LINEAR = "linear"
    LOGARITHMIC = "log"


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a fixed base scenario.

    ``low`` and ``high`` are in the parameter's library unit: Hz for the
    carrier frequency, radians for the elevation angle, km for altitudes.
    """

    base: ScenarioSpec
    parameter: SweepParameter
    low: float
    high: float
    steps: int
    scale: SweepScale = SweepScale.LINEAR

    def __post_init__(self) -> None:
        if not isinstance(self.parameter, SweepParameter):
            raise InvalidParameterError(
                f"parameter must be a SweepParameter, got {self.parameter!r}")
        check_grid(self.low, self.high, self.steps, self.scale)
        if not parameter_applicable(self.parameter, self.base.scenario):
            raise InvalidParameterError(
                f"parameter {self.parameter.value} is inapplicable to "
                f"scenario {self.base.scenario.value}")


def check_grid(low: float, high: float, steps: int, scale: SweepScale) -> None:
    """Reject a grid before any of it is allocated.

    The checks hold in any unit that preserves order and sign, so the CLI
    runs them on its own degrees as well.
    """
    if not isinstance(scale, SweepScale):
        raise InvalidParameterError(f"scale must be a SweepScale, got {scale!r}")
    if not (low < high and math.isfinite(high - low)):
        raise InvalidParameterError(
            f"sweep range requires low < high and a finite high - low, "
            f"got low={low!r} high={high!r}")
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise InvalidParameterError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise InvalidParameterError(f"steps must be >= 2, got {steps!r}")
    if steps > MAX_SWEEP_STEPS:
        raise InvalidParameterError(
            f"steps must be <= {MAX_SWEEP_STEPS}, got {steps!r}")
    if scale is SweepScale.LOGARITHMIC and low <= 0.0:
        raise InvalidParameterError("logarithmic sweeps require low > 0")


def parameter_applicable(parameter: SweepParameter, scenario) -> bool:
    """Whether a sweep parameter exists at all for the given scenario."""
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        return scenario.direction is Direction.UPLINK
    if parameter is SweepParameter.MIN_ELEVATION:
        return scenario.direction is Direction.DOWNLINK
    if parameter is SweepParameter.AIR_ALTITUDE:
        return Layer.AIR in scenario.layers
    return Layer.SPACE in scenario.layers


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


def _with_parameter(base: ScenarioSpec, parameter: SweepParameter,
                    value: float) -> ScenarioSpec:
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        antenna = dataclasses.replace(base.antenna, carrier_frequency_hz=value)
        return dataclasses.replace(base, antenna=antenna)
    if parameter is SweepParameter.MIN_ELEVATION:
        return dataclasses.replace(base, min_elevation_rad=value)
    if parameter is SweepParameter.AIR_ALTITUDE:
        return dataclasses.replace(base, air_altitude_km=value)
    return dataclasses.replace(base, space_altitude_km=value)


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


def _acos_clamped(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """arccos of ``delta`` clamped to [-1, 1] as ``geometry._clamp_cosine``
    does, plus the mask of arguments outside it beyond CLAMP_TOLERANCE."""
    beyond = (delta - 1.0 > CLAMP_TOLERANCE) | (-1.0 - delta > CLAMP_TOLERANCE)
    return np.arccos(np.clip(delta, -1.0, 1.0)), beyond


def _evaluate(spec: SweepSpec, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``coverage`` at every grid value in one array pass.

    Returns new arrays (vertex angle, area, tangent_limited, irregular).
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

    def field(swept: SweepParameter, fixed):
        return values if parameter is swept else fixed

    def radius(layer: Layer) -> np.ndarray:
        # An array even when fixed, so that ``~`` below negates a numpy
        # bool and never a Python one (~True is -2).
        earth = base.earth_radius_km
        if layer is Layer.GROUND:
            return np.asarray(earth)
        if layer is Layer.AIR:
            return np.asarray(earth + field(SweepParameter.AIR_ALTITUDE, base.air_altitude_km))
        return np.asarray(earth + field(SweepParameter.SPACE_ALTITUDE, base.space_altitude_km))

    irregular = invalid_values(parameter, values, base.air_altitude_km,
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
            irregular = (irregular | ~(r_t > 0.0) | (r_t >= r_r)
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
            irregular = (irregular | ~(r_r > 0.0) | (r_r >= r_t)
                         | (-radicand > CLAMP_TOLERANCE) | beyond)
        half_sin = np.sin(0.5 * phi)
        area = 4.0 * math.pi * r_t * r_t * half_sin * half_sin
    return phi, area, tangent, irregular | ~np.isfinite(phi) | ~np.isfinite(area)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate coverage at each grid point, in grid order.

    The grid is evaluated in one array pass.  Rows the pass marks irregular
    are evaluated again by the scalar ``coverage`` path, whose result is
    written in place and which supplies the error text of every failed row.
    """
    values = grid_values(spec.low, spec.high, spec.steps, spec.scale)
    phi, area, tangent, irregular = _evaluate(spec, values)
    errors = {}
    for index in np.flatnonzero(irregular).tolist():
        # A float, not np.float64, so error texts quote it as the scalar path does.
        try:
            dome = coverage(_with_parameter(spec.base, spec.parameter, float(values[index])))
            row = dome.vertex_angle_rad, dome.area_km2, dome.tangent_limited
        except SaginDomeError as exc:
            errors[index] = str(exc)
            row = math.nan, math.nan, False
        phi[index], area[index], tangent[index] = row
    return SweepTable(values, phi, area, tangent, errors)


def expected_count(dome: DomeGeometry, density_per_km2: float) -> tuple[float, int]:
    """(density * area, floor(density * area)): the exact product and the
    integer mean actually fed to the Poisson draw."""
    _require_finite_nonnegative("density_per_km2", density_per_km2)
    product = density_per_km2 * dome.area_km2
    if not math.isfinite(product):
        raise InvalidParameterError(
            f"expected count density * area overflows: {density_per_km2!r} * "
            f"{dome.area_km2!r}")
    return product, int(math.floor(product))


def full_sphere_count(radius_km: float, density_per_km2: float) -> float:
    """Expected node count of a whole sphere, 4*pi*r^2 * density."""
    _require_positive("radius_km", radius_km)
    _require_finite_nonnegative("density_per_km2", density_per_km2)
    count = 4.0 * math.pi * radius_km * radius_km * density_per_km2
    if not math.isfinite(count):
        raise InvalidParameterError(
            f"full-sphere count 4*pi*r^2 * density overflows: radius_km={radius_km!r}, "
            f"density_per_km2={density_per_km2!r}")
    return count
