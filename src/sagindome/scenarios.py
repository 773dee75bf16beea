"""The six cross-layer link scenarios and their resolved dome geometry.

Three uplinks (G2A, A2S, G2S) where an elevated receiver points a beam at
the transmitter sphere below, and three downlinks (A2G, S2A, S2G) where a
lower receiver observes the transmitter sphere above a minimum elevation.
The transmitter radius is always the transmitting layer's radius.  A sweep
(``SweepSpec``) and a sample (``SampleConfig``) are requests on a scenario.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidGeometryError, InvalidParameterError
from .geometry import (
    DEFAULT_EARTH_RADIUS_KM,
    AntennaConfig,
    DomeGeometry,
    _dome,
    _elevation_text,
    _require_finite_nonnegative,
    _require_positive,
    half_power_beamwidth,
)


class Direction(Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


class Layer(Enum):
    GROUND = "ground"
    AIR = "air"
    SPACE = "space"


class Scenario(Enum):
    """Transmitter-layer to receiver-layer pairing."""

    G2A = "g2a"
    A2S = "a2s"
    G2S = "g2s"
    A2G = "a2g"
    S2A = "s2a"
    S2G = "s2g"

    @property
    def transmitter_layer(self) -> Layer:
        return _LAYER_PAIRS[self][0]

    @property
    def receiver_layer(self) -> Layer:
        return _LAYER_PAIRS[self][1]

    @property
    def direction(self) -> Direction:
        if self in (Scenario.G2A, Scenario.A2S, Scenario.G2S):
            return Direction.UPLINK
        return Direction.DOWNLINK

    @property
    def layers(self) -> frozenset[Layer]:
        return frozenset(_LAYER_PAIRS[self])


_LAYER_PAIRS = {
    Scenario.G2A: (Layer.GROUND, Layer.AIR),
    Scenario.A2S: (Layer.AIR, Layer.SPACE),
    Scenario.G2S: (Layer.GROUND, Layer.SPACE),
    Scenario.A2G: (Layer.AIR, Layer.GROUND),
    Scenario.S2A: (Layer.SPACE, Layer.AIR),
    Scenario.S2G: (Layer.SPACE, Layer.GROUND),
}

# Scenario family (by the lower endpoint of the link) selects the carrier
# frequency range: ground-air links use the low band, links touching space
# the satellite band.
_FREQUENCY_FAMILY = {
    Scenario.G2A: 1, Scenario.A2G: 1,
    Scenario.A2S: 2, Scenario.S2A: 2,
    Scenario.G2S: 3, Scenario.S2G: 3,
}

FREQUENCY_RANGE_HZ = {1: (300e6, 2.4e9), 2: (2e9, 40e9), 3: (2e9, 40e9)}
AIR_ALTITUDE_RANGE_KM = (1.0, 50.0)
SPACE_ALTITUDE_RANGE_KM = (500.0, 35786.0)
ELEVATION_RANGE_RAD = (math.radians(5.0), math.radians(30.0))


def _altitude_order_text(air: str, space: str) -> str:
    """The text of ScenarioSpec's altitude-order check, from the two altitudes'
    reprs, so that a sweep formats its fixed altitude once."""
    return f"air_altitude_km={air} must be below space_altitude_km={space}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully parameterized scenario.

    Uplink specs carry an antenna (whose beamwidth sets the cap) and no
    elevation angle; downlink specs carry a minimum elevation angle and no
    antenna.  Altitudes are required exactly for the layers the scenario
    touches; each layer's radius is the Earth radius plus its altitude.
    """

    scenario: Scenario
    air_altitude_km: float | None = None
    space_altitude_km: float | None = None
    antenna: AntennaConfig | None = None
    min_elevation_rad: float | None = None
    earth_radius_km: float = DEFAULT_EARTH_RADIUS_KM

    def __post_init__(self) -> None:
        sc = self.scenario
        if not isinstance(sc, Scenario):
            raise InvalidParameterError(f"scenario must be a Scenario, got {sc!r}")
        _require_positive("earth_radius_km", self.earth_radius_km)
        if sc.direction is Direction.UPLINK:
            if self.antenna is None:
                raise InvalidParameterError(f"{sc.value}: uplink spec requires an antenna")
            if self.min_elevation_rad is not None:
                raise InvalidParameterError(
                    f"{sc.value}: min_elevation_rad is not applicable to an uplink spec")
        else:
            if self.min_elevation_rad is None:
                raise InvalidParameterError(
                    f"{sc.value}: downlink spec requires min_elevation_rad")
            if self.antenna is not None:
                raise InvalidParameterError(
                    f"{sc.value}: antenna is not applicable to a downlink spec")
            if not 0.0 <= self.min_elevation_rad <= 0.5 * math.pi:
                raise InvalidParameterError(
                    _elevation_text("min_elevation_rad", self.min_elevation_rad))
        self._check_altitude(Layer.AIR, "air_altitude_km", self.air_altitude_km)
        self._check_altitude(Layer.SPACE, "space_altitude_km", self.space_altitude_km)
        if (self.air_altitude_km is not None and self.space_altitude_km is not None
                and self.air_altitude_km >= self.space_altitude_km):
            raise InvalidGeometryError(
                _altitude_order_text(repr(self.air_altitude_km), repr(self.space_altitude_km)))

    def _check_altitude(self, layer: Layer, name: str, value: float | None) -> None:
        if layer in self.scenario.layers:
            if value is None:
                raise InvalidParameterError(f"{self.scenario.value}: {name} is required")
            _require_positive(name, value)
        elif value is not None:
            raise InvalidParameterError(
                f"{self.scenario.value}: {name} is not applicable to this scenario")


@dataclass(frozen=True)
class RangeViolation:
    """A parameter outside its customary operating range (advisory only)."""

    parameter: str
    value: float
    low: float
    high: float


def _layer_radius_km(spec: ScenarioSpec, layer: Layer) -> float:
    base = spec.earth_radius_km
    if layer is Layer.GROUND:
        return base
    if layer is Layer.AIR:
        return base + spec.air_altitude_km
    return base + spec.space_altitude_km


def resolve_radii(spec: ScenarioSpec) -> tuple[float, float]:
    """Resolve (transmitter radius, receiver radius), both in km."""
    return (_layer_radius_km(spec, spec.scenario.transmitter_layer),
            _layer_radius_km(spec, spec.scenario.receiver_layer))


def validate(spec: ScenarioSpec) -> tuple[RangeViolation, ...]:
    """Range-check parameters against customary operating ranges.

    Violations are warnings, never hard errors: sweeps and literature
    reproductions routinely evaluate at range edges and beyond.
    """
    found: list[RangeViolation] = []

    def check(parameter: str, value: float, low: float, high: float) -> None:
        if not low <= value <= high:
            found.append(RangeViolation(parameter, value, low, high))

    if spec.antenna is not None:
        low, high = FREQUENCY_RANGE_HZ[_FREQUENCY_FAMILY[spec.scenario]]
        check("carrier_frequency_hz", spec.antenna.carrier_frequency_hz, low, high)
    if spec.min_elevation_rad is not None:
        check("min_elevation_rad", spec.min_elevation_rad, *ELEVATION_RANGE_RAD)
    if spec.air_altitude_km is not None:
        check("air_altitude_km", spec.air_altitude_km, *AIR_ALTITUDE_RANGE_KM)
    if spec.space_altitude_km is not None:
        check("space_altitude_km", spec.space_altitude_km, *SPACE_ALTITUDE_RANGE_KM)
    return tuple(found)


def coverage(spec: ScenarioSpec) -> DomeGeometry:
    """Resolve the scenario end to end into its coverage dome."""
    r_t, r_r = resolve_radii(spec)
    uplink = spec.scenario.direction is Direction.UPLINK
    angle = half_power_beamwidth(spec.antenna) if uplink else spec.min_elevation_rad
    phi, area, tangent_limited = _dome(uplink, r_t, r_r, angle)
    return DomeGeometry(
        transmitter_radius_km=r_t,
        receiver_radius_km=r_r,
        vertex_angle_rad=phi,
        delta=math.cos(phi),
        area_km2=area,
        tangent_limited=tangent_limited,
    )


# Largest grid a sweep may ask for.  A CLI sweep at the cap peaked at 50 MB
# with every row evaluated (about 40 bytes a step: three float columns and a
# flag), and at 240 MB with 98% of the rows failed (about 190 bytes more for
# each row's error text).
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


def parameter_applicable(parameter: SweepParameter, scenario: Scenario) -> bool:
    """Whether a sweep parameter exists at all for the given scenario."""
    if parameter is SweepParameter.CARRIER_FREQUENCY:
        return scenario.direction is Direction.UPLINK
    if parameter is SweepParameter.MIN_ELEVATION:
        return scenario.direction is Direction.DOWNLINK
    if parameter is SweepParameter.AIR_ALTITUDE:
        return Layer.AIR in scenario.layers
    return Layer.SPACE in scenario.layers


class SampleMode(Enum):
    """How polar angles are drawn inside the cap.

    AREA_UNIFORM places points with uniform surface density (a homogeneous
    point process on the cap).  PAPER_FAITHFUL draws the signed polar angle
    uniformly on [-phi, phi], which over-weights the cap centre by a factor
    1/sin(polar) but reproduces the classic generation recipe verbatim.
    """

    AREA_UNIFORM = "area_uniform"
    PAPER_FAITHFUL = "paper_faithful"


@dataclass(frozen=True)
class SampleConfig:
    """Density, receiver orientation, sampling mode, and seed."""

    density_per_km2: float
    rx_azimuth_rad: float = 0.0
    rx_polar_rad: float = 0.0
    mode: SampleMode = SampleMode.AREA_UNIFORM
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite_nonnegative("density_per_km2", self.density_per_km2)
        for name in ("rx_azimuth_rad", "rx_polar_rad"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        object.__setattr__(self, "mode", _sample_mode(self.mode))
        _check_seed(self.seed)


def _sample_mode(mode: SampleMode | str) -> SampleMode:
    try:
        return SampleMode(mode)
    except ValueError:
        raise InvalidParameterError(
            f"mode must be one of {[m.value for m in SampleMode]}, got {mode!r}") from None


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise InvalidParameterError(f"seed must lie in [0, 2**64), got {seed!r}")
