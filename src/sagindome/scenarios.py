"""The six cross-layer link scenarios and their resolved dome geometry.

Three uplinks (G2A, A2S, G2S) where an elevated receiver points a beam at
the transmitter sphere below, and three downlinks (A2G, S2A, S2G) where a
lower receiver observes the transmitter sphere above a minimum elevation.
The transmitter radius is always the transmitting layer's radius.  A sweep
(``SweepSpec``) and a sample (``SampleConfig``) are requests on a scenario.
"""

import math
from enum import Enum
from types import MappingProxyType

from .errors import InvalidGeometryError, InvalidParameterError, SaginDomeError
from .geometry import (
    DEFAULT_EARTH_RADIUS_KM,
    AntennaConfig,
    DomeGeometry,
    _beamwidth,
    _cap_area,
    _check_downlink_domain,
    _check_uplink_domain,
    _checked_dome,
    _Record,
    _require_finite_nonnegative,
    _require_positive,
    _vertex_angle_downlink,
    _vertex_angle_uplink,
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


def inputs(scenario: Scenario) -> MappingProxyType[str, bool]:
    """The optional ``ScenarioSpec`` fields of a scenario, each mapped to
    whether the scenario requires it (True) or forbids it (False).

    An uplink needs the antenna whose beamwidth sets the cap, a downlink the
    minimum elevation angle, and each needs the altitude of every layer the
    link touches.  This is the one statement of that rule: ``ScenarioSpec``,
    the descriptor parser and the sweep parameters all read it.
    """
    return _INPUTS[scenario]


# Built once: a ScenarioSpec reads it on every construction.
_INPUTS = {
    scenario: MappingProxyType({
        "antenna": scenario.direction is Direction.UPLINK,
        "min_elevation_rad": scenario.direction is Direction.DOWNLINK,
        "air_altitude_km": Layer.AIR in scenario.layers,
        "space_altitude_km": Layer.SPACE in scenario.layers,
    })
    for scenario in Scenario
}


# Ground-air links use the low carrier band, links touching space the
# satellite band.
FREQUENCY_RANGE_HZ = {
    scenario: (2e9, 40e9) if Layer.SPACE in scenario.layers else (300e6, 2.4e9)
    for scenario in Scenario
}
AIR_ALTITUDE_RANGE_KM = (1.0, 50.0)
SPACE_ALTITUDE_RANGE_KM = (500.0, 35786.0)
ELEVATION_RANGE_RAD = (math.radians(5.0), math.radians(30.0))


class ScenarioSpec(_Record):
    """A fully parameterized scenario.

    ``inputs(scenario)`` says which of the optional fields must be set and
    which must be None; each layer's radius is the Earth radius plus its
    altitude.
    """

    scenario: Scenario
    air_altitude_km: float | None
    space_altitude_km: float | None
    antenna: AntennaConfig | None
    min_elevation_rad: float | None
    earth_radius_km: float

    def __init__(self, scenario: Scenario, air_altitude_km: float | None = None,
                 space_altitude_km: float | None = None, antenna: AntennaConfig | None = None,
                 min_elevation_rad: float | None = None,
                 earth_radius_km: float = DEFAULT_EARTH_RADIUS_KM) -> None:
        self.__dict__.update(scenario=scenario, air_altitude_km=air_altitude_km,
                             space_altitude_km=space_altitude_km, antenna=antenna,
                             min_elevation_rad=min_elevation_rad,
                             earth_radius_km=earth_radius_km)
        sc = self.scenario
        if not isinstance(sc, Scenario):
            raise InvalidParameterError(f"scenario must be a Scenario, got {sc!r}")
        _require_positive("earth_radius_km", self.earth_radius_km)
        for field, required in inputs(sc).items():
            if (getattr(self, field) is None) == required:
                raise InvalidParameterError(
                    f"{sc.value}: {field} is required" if required
                    else f"{sc.value}: {field} is not applicable to this scenario")
        _check_values(*_values(self))


# The input name of each of a scenario's values, in the order of ``_values``.
_VALUE_NAMES = ("carrier_frequency_hz", "min_elevation_rad", "air_altitude_km",
                "space_altitude_km")


def _values(spec: ScenarioSpec) -> list:
    """The values a scenario resolves from, in the field order of ``inputs``:
    the antenna's carrier frequency, the minimum elevation, the air and the
    space altitude, each None where the scenario lacks it."""
    antenna = spec.antenna
    return [None if antenna is None else antenna.carrier_frequency_hz,
            spec.min_elevation_rad, spec.air_altitude_km, spec.space_altitude_km]


def _check_values(frequency: float | None, elevation: float | None, air: float | None,
                  space: float | None) -> None:
    """The checks of a scenario's values (``_values``), in ``ScenarioSpec``'s
    order, for a spec and for a sweep's fixed values: each value against its
    ``_interval``.  The space altitude is left out of the others, so the air
    altitude is checked on its own and the altitude order at the space
    altitude."""
    values = [frequency, elevation, air, None]
    for slot, value in enumerate((frequency, elevation, air, space)):
        if value is not None:
            low, high = _interval(slot, values)
            if not low < value < high:
                raise _fault(slot, value, values)


# [0, pi/2] as the open interval between the floats next to its ends.
_ELEVATION_INTERVAL = (-math.ulp(0.0), math.nextafter(0.5 * math.pi, math.inf))


def _interval(slot: int, values: list) -> tuple[float, float]:
    """The values a scenario accepts at ``slot`` of its values (``_values``)
    when the others, each valid on its own, are fixed, as an open interval
    (low, high): the one statement of the value rules.  The carrier
    frequency lies in (0, inf), the elevation in [0, pi/2], the air altitude
    in (0, space) and the space altitude in (air, inf); an altitude without
    the other layer's lies in (0, inf)."""
    if slot == 1:
        return _ELEVATION_INTERVAL
    if slot == 2 and values[3] is not None:
        return 0.0, values[3]
    if slot == 3 and values[2] is not None:
        return values[2], math.inf
    return 0.0, math.inf


def _fault(slot: int, value: float, values: list) -> SaginDomeError:
    """The error of a value outside ``_interval(slot, values)``, not raised."""
    name = _VALUE_NAMES[slot]
    if slot == 1:
        return InvalidParameterError(f"{name} must lie in [0, pi/2], got {value!r}")
    if not value > 0.0:
        return InvalidParameterError(f"{name} must be > 0, got {value!r}")
    if value == math.inf:
        return InvalidParameterError(f"{name} must be finite, got {value!r}")
    air, space = (value, values[3]) if slot == 2 else (values[2], value)
    return InvalidGeometryError(
        f"air_altitude_km={air!r} must be below space_altitude_km={space!r}")


class RangeViolation(_Record):
    """A parameter outside its customary operating range (advisory only)."""

    parameter: str
    value: float
    low: float
    high: float

    def __init__(self, parameter: str, value: float, low: float, high: float) -> None:
        self.__dict__.update(parameter=parameter, value=value, low=low, high=high)


def validate(spec: ScenarioSpec) -> tuple[RangeViolation, ...]:
    """Range-check parameters against customary operating ranges.

    Violations are warnings, never hard errors: sweeps and literature
    reproductions routinely evaluate at range edges and beyond.
    """
    ranges = (FREQUENCY_RANGE_HZ[spec.scenario], ELEVATION_RANGE_RAD, AIR_ALTITUDE_RANGE_KM,
              SPACE_ALTITUDE_RANGE_KM)
    return tuple(RangeViolation(name, value, low, high)
                 for name, value, (low, high) in zip(_VALUE_NAMES, _values(spec), ranges)
                 if value is not None and not low <= value <= high)


def coverage(spec: ScenarioSpec) -> DomeGeometry:
    """Resolve the scenario end to end into its coverage dome."""
    return _checked_dome(*_resolve(spec, _values(spec)))


def _resolve(spec: ScenarioSpec, values: list) -> tuple[float, float, float, float, bool]:
    """``coverage`` of the spec's scenario, Earth radius and antenna at values
    (``_values``) inside their ``_interval``: the (transmitter radius,
    receiver radius, vertex angle, cap area, tangent_limited) of its dome.

    It raises what ``coverage`` raises, in the same order, but checks only
    what such values can still fail, and then evaluates the closed forms'
    unchecked bodies: an uplink's beamwidth, formed from the values' carrier
    frequency, that underflows or leaves (0, pi); radii that round to the
    same value; radii that overflow to inf; an area that overflows.  The
    rounding of a radius is monotonic, so valid altitudes can break the
    radius order only by rounding to equal radii; that is refused in the
    names of the inputs, not of the radii.  Every other fault is named by
    the public check it fails, called only then.
    """
    frequency, elevation, air, space = values
    earth, antenna = spec.earth_radius_km, spec.antenna
    # A scenario has the altitude of each layer it touches and of no other
    # (``inputs``), so its altitudes are those of the link's lower and upper
    # layer (the ground's is 0).  Only an uplink has an antenna, whose
    # beamwidth sets the cap, and an uplink transmits from the lower layer.
    lower = earth + (0.0 if air is None or space is None else air)
    upper = earth + (air if space is None else space)
    r_t, r_r = (upper, lower) if antenna is None else (lower, upper)
    angle = (elevation if antenna is None else
             _beamwidth(antenna.illumination_coefficient, frequency, antenna.reflector_diameter_m))
    if r_t == r_r < math.inf:
        altitudes = " and ".join(f"{name}={value!r}" for name, value
                                 in zip(_VALUE_NAMES[2:], values[2:]) if value is not None)
        raise InvalidGeometryError(
            f"transmitter and receiver radii round to the same value: "
            f"earth_radius_km={earth!r} with {altitudes}")
    if antenna is None:
        if r_r == math.inf:
            _check_downlink_domain(angle, r_t, r_r)
        phi, tangent_limited = _vertex_angle_downlink(angle, r_t, r_r), False
    else:
        if not (r_t < math.inf and 0.0 < angle < math.pi):
            _check_uplink_domain(angle, r_t, r_r)
        phi, tangent_limited = _vertex_angle_uplink(angle, r_t, r_r)
    area = _cap_area(r_t, phi)
    if not (r_t < math.inf and r_r < math.inf and area < math.inf):
        # Past the checks above, only these checks of cap_area and
        # DomeGeometry can fail.
        _require_positive("r_t_km", r_t)
        _require_positive("receiver_radius_km", r_r)
        _require_finite_nonnegative("area_km2", area)
    return r_t, r_r, phi, area, tangent_limited


# Largest grid a sweep may ask for.  A CLI sweep holds one block of 1 024
# rows whatever its size, so one at the cap peaks near 16 MB RSS, as a short
# one does: 16.1 MB with every row evaluated (47 MB when the whole table was
# held) and 16.1 MB with 98% of the rows failed (250 MB when every row's
# error text was held).  ``run_sweep`` in Python still returns the whole
# table: about 33 bytes a step, plus about 210 bytes per failed row.
MAX_SWEEP_STEPS = 1_000_000


class SweepParameter(Enum):
    CARRIER_FREQUENCY = "carrier_frequency"
    MIN_ELEVATION = "min_elevation"
    AIR_ALTITUDE = "air_altitude"
    SPACE_ALTITUDE = "space_altitude"


class SweepScale(Enum):
    LINEAR = "linear"
    LOGARITHMIC = "log"


class SweepSpec(_Record):
    """One swept parameter over a fixed base scenario.

    ``low`` and ``high`` are in the parameter's library unit: Hz for the
    carrier frequency, radians for the elevation angle, km for altitudes.
    """

    base: ScenarioSpec
    parameter: SweepParameter
    low: float
    high: float
    steps: int
    scale: SweepScale

    def __init__(self, base: ScenarioSpec, parameter: SweepParameter, low: float, high: float,
                 steps: int, scale: SweepScale = SweepScale.LINEAR) -> None:
        self.__dict__.update(base=base, parameter=parameter, low=low, high=high, steps=steps,
                             scale=scale)
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
    return inputs(scenario)[_PARAMETER_FIELDS[parameter]]


def _slot(parameter: SweepParameter) -> int:
    """The index of a sweep parameter's value among a scenario's values
    (``_values``): its field's place in ``inputs``."""
    return tuple(_INPUTS[Scenario.G2A]).index(_PARAMETER_FIELDS[parameter])


# The ScenarioSpec field that holds each sweep parameter.
_PARAMETER_FIELDS = {
    SweepParameter.CARRIER_FREQUENCY: "antenna",
    SweepParameter.MIN_ELEVATION: "min_elevation_rad",
    SweepParameter.AIR_ALTITUDE: "air_altitude_km",
    SweepParameter.SPACE_ALTITUDE: "space_altitude_km",
}


class SampleMode(Enum):
    """How polar angles are drawn inside the cap.

    AREA_UNIFORM places points with uniform surface density (a homogeneous
    point process on the cap).  PAPER_FAITHFUL draws the signed polar angle
    uniformly on [-phi, phi], which over-weights the cap centre by a factor
    1/sin(polar) but reproduces the classic generation recipe verbatim.
    """

    AREA_UNIFORM = "area_uniform"
    PAPER_FAITHFUL = "paper_faithful"


class SampleConfig(_Record):
    """Density, receiver orientation, sampling mode, and seed."""

    density_per_km2: float
    rx_azimuth_rad: float
    rx_polar_rad: float
    mode: SampleMode
    seed: int

    def __init__(self, density_per_km2: float, rx_azimuth_rad: float = 0.0,
                 rx_polar_rad: float = 0.0, mode: SampleMode | str = SampleMode.AREA_UNIFORM,
                 seed: int = 0) -> None:
        _require_finite_nonnegative("density_per_km2", density_per_km2)
        for name, value in (("rx_azimuth_rad", rx_azimuth_rad), ("rx_polar_rad", rx_polar_rad)):
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite")
        mode = _sample_mode(mode)
        _check_seed(seed)
        self.__dict__.update(density_per_km2=density_per_km2, rx_azimuth_rad=rx_azimuth_rad,
                             rx_polar_rad=rx_polar_rad, mode=mode, seed=seed)


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
