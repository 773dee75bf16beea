"""Closed-form spherical-dome coverage geometry.

A receiver observing a sphere of transmitters covers a spherical cap, whose
Earth-central vertex angle follows from the receiver's beamwidth (uplink) or
minimum elevation angle (downlink).  This module holds those closed forms,
the difference-of-angles identities used as independent cross-checks, and
the expected node counts of a cap and of a whole sphere.

Every angle crossing these functions is in radians and every length in
kilometres.  The single deliberate exception is the reflector-antenna
beamwidth formula, which is defined in degrees and converted to radians at
its one point of evaluation, ``_beamwidth`` (behind ``half_power_beamwidth``).
"""

import math
from dataclasses import dataclass

from .errors import (
    InvalidGeometryError,
    InvalidParameterError,
    NumericDomainError,
    UnsupportedBranchError,
)

DEFAULT_EARTH_RADIUS_KM = 6371.0
LIGHT_SPEED_M_PER_S = 2.998e8

# Inverse-trig arguments within this distance outside [-1, 1] are float
# noise and get clamped; anything farther out is a real geometry bug.
CLAMP_TOLERANCE = 1e-12


# Texts of checks that ``sweeps.run_sweep`` also applies to each swept value.
def _positive_error(name: str, value: float) -> str | None:
    """The text ``_require_positive`` raises for ``value``, or None."""
    if not value > 0.0:
        return f"{name} must be > 0, got {value!r}"
    if value == math.inf:
        return f"{name} must be finite, got {value!r}"
    return None


def _elevation_text(name: str, value: float) -> str:
    return f"{name} must lie in [0, pi/2], got {value!r}"


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(_positive_error(name, value))


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


def _require_vertex_angle(vertex_angle_rad: float) -> None:
    if not 0.0 <= vertex_angle_rad <= math.pi:
        raise InvalidParameterError(
            f"vertex_angle_rad must lie in [0, pi], got {vertex_angle_rad!r}")


def _check_uplink_domain(beamwidth_rad: float, r_t_km: float, r_r_km: float) -> None:
    """The domain of ``vertex_angle_uplink`` and of its oracle."""
    _require_positive("r_t_km", r_t_km)
    if r_t_km >= r_r_km:
        raise InvalidGeometryError(
            f"uplink requires r_t_km < r_r_km, got r_t_km={r_t_km!r}, r_r_km={r_r_km!r}")
    if not 0.0 < beamwidth_rad < math.pi:
        raise InvalidParameterError(
            f"beamwidth_rad must lie in (0, pi), got {beamwidth_rad!r}")


def _check_downlink_domain(elevation_rad: float, r_t_km: float, r_r_km: float) -> None:
    """The domain of ``vertex_angle_downlink`` and of its oracle."""
    _require_positive("r_r_km", r_r_km)
    if r_r_km >= r_t_km:
        raise InvalidGeometryError(
            f"downlink requires r_r_km < r_t_km, got r_t_km={r_t_km!r}, r_r_km={r_r_km!r}")
    if not 0.0 <= elevation_rad <= 0.5 * math.pi:
        raise InvalidParameterError(_elevation_text("elevation_rad", elevation_rad))


def _clamp_cosine(value: float, what: str) -> float:
    """Clamp an arccos/arcsin argument to [-1, 1] within CLAMP_TOLERANCE."""
    if value > 1.0:
        if value - 1.0 > CLAMP_TOLERANCE:
            raise NumericDomainError(f"{what} = {value!r} exceeds 1 beyond tolerance")
        return 1.0
    if value < -1.0:
        if -1.0 - value > CLAMP_TOLERANCE:
            raise NumericDomainError(f"{what} = {value!r} is below -1 beyond tolerance")
        return -1.0
    return value


def _clamp_nonnegative(value: float, what: str) -> float:
    """Clamp a square-root radicand to >= 0 within CLAMP_TOLERANCE."""
    if value < 0.0:
        if -value > CLAMP_TOLERANCE:
            raise NumericDomainError(f"{what} = {value!r} is negative beyond tolerance")
        return 0.0
    return value


@dataclass(frozen=True)
class AntennaConfig:
    """Normalized reflector antenna: illumination coefficient, diameter, carrier."""

    illumination_coefficient: float
    reflector_diameter_m: float
    carrier_frequency_hz: float

    def __post_init__(self) -> None:
        _require_positive("illumination_coefficient", self.illumination_coefficient)
        _require_positive("reflector_diameter_m", self.reflector_diameter_m)
        _require_positive("carrier_frequency_hz", self.carrier_frequency_hz)


@dataclass(frozen=True)
class DomeGeometry:
    """A resolved coverage cap on the transmitter sphere.

    ``delta`` is the cosine of the vertex angle, so the cap area always
    equals 2*pi*transmitter_radius_km**2 * (1 - delta).  ``tangent_limited``
    marks uplink caps bounded by the tangent cone rather than the beam edge.
    """

    transmitter_radius_km: float
    receiver_radius_km: float
    vertex_angle_rad: float
    delta: float
    area_km2: float
    tangent_limited: bool

    def __post_init__(self) -> None:
        _require_positive("transmitter_radius_km", self.transmitter_radius_km)
        _require_positive("receiver_radius_km", self.receiver_radius_km)
        _require_vertex_angle(self.vertex_angle_rad)
        if not -1.0 <= self.delta <= 1.0:
            raise InvalidParameterError(f"delta must lie in [-1, 1], got {self.delta!r}")
        _require_finite_nonnegative("area_km2", self.area_km2)


def half_power_beamwidth(antenna: AntennaConfig) -> float:
    """Full 3-dB beamwidth of a normalized reflector antenna, in radians.

    The defining formula kappa * c / (f * D) yields DEGREES; the conversion
    to radians happens here and nowhere else.  Two positive inputs whose
    product f * D underflows to zero are refused.
    """
    return _beamwidth(antenna.illumination_coefficient, antenna.carrier_frequency_hz,
                      antenna.reflector_diameter_m)


def _beamwidth(illumination_coefficient: float, carrier_frequency_hz: float,
               reflector_diameter_m: float) -> float:
    """``half_power_beamwidth`` of the three floats of an antenna."""
    product = carrier_frequency_hz * reflector_diameter_m
    if product == 0.0:
        raise InvalidParameterError(
            f"carrier_frequency_hz * reflector_diameter_m underflows to 0: "
            f"{carrier_frequency_hz!r} * {reflector_diameter_m!r}")
    return math.radians(illumination_coefficient * LIGHT_SPEED_M_PER_S / product)


def vertex_angle_uplink(beamwidth_rad: float, r_t_km: float,
                        r_r_km: float) -> tuple[float, bool]:
    """Vertex angle of an uplink cap, plus whether it is tangent-limited.

    The receiver at radius ``r_r_km`` points a cone of full angle
    ``beamwidth_rad`` at the sphere centre; the cap is the cone's
    intersection with the transmitter sphere of radius ``r_t_km``.  With
    delta = (R_r/R_t) sin^2(theta/2)
            + cos(theta/2) sqrt(1 - (R_r^2/R_t^2) sin^2(theta/2)),
    the angle is arccos(delta) while the half-beam stays within the
    transmitter sphere's angular radius arcsin(R_t/R_r); a wider beam is
    bounded by tangency at arccos(R_t/R_r) instead.
    """
    _check_uplink_domain(beamwidth_rad, r_t_km, r_r_km)
    half = 0.5 * beamwidth_rad
    ratio = r_t_km / r_r_km
    if half > math.asin(ratio):
        return math.acos(ratio), True
    k = r_r_km / r_t_km
    s = math.sin(half)
    radicand = _clamp_nonnegative(1.0 - (k * s) ** 2, "uplink radicand")
    delta = k * s * s + math.cos(half) * math.sqrt(radicand)
    return math.acos(_clamp_cosine(delta, "uplink delta")), False


def vertex_angle_downlink(elevation_rad: float, r_t_km: float, r_r_km: float) -> float:
    """Vertex angle of a downlink cap for a given minimum elevation angle.

    The receiver at radius ``r_r_km`` observes every transmitter on the
    sphere of radius ``r_t_km`` above elevation ``elevation_rad``; the cap
    angle is arccos(delta) with
    delta = (R_r/R_t) cos^2(alpha)
            + sin(alpha) sqrt(1 - (R_r^2/R_t^2) cos^2(alpha)).
    """
    _check_downlink_domain(elevation_rad, r_t_km, r_r_km)
    k = r_r_km / r_t_km
    c = math.cos(elevation_rad)
    radicand = _clamp_nonnegative(1.0 - (k * c) ** 2, "downlink radicand")
    delta = k * c * c + math.sin(elevation_rad) * math.sqrt(radicand)
    return math.acos(_clamp_cosine(delta, "downlink delta"))


def cap_area(r_t_km: float, vertex_angle_rad: float) -> float:
    """Area of a spherical cap, 2*pi*R^2*(1 - cos(phi)), in km^2.

    Evaluated as 4*pi*R^2*sin^2(phi/2): identical analytically, but free of
    the cancellation that costs 1 - cos(phi) about eight digits near
    phi = 1e-4.
    """
    _require_positive("r_t_km", r_t_km)
    _require_vertex_angle(vertex_angle_rad)
    half_sin = math.sin(0.5 * vertex_angle_rad)
    return 4.0 * math.pi * r_t_km * r_t_km * half_sin * half_sin


def _dome(uplink: bool, r_t_km: float, r_r_km: float,
          angle_rad: float) -> tuple[float, float, bool]:
    """(vertex angle, cap area, tangent_limited) of a dome from resolved
    floats: the radii and the beamwidth of an uplink or the minimum elevation
    of a downlink.

    The one evaluation of the closed forms behind ``coverage`` and every
    sweep row.  It raises what ``coverage`` raises, in the same order: the
    domain checks, the clamps, then the checks of ``cap_area`` and of
    ``DomeGeometry``.
    """
    if uplink:
        phi, tangent_limited = vertex_angle_uplink(angle_rad, r_t_km, r_r_km)
    else:
        phi, tangent_limited = vertex_angle_downlink(angle_rad, r_t_km, r_r_km), False
    area = cap_area(r_t_km, phi)
    if not (r_r_km < math.inf and area < math.inf):
        # Past the checks above, only these two DomeGeometry checks can fail.
        _require_positive("receiver_radius_km", r_r_km)
        _require_finite_nonnegative("area_km2", area)
    return phi, area, tangent_limited


def vertex_angle_uplink_oracle(beamwidth_rad: float, r_t_km: float,
                               r_r_km: float) -> float:
    """Uplink vertex angle via the law-of-sines difference form.

    Returns arcsin((R_r/R_t) sin(theta/2)) - theta/2.  Exists solely as an
    independent cross-check of ``vertex_angle_uplink``; the tangent-limited
    branch is out of its domain.
    """
    _check_uplink_domain(beamwidth_rad, r_t_km, r_r_km)
    half = 0.5 * beamwidth_rad
    if half > math.asin(r_t_km / r_r_km):
        raise UnsupportedBranchError(
            "tangent-limited inputs are outside the difference-form derivation")
    sine = _clamp_cosine((r_r_km / r_t_km) * math.sin(half), "uplink oracle sine")
    return math.asin(sine) - half


def vertex_angle_downlink_oracle(elevation_rad: float, r_t_km: float,
                                 r_r_km: float) -> float:
    """Downlink vertex angle via the difference form arccos((R_r/R_t) cos(alpha)) - alpha.

    Independent cross-check of ``vertex_angle_downlink``.
    """
    _check_downlink_domain(elevation_rad, r_t_km, r_r_km)
    cosine = _clamp_cosine((r_r_km / r_t_km) * math.cos(elevation_rad),
                           "downlink oracle cosine")
    return math.acos(cosine) - elevation_rad


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
