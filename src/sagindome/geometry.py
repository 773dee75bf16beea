"""Closed-form spherical-dome coverage geometry.

A receiver observing a sphere of transmitters covers a spherical cap, whose
Earth-central vertex angle follows from the receiver's beamwidth (uplink) or
minimum elevation angle (downlink).  This module holds those closed forms
and the expected node counts of a cap and of a whole sphere.

Each closed form is a public function that checks its arguments and a
private body (``_vertex_angle_uplink``, ``_vertex_angle_downlink``,
``_cap_area``) that evaluates them unchecked.  Callers that have already
checked their values, as ``scenarios._resolve`` has for ``coverage`` and
every sweep row, call the bodies.

Every angle crossing these functions is in radians and every length in
kilometres.  The single deliberate exception is the reflector-antenna
beamwidth formula, which is defined in degrees and converted to radians at
its one point of evaluation, ``_beamwidth`` (behind ``half_power_beamwidth``).
"""

import math

from .errors import InvalidGeometryError, InvalidParameterError

DEFAULT_EARTH_RADIUS_KM = 6371.0
LIGHT_SPEED_M_PER_S = 2.998e8


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    if value == math.inf:
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


def _require_vertex_angle(vertex_angle_rad: float) -> None:
    if not 0.0 <= vertex_angle_rad <= math.pi:
        raise InvalidParameterError(
            f"vertex_angle_rad must lie in [0, pi], got {vertex_angle_rad!r}")


def _check_uplink_domain(beamwidth_rad: float, r_t_km: float, r_r_km: float) -> None:
    """The domain of ``vertex_angle_uplink``."""
    _require_positive("r_t_km", r_t_km)
    if r_t_km >= r_r_km:
        raise InvalidGeometryError(
            f"uplink requires r_t_km < r_r_km, got r_t_km={r_t_km!r}, r_r_km={r_r_km!r}")
    if not 0.0 < beamwidth_rad < math.pi:
        raise InvalidParameterError(
            f"beamwidth_rad must lie in (0, pi), got {beamwidth_rad!r}")


def _check_downlink_domain(elevation_rad: float, r_t_km: float, r_r_km: float) -> None:
    """The domain of ``vertex_angle_downlink``."""
    _require_positive("r_r_km", r_r_km)
    if r_r_km >= r_t_km:
        raise InvalidGeometryError(
            f"downlink requires r_r_km < r_t_km, got r_t_km={r_t_km!r}, r_r_km={r_r_km!r}")
    if not 0.0 <= elevation_rad <= 0.5 * math.pi:
        raise InvalidParameterError(
            f"elevation_rad must lie in [0, pi/2], got {elevation_rad!r}")


class _Record:
    """The frozen base of the package's records.

    A record's fields are the attributes its ``__init__`` stores, in that
    order.  ``repr`` lists them as a dataclass would, ``==`` and ``hash``
    compare them within one class, and assigning or deleting an attribute
    raises ``AttributeError``.  Pickling and copying restore the fields
    without calling ``__init__``.
    """

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class AntennaConfig(_Record):
    """Normalized reflector antenna: illumination coefficient, diameter, carrier."""

    illumination_coefficient: float
    reflector_diameter_m: float
    carrier_frequency_hz: float

    def __init__(self, illumination_coefficient: float, reflector_diameter_m: float,
                 carrier_frequency_hz: float) -> None:
        _require_positive("illumination_coefficient", illumination_coefficient)
        _require_positive("reflector_diameter_m", reflector_diameter_m)
        _require_positive("carrier_frequency_hz", carrier_frequency_hz)
        self.__dict__.update(illumination_coefficient=illumination_coefficient,
                             reflector_diameter_m=reflector_diameter_m,
                             carrier_frequency_hz=carrier_frequency_hz)


class DomeGeometry(_Record):
    """A resolved coverage cap on the transmitter sphere.

    The transmitter-sphere radius and the Earth-central vertex angle fix the
    cap; ``delta`` (its cosine) and ``area_km2`` (``cap_area`` of the two,
    2*pi*transmitter_radius_km**2 * (1 - delta)) are derived from them at
    construction.  ``tangent_limited`` marks uplink caps bounded by the
    tangent cone rather than the beam edge.
    """

    transmitter_radius_km: float
    receiver_radius_km: float
    vertex_angle_rad: float
    tangent_limited: bool
    delta: float
    area_km2: float

    def __init__(self, transmitter_radius_km: float, receiver_radius_km: float,
                 vertex_angle_rad: float, tangent_limited: bool) -> None:
        _require_positive("transmitter_radius_km", transmitter_radius_km)
        _require_positive("receiver_radius_km", receiver_radius_km)
        _require_vertex_angle(vertex_angle_rad)
        area = _cap_area(transmitter_radius_km, vertex_angle_rad)
        _require_finite_nonnegative("area_km2", area)
        self._store(transmitter_radius_km, receiver_radius_km, vertex_angle_rad, area,
                    tangent_limited)

    def _store(self, r_t_km: float, r_r_km: float, vertex_angle_rad: float, area_km2: float,
               tangent_limited: bool) -> None:
        """Store checked values, their ``cap_area`` and their ``delta``."""
        self.__dict__.update(transmitter_radius_km=r_t_km, receiver_radius_km=r_r_km,
                             vertex_angle_rad=vertex_angle_rad,
                             tangent_limited=tangent_limited,
                             delta=math.cos(vertex_angle_rad), area_km2=area_km2)


def _checked_dome(r_t_km: float, r_r_km: float, vertex_angle_rad: float, area_km2: float,
                  tangent_limited: bool) -> DomeGeometry:
    """The ``DomeGeometry`` of values that already passed its checks, with
    their ``cap_area`` (``scenarios._resolve``): built without repeating
    either."""
    dome = object.__new__(DomeGeometry)
    dome._store(r_t_km, r_r_km, vertex_angle_rad, area_km2, tangent_limited)
    return dome


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
    return _vertex_angle_uplink(beamwidth_rad, r_t_km, r_r_km)


def _vertex_angle_uplink(beamwidth_rad: float, r_t_km: float,
                         r_r_km: float) -> tuple[float, bool]:
    """``vertex_angle_uplink`` of arguments inside its domain, unchecked."""
    half = 0.5 * beamwidth_rad
    ratio = r_t_km / r_r_km
    if half > math.asin(ratio):
        return math.acos(ratio), True
    k = r_r_km / r_t_km
    s = math.sin(half)
    # Rounding can leave the radicand a few ulps below 0 and delta, a sum of
    # terms >= 0, a few ulps above 1.
    radicand = max(1.0 - (k * s) ** 2, 0.0)
    delta = k * s * s + math.cos(half) * math.sqrt(radicand)
    return math.acos(min(delta, 1.0)), False


def vertex_angle_downlink(elevation_rad: float, r_t_km: float, r_r_km: float) -> float:
    """Vertex angle of a downlink cap for a given minimum elevation angle.

    The receiver at radius ``r_r_km`` observes every transmitter on the
    sphere of radius ``r_t_km`` above elevation ``elevation_rad``; the cap
    angle is arccos(delta) with
    delta = (R_r/R_t) cos^2(alpha)
            + sin(alpha) sqrt(1 - (R_r^2/R_t^2) cos^2(alpha)).
    """
    _check_downlink_domain(elevation_rad, r_t_km, r_r_km)
    return _vertex_angle_downlink(elevation_rad, r_t_km, r_r_km)


def _vertex_angle_downlink(elevation_rad: float, r_t_km: float, r_r_km: float) -> float:
    """``vertex_angle_downlink`` of arguments inside its domain, unchecked."""
    k = r_r_km / r_t_km
    c = math.cos(elevation_rad)
    # With c <= 1, k*c rounds to at most k < 1, and a double below 1 squares
    # to at most 1 - 2**-52: the radicand is positive, and needs no clamp.
    # delta, a sum of terms >= 0, can round a few ulps above 1.
    delta = k * c * c + math.sin(elevation_rad) * math.sqrt(1.0 - (k * c) ** 2)
    return math.acos(min(delta, 1.0))


def cap_area(r_t_km: float, vertex_angle_rad: float) -> float:
    """Area of a spherical cap, 2*pi*R^2*(1 - cos(phi)), in km^2.

    Evaluated as 4*pi*R^2*sin^2(phi/2): identical analytically, and it adds
    no cancellation of its own, so the area is as accurate as phi.  A phi
    that comes from ``acos(delta)``, as the vertex angles here do, carries
    an error of about 1e-16/phi rad already, a relative error of about
    1e-16/phi**2 (1e-8 near phi = 1e-4), and the area inherits it.
    """
    _require_positive("r_t_km", r_t_km)
    _require_vertex_angle(vertex_angle_rad)
    return _cap_area(r_t_km, vertex_angle_rad)


def _cap_area(r_t_km: float, vertex_angle_rad: float) -> float:
    """``cap_area`` of arguments inside its domain, unchecked."""
    half_sin = math.sin(0.5 * vertex_angle_rad)
    return 4.0 * math.pi * r_t_km * r_t_km * half_sin * half_sin


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
