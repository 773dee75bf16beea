"""Test oracles: the difference-of-angles forms of the vertex angle, which
share the domain checks (``_check_*_domain``) with the arccos(delta) closed
forms they check but not the forms or any clamp, and, on the transmitter
sphere, the cap centre of a receiver direction and the angle between point
vectors and that centre."""

import math

import numpy as np

from sagindome.errors import InvalidParameterError
from sagindome.geometry import _check_downlink_domain, _check_uplink_domain


class UnsupportedBranchError(ValueError):
    """The inputs select a geometric branch the called oracle does not model."""


def vertex_angle_uplink_oracle(beamwidth_rad: float, r_t_km: float,
                               r_r_km: float) -> float:
    """Uplink vertex angle via the law-of-sines difference form.

    Returns arcsin((R_r/R_t) sin(theta/2)) - theta/2, on the domain of
    ``vertex_angle_uplink``; the tangent-limited branch is out of its domain.
    """
    _check_uplink_domain(beamwidth_rad, r_t_km, r_r_km)
    half = 0.5 * beamwidth_rad
    if half > math.asin(r_t_km / r_r_km):
        raise UnsupportedBranchError(
            "tangent-limited inputs are outside the difference-form derivation")
    # The sine is >= 0, and rounding can take it a few ulps above 1.
    return math.asin(min((r_r_km / r_t_km) * math.sin(half), 1.0)) - half


def vertex_angle_downlink_oracle(elevation_rad: float, r_t_km: float,
                                 r_r_km: float) -> float:
    """Downlink vertex angle via the difference form
    arccos((R_r/R_t) cos(alpha)) - alpha, on the domain of
    ``vertex_angle_downlink``."""
    _check_downlink_domain(elevation_rad, r_t_km, r_r_km)
    return math.acos(min((r_r_km / r_t_km) * math.cos(elevation_rad), 1.0)) - elevation_rad


def cap_center_direction(rx_azimuth_rad: float, rx_polar_rad: float) -> np.ndarray:
    """Unit vector of the cap centre for a receiver at (azimuth, polar)."""
    sin_p = math.sin(rx_polar_rad)
    return np.array([sin_p * math.cos(rx_azimuth_rad),
                     sin_p * math.sin(rx_azimuth_rad),
                     math.cos(rx_polar_rad)])


def angular_distance(points, center_direction) -> np.ndarray | float:
    """Angle(s) in radians between point vector(s) and a cap-centre direction.

    Accepts one (3,) vector or an (n, 3) stack.  Evaluated as
    atan2(|p x c|, p . c), which keeps full relative precision near 0 and pi
    where arccos of the cosine loses about half the digits.
    """
    p = np.asarray(points, dtype=float)
    c = np.asarray(center_direction, dtype=float)
    if np.linalg.norm(c) == 0.0 or np.any(np.linalg.norm(p, axis=-1) == 0.0):
        raise InvalidParameterError("angular_distance is undefined for zero vectors")
    angles = np.arctan2(np.linalg.norm(np.cross(p, c), axis=-1), p @ c)
    return float(angles) if angles.ndim == 0 else angles
