"""Test oracles on the transmitter sphere: the cap centre of a receiver
direction, and the angle between point vectors and that centre."""

import math

import numpy as np

from sagindome.errors import InvalidParameterError


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
