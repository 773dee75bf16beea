"""Spherical-dome coverage geometry and seeded transmitter sampling for
cross-layer space-air-ground links."""

import importlib

from .errors import (
    DescriptorError,
    InvalidGeometryError,
    InvalidParameterError,
    OutputError,
    SaginDomeError,
)
from .geometry import (
    DEFAULT_EARTH_RADIUS_KM,
    LIGHT_SPEED_M_PER_S,
    AntennaConfig,
    DomeGeometry,
    cap_area,
    expected_count,
    full_sphere_count,
    half_power_beamwidth,
    vertex_angle_downlink,
    vertex_angle_uplink,
)
from .io import Descriptor, load_descriptor, parse_descriptor
from .scenarios import (
    Direction,
    Layer,
    RangeViolation,
    SampleConfig,
    SampleMode,
    Scenario,
    ScenarioSpec,
    SweepParameter,
    SweepScale,
    SweepSpec,
    coverage,
    validate,
)

# Names imported on first access, by defining module, and then cached here:
# ``pointprocess`` needs numpy, and ``sweeps`` only the commands that sweep,
# so ``import sagindome`` loads neither.
_LAZY_NAMES = {
    **dict.fromkeys(("Topology", "generate", "make_rng", "poisson_count",
                     "yaw_pitch_matrix"), "pointprocess"),
    "SweepTable": "sweeps",
    "run_sweep": "sweeps",
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))


__version__ = "0.1.0"

__all__ = [
    "AntennaConfig", "DEFAULT_EARTH_RADIUS_KM", "Descriptor", "DescriptorError",
    "Direction", "DomeGeometry", "InvalidGeometryError", "InvalidParameterError",
    "LIGHT_SPEED_M_PER_S", "Layer", "OutputError", "RangeViolation", "SaginDomeError",
    "SampleConfig", "SampleMode", "Scenario", "ScenarioSpec", "SweepParameter",
    "SweepScale", "SweepSpec", "SweepTable", "Topology", "cap_area", "coverage",
    "expected_count", "full_sphere_count", "generate", "half_power_beamwidth",
    "load_descriptor", "make_rng", "parse_descriptor", "poisson_count", "run_sweep",
    "validate", "vertex_angle_downlink", "vertex_angle_uplink", "yaw_pitch_matrix",
]
