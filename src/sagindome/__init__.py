"""Spherical-dome coverage geometry and seeded transmitter sampling for
cross-layer space-air-ground links."""

from .errors import (
    DescriptorError,
    InvalidGeometryError,
    InvalidParameterError,
    NumericDomainError,
    OutputError,
    SaginDomeError,
    UnsupportedBranchError,
)
from .geometry import (
    CLAMP_TOLERANCE,
    DEFAULT_EARTH_RADIUS_KM,
    LIGHT_SPEED_M_PER_S,
    AntennaConfig,
    DomeGeometry,
    cap_area,
    half_power_beamwidth,
    vertex_angle_downlink,
    vertex_angle_downlink_oracle,
    vertex_angle_uplink,
    vertex_angle_uplink_oracle,
)
from .io import Descriptor, load_descriptor, parse_descriptor
from .pointprocess import (
    SampleConfig,
    SampleMode,
    Topology,
    angular_distance,
    cap_center_direction,
    generate,
    make_rng,
    poisson_count,
    sample_cap_angles,
    yaw_pitch_matrix,
)
from .scenarios import (
    Direction,
    Layer,
    RangeViolation,
    Scenario,
    ScenarioSpec,
    coverage,
    resolve_radii,
    validate,
)
from .sweeps import (
    SweepParameter,
    SweepScale,
    SweepSpec,
    SweepTable,
    expected_count,
    full_sphere_count,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig", "CLAMP_TOLERANCE", "DEFAULT_EARTH_RADIUS_KM", "Descriptor",
    "DescriptorError", "Direction", "DomeGeometry", "InvalidGeometryError",
    "InvalidParameterError", "LIGHT_SPEED_M_PER_S", "Layer", "NumericDomainError",
    "OutputError", "RangeViolation", "SaginDomeError", "SampleConfig", "SampleMode",
    "Scenario", "ScenarioSpec", "SweepParameter", "SweepScale", "SweepSpec", "SweepTable",
    "Topology", "UnsupportedBranchError", "angular_distance", "cap_area",
    "cap_center_direction", "coverage", "expected_count", "full_sphere_count",
    "generate", "half_power_beamwidth", "load_descriptor", "make_rng",
    "parse_descriptor", "poisson_count", "resolve_radii", "run_sweep",
    "sample_cap_angles", "validate", "vertex_angle_downlink",
    "vertex_angle_downlink_oracle", "vertex_angle_uplink", "vertex_angle_uplink_oracle",
    "yaw_pitch_matrix",
]
