"""Scenario descriptor files and text output formats.

Descriptors are flat JSON objects.  Angles cross this boundary in degrees
(keys suffixed ``_deg``) and are converted to radians exactly once, on load.
All real numbers are printed with 17 significant digits, so parsing the text
reproduces the underlying doubles bit for bit.
"""

import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DescriptorError, InvalidParameterError, OutputError
from .geometry import DEFAULT_EARTH_RADIUS_KM, AntennaConfig
from .scenarios import Direction, Layer, SampleConfig, SampleMode, Scenario, ScenarioSpec

if TYPE_CHECKING:
    from .pointprocess import Topology
    from .sweeps import SweepTable

_ANTENNA_KEYS = ("carrier_frequency_hz", "illumination_coefficient",
                 "reflector_diameter_m")
_KNOWN_KEYS = frozenset({
    "scenario", *_ANTENNA_KEYS, "min_elevation_deg", "air_altitude_km",
    "space_altitude_km", "earth_radius_km", "density_per_km2",
    "rx_azimuth_deg", "rx_polar_deg", "seed", "mode",
})

SWEEP_CSV_HEADER = "param_value,vertex_angle_rad,area_km2,tangent_limited"
POINTS_CSV_HEADER = "x_km,y_km,z_km"

# Rows formatted by one % call.  Large enough that the per-block Python
# overhead vanishes, small enough that a block of points (about 0.9 MB of
# text plus its tuple of floats) stays small next to the whole CSV.
_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class Descriptor:
    """A parsed descriptor: the scenario plus optional sampling fields."""

    spec: ScenarioSpec
    density_per_km2: float | None
    rx_azimuth_rad: float
    rx_polar_rad: float
    seed: int | None
    mode: SampleMode

    def sample_config(self) -> SampleConfig:
        if self.density_per_km2 is None:
            raise DescriptorError("descriptor is missing density_per_km2")
        if self.seed is None:
            raise DescriptorError("descriptor is missing seed")
        return SampleConfig(
            density_per_km2=self.density_per_km2,
            rx_azimuth_rad=self.rx_azimuth_rad,
            rx_polar_rad=self.rx_polar_rad,
            mode=self.mode,
            seed=self.seed,
        )


def _reject_nonfinite(token: str) -> float:
    raise DescriptorError(f"non-finite JSON number {token!r} is not allowed")


def _real(data: dict, key: str, default: float | None = None) -> float | None:
    """The number under ``key``, or ``default`` when the key is absent."""
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DescriptorError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DescriptorError(
            f"{key} must be finite, got an integer beyond the float range") from None


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{key} must be an integer, got {value!r}")
    return value


def parse_descriptor(data: object) -> Descriptor:
    """Validate a descriptor object and build the scenario it describes.

    Unknown keys and keys inapplicable to the scenario's direction or layers
    are rejected outright.
    """
    if not isinstance(data, dict):
        raise DescriptorError(f"descriptor must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise DescriptorError(f"unknown descriptor keys: {', '.join(unknown)}")
    if "scenario" not in data:
        raise DescriptorError("descriptor is missing the scenario key")
    raw_scenario = data["scenario"]
    try:
        scenario = Scenario(raw_scenario)
    except ValueError:
        raise DescriptorError(
            f"scenario must be one of {sorted(s.value for s in Scenario)}, "
            f"got {raw_scenario!r}") from None

    inapplicable = []
    if scenario.direction is Direction.UPLINK:
        inapplicable.append("min_elevation_deg")
        required = list(_ANTENNA_KEYS)
    else:
        inapplicable.extend(_ANTENNA_KEYS)
        required = ["min_elevation_deg"]
    if Layer.AIR in scenario.layers:
        required.append("air_altitude_km")
    else:
        inapplicable.append("air_altitude_km")
    if Layer.SPACE in scenario.layers:
        required.append("space_altitude_km")
    else:
        inapplicable.append("space_altitude_km")

    present_inapplicable = sorted(k for k in inapplicable if k in data)
    if present_inapplicable:
        raise DescriptorError(
            f"keys not applicable to scenario {scenario.value}: "
            f"{', '.join(present_inapplicable)}")
    missing = sorted(k for k in required if k not in data)
    if missing:
        raise DescriptorError(
            f"scenario {scenario.value} requires keys: {', '.join(missing)}")

    antenna = None
    min_elevation_rad = None
    if scenario.direction is Direction.UPLINK:
        antenna = AntennaConfig(
            illumination_coefficient=_real(data, "illumination_coefficient"),
            reflector_diameter_m=_real(data, "reflector_diameter_m"),
            carrier_frequency_hz=_real(data, "carrier_frequency_hz"),
        )
    else:
        min_elevation_rad = math.radians(_real(data, "min_elevation_deg"))
    spec = ScenarioSpec(
        scenario=scenario,
        air_altitude_km=_real(data, "air_altitude_km"),
        space_altitude_km=_real(data, "space_altitude_km"),
        antenna=antenna,
        min_elevation_rad=min_elevation_rad,
        earth_radius_km=_real(data, "earth_radius_km", DEFAULT_EARTH_RADIUS_KM),
    )

    mode_value = data.get("mode", SampleMode.AREA_UNIFORM.value)
    try:
        mode = SampleMode(mode_value)
    except ValueError:
        raise DescriptorError(
            f"mode must be one of {[m.value for m in SampleMode]}, "
            f"got {mode_value!r}") from None
    density = _real(data, "density_per_km2")
    if density is not None and density < 0.0:
        raise DescriptorError(f"density_per_km2 must be >= 0, got {density!r}")
    return Descriptor(
        spec=spec,
        density_per_km2=density,
        rx_azimuth_rad=math.radians(_real(data, "rx_azimuth_deg", 0.0)),
        rx_polar_rad=math.radians(_real(data, "rx_polar_deg", 0.0)),
        seed=_integer(data, "seed") if "seed" in data else None,
        mode=mode,
    )


def load_descriptor(path: str) -> Descriptor:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_nonfinite)
    except OSError as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc}") from exc
    except DescriptorError:
        raise
    except (ValueError, RecursionError) as exc:
        # A syntax error, bytes that are not UTF-8, an integer beyond the
        # interpreter's digit limit, or nesting too deep to decode.
        raise DescriptorError(f"descriptor {path} is not valid JSON: {exc}") from exc
    return parse_descriptor(data)


def format_real(value: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(value), ".17g")


def dumps(payload: object, indent: int = 0) -> str:
    """Serialize to JSON with every real at 17 significant digits.

    The stdlib encoder prints floats via repr; this tiny writer exists only
    to pin the real-number format.  JSON has no token for inf or nan, so a
    non-finite float is refused rather than written.
    """
    pad = "  " * indent
    if isinstance(payload, dict):
        if not payload:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(key))}: {dumps(value, indent + 1)}'
            for key, value in payload.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(payload, (list, tuple)):
        if not payload:
            return "[]"
        items = ",\n".join(f"{pad}  {dumps(value, indent + 1)}" for value in payload)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(payload, bool):
        return "true" if payload else "false"
    if isinstance(payload, int):
        return str(payload)
    if isinstance(payload, float):
        if not math.isfinite(payload):
            raise InvalidParameterError(
                f"cannot write the non-finite number {payload!r} as JSON")
        return format_real(payload)
    if payload is None:
        return "null"
    return json.dumps(str(payload))


def _csv_chunks(header: str, row_template: str, rows: int,
                flatten: Callable[[slice], list]) -> Iterator[str]:
    """The header line, then the rows as text, _CHUNK_ROWS rows at a time.

    Each block is one ``%`` over ``row_template`` repeated once per row;
    ``flatten`` turns the slice of a block's rows into the flat list of
    their values.  ``"%.17g" % x`` and ``format_real(x)`` make the same C
    call (``PyOS_double_to_string(x, 'g', 17, 0)``), so the text is the same.
    """
    yield header + "\n"
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        yield (row_template * (stop - start)) % tuple(flatten(slice(start, stop)))


def sweep_csv_chunks(sweep: "SweepTable") -> Iterator[str]:
    """A sweep as CSV text in chunks (LF line endings, dot decimal
    separator).

    Failed grid points keep their parameter value and carry nan in the
    numeric columns so plotting pipelines skip them naturally.
    """
    def flatten(block: slice) -> list:
        values = [None] * (4 * (block.stop - block.start))
        values[0::4] = sweep.parameter_value[block]
        values[1::4] = sweep.vertex_angle_rad[block]
        values[2::4] = sweep.area_km2[block]
        values[3::4] = ["true" if flag else "false"
                        for flag in sweep.tangent_limited[block]]
        return values

    return _csv_chunks(SWEEP_CSV_HEADER, "%.17g,%.17g,%.17g,%s\n",
                       len(sweep.parameter_value), flatten)


def points_csv_chunks(topology: "Topology") -> Iterator[str]:
    """Topology points as CSV text in chunks, one x,y,z row per point."""
    return _csv_chunks(POINTS_CSV_HEADER, "%.17g,%.17g,%.17g\n", len(topology.points),
                       lambda block: topology.points[block].ravel().tolist())


def write_text_file(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks of a text, each as it comes."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
