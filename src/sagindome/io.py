"""Scenario descriptor files and text output formats.

Descriptors are flat JSON objects.  Angles cross this boundary in degrees
(keys suffixed ``_deg``) and are converted to radians exactly once, on load.
All real numbers are printed with 17 significant digits, so parsing the text
reproduces the underlying doubles bit for bit.
"""

import json
import math
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .errors import DescriptorError, InvalidParameterError, OutputError
from .geometry import DEFAULT_EARTH_RADIUS_KM, AntennaConfig, _Record
from .scenarios import SampleConfig, SampleMode, Scenario, ScenarioSpec, inputs

if TYPE_CHECKING:
    import numpy as np

    from .sweeps import SweepTable

# The descriptor keys that set each optional ScenarioSpec field.
_FIELD_KEYS = {
    "antenna": ("carrier_frequency_hz", "illumination_coefficient", "reflector_diameter_m"),
    "min_elevation_rad": ("min_elevation_deg",),
    "air_altitude_km": ("air_altitude_km",),
    "space_altitude_km": ("space_altitude_km",),
}
# Sampling keys without a default: a descriptor lacking one still parses,
# but cannot be sampled (or, lacking the density, counted).
_SAMPLE_REQUIRED = ("density_per_km2", "seed")
# The keys that describe the scenario, each of which has an inline CLI flag.
_SCENARIO_KEYS = ("scenario", *(key for keys in _FIELD_KEYS.values() for key in keys),
                  "earth_radius_km")
_KNOWN_KEYS = frozenset({
    *_SCENARIO_KEYS, *_SAMPLE_REQUIRED, "rx_azimuth_deg", "rx_polar_deg", "mode",
})

SWEEP_CSV_HEADER = "param_value,vertex_angle_rad,area_km2,tangent_limited"
POINTS_CSV_HEADER = "x_km,y_km,z_km"


class Descriptor(_Record):
    """A parsed descriptor: the scenario and the sampling request, every key
    of both checked.  A sampling key without a default that the descriptor
    lacks (density 0, seed 0 stand in) is listed in ``missing``."""

    spec: ScenarioSpec
    sample: SampleConfig
    missing: tuple[str, ...]

    def __init__(self, spec: ScenarioSpec, sample: SampleConfig,
                 missing: tuple[str, ...]) -> None:
        self.__dict__.update(spec=spec, sample=sample, missing=missing)

    def sample_config(self, required: tuple[str, ...] = _SAMPLE_REQUIRED) -> SampleConfig:
        """The sampling request, once the descriptor has every key in
        ``required``; the first it lacks is refused."""
        for key in required:
            if key in self.missing:
                raise DescriptorError(f"descriptor is missing {key}")
        return self.sample


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


def parse_descriptor(data: object) -> Descriptor:
    """Validate a descriptor object and build the scenario it describes.

    Every key is checked here, whatever the descriptor is used for: unknown
    keys, keys the scenario does not take (``scenarios.inputs``), missing
    required keys, and then each value, the sampling keys included, as
    ``ScenarioSpec`` and ``SampleConfig`` check them.
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

    fields = inputs(scenario)
    present_inapplicable = sorted(key for field, required in fields.items() if not required
                                  for key in _FIELD_KEYS[field] if key in data)
    if present_inapplicable:
        raise DescriptorError(
            f"keys not applicable to scenario {scenario.value}: "
            f"{', '.join(present_inapplicable)}")
    missing = sorted(key for field, required in fields.items() if required
                     for key in _FIELD_KEYS[field] if key not in data)
    if missing:
        raise DescriptorError(
            f"scenario {scenario.value} requires keys: {', '.join(missing)}")

    antenna = None
    if fields["antenna"]:
        antenna = AntennaConfig(
            illumination_coefficient=_real(data, "illumination_coefficient"),
            reflector_diameter_m=_real(data, "reflector_diameter_m"),
            carrier_frequency_hz=_real(data, "carrier_frequency_hz"),
        )
    elevation_deg = _real(data, "min_elevation_deg")
    spec = ScenarioSpec(
        scenario=scenario,
        air_altitude_km=_real(data, "air_altitude_km"),
        space_altitude_km=_real(data, "space_altitude_km"),
        antenna=antenna,
        min_elevation_rad=None if elevation_deg is None else math.radians(elevation_deg),
        earth_radius_km=_real(data, "earth_radius_km", DEFAULT_EARTH_RADIUS_KM),
    )
    sample = SampleConfig(
        density_per_km2=_real(data, "density_per_km2", 0.0),
        rx_azimuth_rad=math.radians(_real(data, "rx_azimuth_deg", 0.0)),
        rx_polar_rad=math.radians(_real(data, "rx_polar_deg", 0.0)),
        mode=data.get("mode", SampleMode.AREA_UNIFORM),
        seed=data.get("seed", 0),
    )
    return Descriptor(spec, sample, tuple(key for key in _SAMPLE_REQUIRED if key not in data))


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


def _sweep_rows_text(sweep: "SweepTable") -> str:
    """The CSV rows of a sweep table.

    Failed grid points keep their parameter value and carry nan in the
    numeric columns so plotting pipelines skip them naturally.  The text
    is one ``%`` over the row template repeated once per row.  ``"%.17g" % x``
    and ``format_real(x)`` make the same C call
    (``PyOS_double_to_string(x, 'g', 17, 0)``), so the text is the same.
    """
    rows = len(sweep.parameter_value)
    values = [None] * (4 * rows)
    values[0::4] = sweep.parameter_value
    values[1::4] = sweep.vertex_angle_rad
    values[2::4] = sweep.area_km2
    values[3::4] = ["true" if flag else "false" for flag in sweep.tangent_limited]
    return ("%.17g,%.17g,%.17g,%s\n" * rows) % tuple(values)


def sweep_blocks_csv_chunks(blocks: Iterable["SweepTable"]) -> Iterator[str]:
    """Consecutive tables of one sweep as its CSV text in chunks (LF line
    endings, dot decimal separator): the header, then one chunk of rows per
    table (``sweeps.sweep_blocks`` makes 1 024-row tables).  Each table is
    read only as its chunk is made, so a stream of blocks is never held
    whole."""
    yield SWEEP_CSV_HEADER + "\n"
    for sweep in blocks:
        yield _sweep_rows_text(sweep)


def points_blocks_csv_chunks(blocks: Iterable["np.ndarray"]) -> Iterator[str]:
    """Consecutive (rows, 3) blocks of one topology's points as its CSV
    text in chunks, one x,y,z row per point: the header, then one chunk of
    rows per block (``pointprocess.point_blocks`` draws 1 024-row blocks).
    Each block is read only as its chunk is made, so a stream of blocks is
    never held whole.  A block's text is made at once, at about 0.2 kB a
    point, so a whole topology is best passed in slices of such blocks.

    Each chunk is written by ``_csvtext.rows_text``, in the bytes of
    ``format_real``.  That module needs numpy, so it is imported here, not
    with this one.
    """
    from ._csvtext import rows_text

    yield POINTS_CSV_HEADER + "\n"
    for points in blocks:
        yield rows_text(points)


def point_values_csv_chunks(values: list[float]) -> Iterator[str]:
    """A topology's points, given as x, y, z one point after another, as its
    CSV text in chunks: the header, then every row in one chunk, in the
    bytes of ``format_real`` (the same C call as ``"%.17g" %``)."""
    yield POINTS_CSV_HEADER + "\n"
    yield ("%.17g,%.17g,%.17g\n" * (len(values) // 3)) % tuple(values)


def write_text_file(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks of a text, each as it comes."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
