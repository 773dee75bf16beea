"""Descriptor parsing, 17-significant-digit formatting, and CSV writers."""

import hashlib
import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sagindome import (
    DescriptorError,
    Direction,
    InvalidParameterError,
    Layer,
    SampleConfig,
    SampleMode,
    Scenario,
    SweepTable,
    coverage,
    generate,
    load_descriptor,
    parse_descriptor,
)
from sagindome import _csvtext, pointprocess, sweeps
from sagindome._csvtext import rows_text
from sagindome.cli import main
from sagindome.io import (
    POINTS_CSV_HEADER,
    SWEEP_CSV_HEADER,
    dumps,
    format_real,
    points_blocks_csv_chunks,
    sweep_blocks_csv_chunks,
    write_text_file,
)
from conftest import reference_spec

S2G_DATA = {
    "scenario": "s2g",
    "space_altitude_km": 600,
    "min_elevation_deg": 10,
    "density_per_km2": 5e-6,
    "seed": 42,
}

G2S_DATA = {
    "scenario": "g2s",
    "space_altitude_km": 20000,
    "carrier_frequency_hz": 40e9,
    "illumination_coefficient": 70,
    "reflector_diameter_m": 4,
}


def _number(low: float, high: float):
    """An integer or a float in [low, high], as a descriptor may hold either."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)),
                     st.floats(low, high, allow_nan=False, allow_infinity=False))


@st.composite
def valid_descriptors(draw) -> dict:
    """Any valid descriptor of the six scenarios, with or without each
    optional key."""
    scenario = draw(st.sampled_from(list(Scenario)))
    data = {"scenario": scenario.value}
    if scenario.direction is Direction.UPLINK:
        data["carrier_frequency_hz"] = draw(_number(1e6, 1e12))
        data["illumination_coefficient"] = draw(_number(1.0, 100.0))
        data["reflector_diameter_m"] = draw(_number(0.01, 100.0))
    else:
        data["min_elevation_deg"] = draw(_number(0.0, 90.0))
    if Layer.AIR in scenario.layers:
        data["air_altitude_km"] = draw(_number(0.5, 100.0))
    if Layer.SPACE in scenario.layers:
        data["space_altitude_km"] = draw(_number(200.0, 1e6))
    optional = {
        "earth_radius_km": _number(1.0, 1e5),
        "density_per_km2": _number(0.0, 1e3),
        "rx_azimuth_deg": _number(-720.0, 720.0),
        "rx_polar_deg": _number(-180.0, 180.0),
        "seed": st.integers(0, 2 ** 64 - 1),
        "mode": st.sampled_from([mode.value for mode in SampleMode]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    return data


class TestParseDescriptor:
    def test_downlink_round_trip(self):
        descriptor = parse_descriptor(dict(S2G_DATA))
        assert descriptor.spec.scenario is Scenario.S2G
        assert descriptor.spec.min_elevation_rad == pytest.approx(math.radians(10.0))
        assert descriptor.spec.space_altitude_km == 600.0
        assert descriptor.sample == SampleConfig(density_per_km2=5e-6, seed=42)
        assert descriptor.missing == ()

    def test_uplink_round_trip(self):
        descriptor = parse_descriptor(dict(G2S_DATA))
        antenna = descriptor.spec.antenna
        assert antenna.carrier_frequency_hz == 40e9
        assert antenna.reflector_diameter_m == 4.0
        assert descriptor.missing == ("density_per_km2", "seed")

    def test_receiver_angles_and_mode(self):
        data = dict(S2G_DATA, rx_azimuth_deg=90, rx_polar_deg=45,
                    mode="paper_faithful")
        descriptor = parse_descriptor(data)
        assert descriptor.sample.rx_azimuth_rad == pytest.approx(0.5 * math.pi)
        assert descriptor.sample.rx_polar_rad == pytest.approx(0.25 * math.pi)
        assert descriptor.sample.mode is SampleMode.PAPER_FAITHFUL

    def test_unknown_keys_rejected(self):
        with pytest.raises(DescriptorError, match="unknown descriptor keys: bogus"):
            parse_descriptor(dict(S2G_DATA, bogus=1))

    def test_direction_inapplicable_keys_rejected(self):
        with pytest.raises(DescriptorError, match="min_elevation_deg"):
            parse_descriptor(dict(G2S_DATA, min_elevation_deg=10))
        with pytest.raises(DescriptorError, match="carrier_frequency_hz"):
            parse_descriptor(dict(S2G_DATA, carrier_frequency_hz=2e9))

    def test_layer_inapplicable_altitude_rejected(self):
        with pytest.raises(DescriptorError, match="air_altitude_km"):
            parse_descriptor(dict(S2G_DATA, air_altitude_km=5))

    def test_missing_required_keys_listed(self):
        with pytest.raises(DescriptorError, match="space_altitude_km"):
            parse_descriptor({"scenario": "s2g", "min_elevation_deg": 10})
        with pytest.raises(DescriptorError, match="illumination_coefficient"):
            parse_descriptor({"scenario": "g2s", "space_altitude_km": 600,
                              "carrier_frequency_hz": 40e9,
                              "reflector_diameter_m": 4})

    def test_scenario_values(self):
        with pytest.raises(DescriptorError, match="scenario"):
            parse_descriptor({"scenario": "x2y"})
        with pytest.raises(DescriptorError, match="scenario"):
            parse_descriptor({"space_altitude_km": 600})

    def test_type_checks(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            parse_descriptor(dict(S2G_DATA, seed=4.5))
        with pytest.raises(InvalidParameterError, match="seed"):
            parse_descriptor(dict(S2G_DATA, seed=True))
        with pytest.raises(DescriptorError, match="min_elevation_deg"):
            parse_descriptor(dict(S2G_DATA, min_elevation_deg="ten"))
        with pytest.raises(InvalidParameterError, match="mode"):
            parse_descriptor(dict(S2G_DATA, mode="freeform"))
        with pytest.raises(DescriptorError):
            parse_descriptor(["not", "a", "dict"])

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidParameterError, match="density_per_km2"):
            parse_descriptor(dict(S2G_DATA, density_per_km2=-1.0))

    def test_earth_radius_precedence(self):
        assert parse_descriptor(dict(S2G_DATA)).spec.earth_radius_km == 6371.0

        in_file = parse_descriptor(dict(S2G_DATA, earth_radius_km=6380))
        assert in_file.spec.earth_radius_km == 6380.0

    def test_sample_config_requires_density_and_seed(self):
        descriptor = parse_descriptor(dict(G2S_DATA))
        with pytest.raises(DescriptorError, match="density_per_km2"):
            descriptor.sample_config()
        descriptor = parse_descriptor(dict(G2S_DATA, density_per_km2=0.05))
        with pytest.raises(DescriptorError, match="seed"):
            descriptor.sample_config()


class TestLoadDescriptor:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(S2G_DATA))
        descriptor = load_descriptor(str(path))
        assert descriptor.spec.scenario is Scenario.S2G

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DescriptorError, match="not valid JSON"):
            load_descriptor(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DescriptorError, match="cannot read"):
            load_descriptor(str(tmp_path / "absent.json"))

    def test_nonfinite_numbers_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"scenario": "s2g", "space_altitude_km": Infinity, '
                        '"min_elevation_deg": 10}')
        with pytest.raises(DescriptorError,
                           match="^non-finite JSON number 'Infinity' is not allowed$"):
            load_descriptor(str(path))

    @pytest.mark.parametrize("content, reason", [
        (b'{"scenario": "s2g", "space_altitude_km": ' + b"7" * 5000 + b"}",
         "Exceeds the limit"),
        (b"[" * 100_000, "maximum recursion"),
        (b'{"scenario": "s2g"\xff}', "'utf-8' codec"),
    ], ids=["digit-limit", "deep-nesting", "not-utf8"])
    def test_undecodable_file(self, tmp_path, content, reason):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        with pytest.raises(DescriptorError, match=f"not valid JSON: {reason}"):
            load_descriptor(str(path))

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(valid_descriptors())
    def test_file_round_trip(self, tmp_path, data):
        # The file is rewritten for every example.
        path = tmp_path / "scenario.json"
        path.write_text(dumps(data), encoding="utf-8")
        assert load_descriptor(str(path)) == parse_descriptor(data)


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(8080)
        values = np.concatenate([
            rng.uniform(-1e9, 1e9, 2000),
            10.0 ** rng.uniform(-300, 300, 2000) * rng.choice([-1.0, 1.0], 2000),
            np.array([0.0, 1.0, -1.0, math.pi, 5e-324, 1.7976931348623157e308]),
        ])
        for value in values:
            assert float(format_real(float(value))) == float(value)

    def test_dumps_shapes(self):
        text = dumps({"a": 1, "b": 0.1, "c": True, "d": None,
                      "e": [1.5, {"f": "text"}], "g": {}})
        parsed = json.loads(text)
        assert parsed == {"a": 1, "b": 0.1, "c": True, "d": None,
                          "e": [1.5, {"f": "text"}], "g": {}}
        assert "0.10000000000000001" in text

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_dumps_refuses_non_finite_reals(self, value):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            dumps({"counts": [1.0, {"full_sphere_count": value}]})

    def test_dumps_is_locale_free_ascii(self):
        text = dumps({"x": 1234567.25})
        assert "," not in text.replace(",\n", "\n")
        assert text.isascii()


class TestCsvWriters:
    def test_sweep_header_and_rows(self):
        table = table_of([(2e9, 0.07, 660716.5, False), (4e9, math.nan, math.nan, False)],
                         errors={1: "no value"})
        text = "".join(sweep_blocks_csv_chunks([table]))
        lines = text.split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1].startswith("2000000000,")
        assert lines[1].endswith(",false")
        assert lines[2] == "4000000000,nan,nan,false"
        assert text.endswith("\n") and "\r" not in text

    def test_points_csv(self, s2g_spec):
        from sagindome import SampleConfig
        dome = coverage(s2g_spec)
        topology = generate(dome, SampleConfig(density_per_km2=5e-6, seed=3))
        text = "".join(points_blocks_csv_chunks([topology.points]))
        lines = text.strip().split("\n")
        assert lines[0] == POINTS_CSV_HEADER
        assert len(lines) == 1 + topology.count
        x, y, z = (float(part) for part in lines[1].split(","))
        assert (x, y, z) == tuple(topology.points[0])

    def test_points_csv_empty(self, s2g_spec):
        from sagindome import SampleConfig
        dome = coverage(s2g_spec)
        topology = generate(dome, SampleConfig(density_per_km2=0.0, seed=3))
        assert "".join(points_blocks_csv_chunks([topology.points])) == POINTS_CSV_HEADER + "\n"


# Values whose text is easy to get wrong: nan, both infinities, negative
# zero, the smallest subnormal and the largest double.
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]


def per_value_rows(values) -> str:
    """Rows of values as CSV text, one ``format_real`` call per value."""
    return "".join(",".join(map(format_real, row)) + "\n" for row in values.tolist())


def per_value_points_csv(points) -> str:
    """The CSV as written one ``format_real`` call per value."""
    return POINTS_CSV_HEADER + "\n" + per_value_rows(points)


def per_value_sweep_csv(rows) -> str:
    """The sweep CSV of (param, phi, area, tangent) rows, one ``format_real``
    call per value."""
    lines = [SWEEP_CSV_HEADER]
    for value, phi, area, tangent_limited in rows:
        lines.append(",".join((format_real(value), format_real(phi), format_real(area),
                               "true" if tangent_limited else "false")))
    return "\n".join(lines) + "\n"


def table_of(rows, errors=None) -> SweepTable:
    """A sweep table of (param, phi, area, tangent) rows."""
    columns = list(zip(*rows)) or [(), (), (), ()]
    return SweepTable(*(array("d", column) for column in columns[:3]),
                      [bool(flag) for flag in columns[3]], errors or {})


def special_points(n: int) -> np.ndarray:
    """``n`` rows of random doubles with the special values spread among them."""
    rng = np.random.default_rng(n)
    values = rng.uniform(-8000.0, 8000.0, 3 * n)
    values[::7] = 10.0 ** rng.uniform(-320, 308, values[::7].size)
    picks = rng.integers(0, 3 * n, len(SPECIAL_VALUES)) if n else []
    for index, special in zip(picks, SPECIAL_VALUES):
        values[index] = special
    return values.reshape(n, 3)


# Row counts on and next to block boundaries: the blocks of a sample and of
# a sweep (1 024 rows each) divide 16 384.
BOUNDARY_ROWS = 16384
ROW_COUNTS = [0, 1, BOUNDARY_ROWS - 1, BOUNDARY_ROWS, BOUNDARY_ROWS + 1, 3 * BOUNDARY_ROWS + 7]


def test_row_counts_sit_on_block_boundaries():
    for block_rows in (pointprocess._BLOCK_ROWS, sweeps._BLOCK_ROWS):
        assert BOUNDARY_ROWS % block_rows == 0 and BOUNDARY_ROWS > block_rows


def blocks_of(rows, block_rows: int) -> list:
    """Consecutive slices of ``block_rows`` rows, as a sweep yields them (a
    sample's last block also takes a one-row tail)."""
    return [rows[start:start + block_rows] for start in range(0, len(rows), block_rows)]


class TestChunkedCsv:
    """The writers against the per-value ``format_real`` join, fed the
    blocks their streams yield: the header, then one chunk per block."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_points_bytes_equal_per_value_join(self, n):
        points = special_points(n)
        blocks = blocks_of(points, pointprocess._BLOCK_ROWS)
        chunks = list(points_blocks_csv_chunks(blocks))
        assert "".join(chunks) == per_value_points_csv(points)
        assert [chunk.count("\n") for chunk in chunks] == [1, *map(len, blocks)]

    def test_points_special_values_text(self):
        text = "".join(points_blocks_csv_chunks([np.array(
            [SPECIAL_VALUES[:3], SPECIAL_VALUES[3:6], SPECIAL_VALUES[6:9]])]))
        assert text == ("x_km,y_km,z_km\nnan,inf,-inf\n-0,0,4.9406564584124654e-324\n"
                        "-4.9406564584124654e-324,1.7976931348623157e+308,"
                        "-1.7976931348623157e+308\n")

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_sweep_bytes_equal_per_value_join(self, n):
        values = special_points(n)
        rows = [(p, math.nan, math.nan, False) if i % 5 == 0 else (p, phi, area, i % 3 == 0)
                for i, (p, phi, area) in enumerate(values.tolist())]
        blocks = blocks_of(rows, sweeps._BLOCK_ROWS)
        chunks = list(sweep_blocks_csv_chunks(map(table_of, blocks)))
        text = "".join(chunks)
        assert text == per_value_sweep_csv(rows)
        assert [chunk.count("\n") for chunk in chunks] == [1, *map(len, blocks)]
        if n > 5:
            assert ",nan,nan,false\n" in text and ",true\n" in text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(0, 8), st.just(3)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_points_property(self, points):
        assert "".join(points_blocks_csv_chunks([points])) == per_value_points_csv(points)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.booleans()),
                    max_size=20))
    def test_sweep_property(self, fields):
        assert "".join(sweep_blocks_csv_chunks([table_of(fields)])) == per_value_sweep_csv(fields)


def _exact_range_edges() -> list[float]:
    """Values whose text is easy to get wrong in the integer kernel and at
    its edges, with both signs."""
    powers = [float(10 ** k) for k in range(17)]
    edges = [*powers, *np.nextafter(powers, 0.0).tolist(),
             *np.nextafter(powers, math.inf).tolist(),
             99999999999999.995,     # parses to 1e14: its text carries into the next decade
             123456789012345.125,    # a tie at the 17th digit, rounded to the even 2
             123456789012345.375,    # a tie rounded up to the even 8
             7000.0, 123456789012345.0,  # integers
             999999999999999.875,        # the largest double below 1e15
             0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             0.5, 1.7976931348623157e308, math.inf]
    return [*edges, *(-value for value in edges), math.nan]


class TestRowsText:
    """The array kernel behind the points CSV against ``format_real``."""

    def test_edges(self):
        values = np.array(_exact_range_edges()).reshape(-1, 1)
        text = rows_text(values)
        assert text == per_value_rows(values)
        lines = text.split("\n")
        assert "100000000000000" in lines and "123456789012345.12" in lines
        assert "123456789012345.38" in lines and "-7000" in lines
        assert "-0" in lines and "nan" in lines and "-inf" in lines

    def test_bulk_draw_in_every_decade(self):
        # 1.2e6 doubles with random 52-bit mantissas and binary exponents 0
        # to 49, so every decade of [1, 1e15) and the values above it (to
        # 2**50) are drawn; random signs.
        rng = np.random.default_rng(170017)
        bits = rng.integers(0, 2 ** 52, 1_200_000, dtype=np.uint64)
        bits |= rng.integers(1023, 1073, bits.size, dtype=np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2, bits.size, dtype=np.uint64) << np.uint64(63)
        values = bits.view(np.float64).reshape(-1, 3)
        assert rows_text(values) == per_value_rows(values)

    @pytest.mark.parametrize("decade", range(15))
    def test_ties_round_half_to_even(self, decade):
        # odd / 2**(17 - E) lies halfway between two 17-digit decimals of
        # decade E; each such value is exact in a double for E <= 15.
        rng = np.random.default_rng(decade)
        scale = 2 ** (17 - decade)
        odd = 2 * rng.integers(10 ** decade * scale // 2, 10 ** (decade + 1) * scale // 2,
                               3000) + 1
        values = (odd / scale).reshape(-1, 3)
        assert rows_text(values) == per_value_rows(values)

    @pytest.mark.parametrize("longest", [False, True], ids=["in-range", "longest"])
    @pytest.mark.parametrize("top", range(15))
    def test_every_block_width(self, top, longest):
        # A block whose largest decade is ``top``, so top + 20 slots wide,
        # with values of every decade up to it, integers and short fractions
        # among them; and the same block with one value of the longest
        # "%.17g" text, which widens the block to at least 25 slots.
        rng = np.random.default_rng(top)
        values = 10.0 ** rng.uniform(0.0, top + 1.0, (60, 3))
        values[::3] = np.floor(values[::3])
        values[1::3] = np.round(values[1::3], 2)
        values *= rng.choice([-1.0, 1.0], values.shape)
        values[0, 0] = 9.75 * 10.0 ** top
        if longest:
            values[-1, -1] = -5e-324
        text = rows_text(values)
        assert text == per_value_rows(values)
        assert ("-4.9406564584124654e-324\n" in text) == longest

    def test_block_peak_memory(self):
        # One 1 024-row block of rotated cap coordinates, as a sample writes
        # it: about 0.2 MB under tracemalloc.
        dome = coverage(reference_spec(Scenario.S2G))
        config = SampleConfig(density_per_km2=3 * pointprocess._BLOCK_ROWS / dome.area_km2,
                              rx_azimuth_rad=2.4, rx_polar_rad=1.1, seed=30)
        block = next(pointprocess.point_blocks(dome, config)[1])
        assert block.shape == (pointprocess._BLOCK_ROWS, 3)
        rows_text(block)
        tracemalloc.start()
        try:
            rows_text(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 350_000

    def test_block_with_no_value_in_range(self, monkeypatch):
        # Coordinates of a sample on a sphere under 1 km, with every special
        # value outside [1, 1e15): written by "%.17g" alone, the array path
        # skipped.
        rng = np.random.default_rng(38)
        values = rng.uniform(-0.9, 0.9, (pointprocess._BLOCK_ROWS, 3))
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf,
                    -math.inf, math.nan, 1e15, -1.7976931348623157e308,
                    float(np.nextafter(1.0, 0.0)), -1e-5]
        values.flat[:300 * len(specials):300] = specials

        def no_kernel(magnitude):
            raise AssertionError("the array path ran")

        monkeypatch.setattr(_csvtext, "_significand", no_kernel)
        text = rows_text(values)
        assert text == per_value_rows(values)
        assert "\nnan," in text and "-4.9406564584124654e-324," in text

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=st.one_of(st.floats(), st.floats(-1e15, 1e15))))
    def test_property(self, values):
        assert rows_text(values) == per_value_rows(values)


class TestCsvFiles:
    # sha256 of the acceptance criterion 10 sample CSV in both modes, as
    # written before CSV output was chunked.  A change here is a change of
    # output bytes or of the random-stream order.
    CRITERION_10_SHA256 = {
        "area_uniform": "fb5f053cc31a35f81dec54a09f35eeff2a41fe2904b2e2c8ec8c9f07739e316c",
        "paper_faithful": "25f79d4e118e20b7a6a999c97ab2c2115ff9ea584ce62d0f2c1d9b769835264f",
    }

    @pytest.mark.parametrize("mode", sorted(CRITERION_10_SHA256))
    def test_criterion_10_sample_bytes_pinned(self, mode, tmp_path, capsys):
        descriptor = tmp_path / "scenario.json"
        descriptor.write_text(json.dumps({
            "scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10,
            "density_per_km2": 5e-6, "rx_azimuth_deg": 137, "rx_polar_deg": 63,
            "seed": 20240615, "mode": mode}))
        target = tmp_path / "points.csv"
        assert main(["sample", "--descriptor", str(descriptor), "--output", str(target)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == self.CRITERION_10_SHA256[mode]

    @pytest.mark.parametrize("mode", [mode.value for mode in SampleMode])
    def test_sample_file_reads_back_bit_for_bit(self, mode, tmp_path, capsys):
        descriptor = tmp_path / "scenario.json"
        descriptor.write_text(json.dumps({
            "scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10,
            "density_per_km2": 2e-3, "rx_azimuth_deg": 137, "rx_polar_deg": 63,
            "seed": 1717, "mode": mode}))
        target = tmp_path / "points.csv"
        assert main(["sample", "--descriptor", str(descriptor), "--output", str(target)]) == 0
        capsys.readouterr()
        loaded = load_descriptor(str(descriptor))
        points = generate(coverage(loaded.spec), loaded.sample_config()).points
        header, *lines = target.read_text().splitlines()
        assert header == POINTS_CSV_HEADER
        read = np.array([[float(value) for value in line.split(",")] for line in lines])
        assert len(points) > 3 * pointprocess._BLOCK_ROWS
        assert read.shape == points.shape
        assert (read.view(np.uint64) == points.view(np.uint64)).all()

    def test_string_or_chunks(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text_file(str(target), "a,b\n1,2\n")
        assert target.read_bytes() == b"a,b\n1,2\n"
        write_text_file(str(target), iter(["a,b\n", "1,2\n", "3,4\n"]))
        assert target.read_bytes() == b"a,b\n1,2\n3,4\n"

    def test_streamed_write_holds_under_half_the_text(self, tmp_path):
        # The blocks are drawn as they are written, as the CLI does.
        dome = coverage(reference_spec(Scenario.S2G))
        target = tmp_path / "points.csv"
        tracemalloc.start()
        try:
            count, blocks = pointprocess.point_blocks(dome, SampleConfig(
                density_per_km2=200_000.5 / dome.area_km2, seed=11))
            write_text_file(str(target), points_blocks_csv_chunks(blocks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > 190_000
        size = target.stat().st_size
        assert size > 10_000_000
        assert peak < size / 2
