"""Sampling correctness: determinism, distributions, rotation, containment.

Statistical assertions run at fixed seeds chosen once; the significance
levels (1%) leave the checks sensitive to real distribution bugs while the
pinned seeds keep the suite deterministic.
"""

import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sagindome import (
    DomeGeometry,
    InvalidParameterError,
    SampleConfig,
    SampleMode,
    Scenario,
    Topology,
    cap_area,
    coverage,
    generate,
    make_rng,
    poisson_count,
    yaw_pitch_matrix,
)
from sagindome import pointprocess
from sagindome.geometry import _require_vertex_angle
from sagindome.pointprocess import _BLOCK_ROWS, MAX_SAMPLE_POINTS, _polar_angles
from sagindome.scenarios import _sample_mode
from cap_oracles import angular_distance, cap_center_direction
from conftest import reference_spec


class TestMakeRng:
    def test_builds_pcg64(self):
        rng = make_rng(7)
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert 0.0 <= rng.random() < 1.0

    def test_bad_seeds_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_rng(-1)
        with pytest.raises(InvalidParameterError):
            make_rng(2 ** 64)
        with pytest.raises(InvalidParameterError):
            make_rng(1.5)
        with pytest.raises(InvalidParameterError):
            make_rng(True)

    def test_same_seed_same_stream(self):
        a = make_rng(123).random(8)
        b = make_rng(123).random(8)
        assert np.array_equal(a, b)


class TestPoissonCount:
    def test_zero_density_always_zero(self):
        for seed in range(50):
            assert poisson_count(0.0, 1e7, make_rng(seed)) == 0

    def test_zero_area_always_zero(self):
        assert poisson_count(5.0, 0.0, make_rng(1)) == 0

    def test_mean_is_floored_product(self):
        # floor(5e-6 * 11588409.2) = 57; the sample mean over 1e5 seeds
        # sits within 4 standard errors of it.
        counts = np.array([poisson_count(5e-6, 11588409.2, make_rng(seed))
                           for seed in range(100_000)])
        assert abs(counts.mean() - 57.0) < 0.1

    def test_small_mean_uses_floor_semantics(self):
        # floor(0.005 * 2464.3) = 12 even though the product is 12.32.
        counts = np.array([poisson_count(0.005, 2464.3, make_rng(seed))
                           for seed in range(20_000)])
        assert abs(counts.mean() - 12.0) < 0.1

    def test_sub_unit_product_draws_nothing(self):
        # Product 0.9 floors to a zero mean.
        assert all(poisson_count(0.09, 10.0, make_rng(seed)) == 0
                   for seed in range(100))

    @pytest.mark.parametrize("mean", [3, 12, 29])
    def test_inversion_regime_matches_poisson_pmf(self, mean):
        rng = make_rng(2024)
        counts = np.array([poisson_count(1.0, float(mean), rng)
                           for _ in range(40_000)])
        assert _poisson_chi_square_pvalue(counts, mean) > 0.01

    @pytest.mark.parametrize("mean", [30, 57, 400])
    def test_rejection_regime_matches_poisson_pmf(self, mean):
        rng = make_rng(2025)
        counts = np.array([poisson_count(1.0, float(mean), rng)
                           for _ in range(40_000)])
        assert _poisson_chi_square_pvalue(counts, mean) > 0.01

    def test_mean_capped_before_any_draw(self):
        rng = make_rng(0)
        assert abs(poisson_count(1.0, MAX_SAMPLE_POINTS + 0.5, rng)
                   - MAX_SAMPLE_POINTS) < 10 * math.sqrt(MAX_SAMPLE_POINTS)
        state = rng.bit_generator.state
        for density, area in ((1.0, MAX_SAMPLE_POINTS + 1.0), (1e10, 1e300)):
            with pytest.raises(InvalidParameterError, match=str(MAX_SAMPLE_POINTS)):
                poisson_count(density, area, rng)
        assert rng.bit_generator.state == state

    def test_rejects_negative_inputs(self):
        with pytest.raises(InvalidParameterError):
            poisson_count(-1.0, 10.0, make_rng(0))
        with pytest.raises(InvalidParameterError):
            poisson_count(1.0, -10.0, make_rng(0))


def _poisson_chi_square_pvalue(counts: np.ndarray, mean: int) -> float:
    """Chi-square goodness of fit against Poisson(mean), merging the tails
    so every bin keeps an expected count of at least five."""
    n = counts.size
    k_max = int(counts.max()) + 1
    expected = n * stats.poisson.pmf(np.arange(k_max + 1), mean)
    expected[k_max] = n - expected[:k_max].sum()  # upper tail mass
    observed = np.bincount(counts, minlength=k_max + 1).astype(float)

    cum = np.cumsum(expected)
    lo = int(np.searchsorted(cum, 5.0))
    cum_rev = np.cumsum(expected[::-1])
    hi = len(expected) - 1 - int(np.searchsorted(cum_rev, 5.0))
    edges = [0, lo + 1] + list(range(lo + 2, hi + 1)) + [len(expected)]
    obs_binned = np.add.reduceat(observed, edges[:-1])
    exp_binned = np.add.reduceat(expected, edges[:-1])
    statistic = float(((obs_binned - exp_binned) ** 2 / exp_binned).sum())
    return float(stats.chi2.sf(statistic, df=len(obs_binned) - 1))


class TestSampleCapAngles:
    def test_empty_request(self):
        azimuth, polar = sample_cap_angles(0.3, 0, SampleMode.AREA_UNIFORM, make_rng(0))
        assert azimuth.shape == (0,)
        assert polar.shape == (0,)

    def test_angle_ranges(self):
        rng = make_rng(11)
        phi = 0.27
        azimuth, polar = sample_cap_angles(phi, 50_000, SampleMode.AREA_UNIFORM, rng)
        assert np.all((azimuth >= 0.0) & (azimuth < 2.0 * math.pi))
        assert np.all((polar >= 0.0) & (polar <= phi))
        azimuth, polar = sample_cap_angles(phi, 50_000, SampleMode.PAPER_FAITHFUL, rng)
        assert np.all(np.abs(polar) <= phi)

    def test_area_uniform_subcap_fraction(self):
        # A half-angle sub-cap of a hemispherical cap holds half the area:
        # (1 - cos(pi/3)) / (1 - cos(pi/2)) = 0.5.
        _, polar = sample_cap_angles(0.5 * math.pi, 1_000_000,
                                     SampleMode.AREA_UNIFORM, make_rng(314))
        fraction = np.mean(polar <= math.pi / 3.0)
        assert abs(fraction - 0.5) < 0.002

    def test_area_uniform_cdf_any_subcap(self):
        phi = 0.27639179079010023
        _, polar = sample_cap_angles(phi, 500_000, SampleMode.AREA_UNIFORM,
                                     make_rng(2718))
        for sub in (0.25 * phi, 0.5 * phi, 0.9 * phi):
            expected = (1.0 - math.cos(sub)) / (1.0 - math.cos(phi))
            assert np.mean(polar <= sub) == pytest.approx(expected, abs=0.003)

    def test_paper_faithful_polar_is_uniform(self):
        phi = 0.1
        _, polar = sample_cap_angles(phi, 1_000_000, SampleMode.PAPER_FAITHFUL,
                                     make_rng(1618))
        result = stats.kstest(polar, stats.uniform(loc=-phi, scale=2.0 * phi).cdf)
        assert result.pvalue > 0.01

    def test_mode_accepts_value_string(self):
        a1, p1 = sample_cap_angles(0.3, 10, "area_uniform", make_rng(5))
        a2, p2 = sample_cap_angles(0.3, 10, SampleMode.AREA_UNIFORM, make_rng(5))
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2)

    def test_tiny_cap_stays_inside(self):
        # Caps of ~4e-4 rad exercise the cancellation-free polar transform.
        phi = 3.87e-4
        _, polar = sample_cap_angles(phi, 200_000, SampleMode.AREA_UNIFORM,
                                     make_rng(9))
        assert np.all((polar >= 0.0) & (polar <= phi))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            sample_cap_angles(-0.1, 10, SampleMode.AREA_UNIFORM, make_rng(0))
        with pytest.raises(InvalidParameterError):
            sample_cap_angles(math.pi + 0.1, 10, SampleMode.AREA_UNIFORM, make_rng(0))
        with pytest.raises(InvalidParameterError):
            sample_cap_angles(0.3, -1, SampleMode.AREA_UNIFORM, make_rng(0))
        with pytest.raises(InvalidParameterError, match="mode"):
            sample_cap_angles(0.3, 10, "slanted", make_rng(0))


class TestYawPitchMatrix:
    def test_identity_at_origin(self):
        assert np.allclose(yaw_pitch_matrix(0.0, 0.0), np.eye(3), atol=0.0)

    def test_pure_yaw_quarter_turn(self):
        m = yaw_pitch_matrix(0.5 * math.pi, 0.0)
        assert np.allclose(m @ np.array([1.0, 0.0, 0.0]),
                           np.array([0.0, 1.0, 0.0]), atol=1e-15)

    def test_entries_match_direct_product(self):
        azimuth, polar = 0.7, 0.4
        ca, sa = math.cos(azimuth), math.sin(azimuth)
        cp, sp = math.cos(polar), math.sin(polar)
        yaw = [[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]]
        pitch = [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
        expected = [[sum(yaw[i][k] * pitch[k][j] for k in range(3))
                     for j in range(3)] for i in range(3)]
        assert np.allclose(yaw_pitch_matrix(azimuth, polar), np.array(expected),
                           atol=1e-12)

    @pytest.mark.parametrize("azimuth,polar", [
        (0.0, 0.0), (1.0, 0.5), (3.5, 2.9), (-0.7, 0.4), (6.0, 3.1)])
    def test_orthonormal_with_unit_determinant(self, azimuth, polar):
        m = yaw_pitch_matrix(azimuth, polar)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_bits_equal_the_product_of_the_two_rotations(self):
        # Each edge angle paired with each, and random pairs: the nine sums
        # give numpy's yaw @ pitch bit for bit, the signs of zeros included.
        edges = [0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi, 2.0 * math.pi,
                 1.5 * math.pi, 0.25 * math.pi, 5e-324, -5e-324, 1e-300]
        rng = np.random.default_rng(2028)
        pairs = [(azimuth, polar) for azimuth in edges for polar in edges]
        pairs += zip(rng.uniform(-10.0, 10.0, 5000).tolist(), rng.uniform(-10.0, 10.0, 5000).tolist())
        for azimuth, polar in pairs:
            ca, sa = math.cos(azimuth), math.sin(azimuth)
            cp, sp = math.cos(polar), math.sin(polar)
            yaw = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
            pitch = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
            assert (yaw_pitch_matrix(azimuth, polar).tobytes()
                    == (yaw @ pitch).tobytes()), (azimuth, polar)

    def test_moves_pole_to_receiver_direction(self):
        azimuth, polar = 1.2, 0.8
        moved = yaw_pitch_matrix(azimuth, polar) @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(moved, cap_center_direction(azimuth, polar), atol=1e-15)


class TestGenerate:
    def test_zero_density_empty_topology(self, s2g_spec):
        dome = coverage(s2g_spec)
        topology = generate(dome, SampleConfig(density_per_km2=0.0, seed=5))
        assert topology.count == 0
        assert topology.points.shape == (0, 3)

    @pytest.mark.parametrize("rows", [0, 1, 57])
    def test_count_is_the_number_of_points(self, rows):
        topology = Topology(np.zeros((rows, 3)))
        assert topology.count == len(topology.points) == rows
        with pytest.raises(TypeError):
            Topology(np.zeros((rows, 3)), count=rows + 1)

    def test_count_is_the_poisson_draw(self, s2g_spec):
        dome = coverage(s2g_spec)
        topology = generate(dome, SampleConfig(density_per_km2=5e-6, seed=42))
        assert topology.count == poisson_count(5e-6, dome.area_km2, make_rng(42)) > 0

    def test_radius_and_containment(self, g2s_spec):
        dome = coverage(g2s_spec)
        config = SampleConfig(density_per_km2=50.0, seed=77)
        topology = generate(dome, config)
        assert topology.count > 0
        radii = np.linalg.norm(topology.points, axis=1)
        assert np.max(np.abs(radii / dome.transmitter_radius_km - 1.0)) < 1e-9
        angles = angular_distance(topology.points, cap_center_direction(0.0, 0.0))
        assert np.max(angles) <= dome.vertex_angle_rad + 1e-12

    @pytest.mark.parametrize("mode", list(SampleMode), ids=lambda m: m.value)
    def test_containment_off_pole(self, s2g_spec, mode):
        dome = coverage(s2g_spec)
        config = SampleConfig(density_per_km2=1e-4, rx_azimuth_rad=2.4,
                              rx_polar_rad=1.1, mode=mode, seed=99)
        topology = generate(dome, config)
        center = cap_center_direction(2.4, 1.1)
        angles = angular_distance(topology.points, center)
        assert np.max(angles) <= dome.vertex_angle_rad + 1e-12
        radii = np.linalg.norm(topology.points, axis=1)
        assert np.max(np.abs(radii / dome.transmitter_radius_km - 1.0)) < 1e-9

    def test_rotation_correctness(self, s2g_spec):
        # Generating at (azimuth, polar) then undoing the rotation must
        # reproduce the pole-centred generation with the same seed.
        dome = coverage(s2g_spec)
        seed = 31337
        rotated = generate(dome, SampleConfig(density_per_km2=1e-4,
                                              rx_azimuth_rad=0.7,
                                              rx_polar_rad=0.4, seed=seed))
        centred = generate(dome, SampleConfig(density_per_km2=1e-4, seed=seed))
        rotation = yaw_pitch_matrix(0.7, 0.4)
        undone = rotated.points @ rotation
        tol = dome.transmitter_radius_km * 1e-12
        assert rotated.count == centred.count
        assert np.allclose(undone, centred.points, rtol=0.0, atol=tol)

    def test_bit_identical_for_identical_inputs(self, s2g_spec):
        dome = coverage(s2g_spec)
        config = SampleConfig(density_per_km2=5e-6, seed=42)
        first = generate(dome, config)
        second = generate(dome, config)
        assert first.count == second.count
        assert np.array_equal(first.points, second.points)

    def test_seed_changes_output(self, s2g_spec):
        dome = coverage(s2g_spec)
        a = generate(dome, SampleConfig(density_per_km2=5e-6, seed=1))
        b = generate(dome, SampleConfig(density_per_km2=5e-6, seed=2))
        assert a.count != b.count or not np.array_equal(a.points, b.points)

    def test_mean_count_over_seeds(self, s2g_spec):
        dome = coverage(s2g_spec)
        counts = [generate(dome, SampleConfig(density_per_km2=5e-6, seed=seed)).count
                  for seed in range(10_000)]
        assert abs(np.mean(counts) - 57.0) < 0.3


# The one-shot oracle of the sampler's stream: every angle of a draw at once.
def sample_cap_angles(vertex_angle_rad: float, count: int, mode: SampleMode,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (azimuth, polar) angle arrays for ``count`` points inside a cap.

    Azimuths are uniform on [0, 2*pi) in both modes.  AREA_UNIFORM draws
    polar = arccos(1 - U * (1 - cos(phi))), evaluated in the equivalent
    cancellation-free form 2*arcsin(sqrt(U) * sin(phi/2)); PAPER_FAITHFUL
    draws polar uniformly on [-phi, phi].
    """
    _require_vertex_angle(vertex_angle_rad)
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count!r}")
    mode = _sample_mode(mode)
    azimuth = 2.0 * math.pi * rng.random(count)
    return azimuth, _polar_angles(vertex_angle_rad, mode, rng.random(count))


def one_shot_points(dome: DomeGeometry, config: SampleConfig) -> np.ndarray:
    """The draw ``generate`` makes, its angles drawn whole from one generator
    in the stream's order, its points built as one column stack and rotated
    by one matrix product over the whole draw.  The count comes through the
    module, as in ``generate``, so that a test can fix it."""
    rng = make_rng(config.seed)
    count = pointprocess.poisson_count(config.density_per_km2, dome.area_km2, rng)
    azimuth, polar = sample_cap_angles(dome.vertex_angle_rad, count, config.mode, rng)
    r_t = dome.transmitter_radius_km
    sin_polar = np.sin(polar)
    local = np.column_stack((
        r_t * sin_polar * np.cos(azimuth),
        r_t * sin_polar * np.sin(azimuth),
        r_t * np.cos(polar),
    ))
    return local @ yaw_pitch_matrix(config.rx_azimuth_rad, config.rx_polar_rad).T


def oriented_config(density: float, mode: SampleMode, seed: int = 2024) -> SampleConfig:
    return SampleConfig(density_per_km2=density, rx_azimuth_rad=2.4, rx_polar_rad=1.1,
                        mode=mode, seed=seed)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


MODES = pytest.mark.parametrize("mode", list(SampleMode), ids=lambda m: m.value)


# Compares ``generate`` with the one-shot draw for block sizes 2, 7 and
# _BLOCK_ROWS, both modes, at counts on and next to the block boundaries,
# and prints the draws made, the differing ones and OpenBLAS's core name
# (None where it cannot be read).
_KERNEL_CHILD = """
import ctypes, json
from sagindome import Scenario, SampleMode, coverage, generate, pointprocess
from conftest import reference_spec
from test_pointprocess import one_shot_points, oriented_config

dome = coverage(reference_spec(Scenario.S2G))
draws, differing = 0, []
for rows in (2, 7, pointprocess._BLOCK_ROWS):
    pointprocess._BLOCK_ROWS = rows
    for count in sorted({0, 1, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, 3 * rows + 5}):
        pointprocess.poisson_count = lambda *args: count
        for mode in SampleMode:
            config = oriented_config(1e-4, mode)
            draws += 1
            if generate(dome, config).points.tobytes() != one_shot_points(dome, config).tobytes():
                differing.append([rows, count, mode.value])
corename = None
try:
    # numpy's own OpenBLAS, not the one scipy may have loaded beside it.
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    library = ctypes.CDLL(min(paths, key=lambda path: "numpy" not in path))
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        if hasattr(library, name):
            getter = getattr(library, name)
            getter.restype = ctypes.c_char_p
            corename = getter().decode()
            break
except (OSError, ValueError):
    pass
print(json.dumps({"draws": draws, "differing": differing, "corename": corename}))
"""


class TestBlockedBuild:
    """``generate`` builds and rotates its points _BLOCK_ROWS at a time; the
    bytes are those of the one-shot draw rotated by one product over the
    whole draw, whatever the block size, since no block is a one-row tail."""

    @MODES
    @pytest.mark.parametrize("block_rows, count", [
        # Blocks of 2 and 7 rows put many block boundaries in a small draw;
        # the block size and two larger ones show that the bytes do not
        # follow it.
        *((2, count) for count in (0, 1, 2, 3, 4, 5, 2 * 9 + 1)),
        *((7, count) for count in (0, 1, 6, 7, 8, 13, 14, 15, 16, 7 * 9 + 3)),
        *((rows, count) for rows in (_BLOCK_ROWS, 2048, 4096)
          for count in (rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, 3 * rows + 5)),
    ])
    def test_counts_on_and_next_to_block_boundaries(self, s2g_spec, monkeypatch, mode,
                                                    block_rows, count):
        # The count is fixed so that draws end on and next to boundaries.
        monkeypatch.setattr(pointprocess, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(pointprocess, "poisson_count", lambda *args: count)
        dome = coverage(s2g_spec)
        config = oriented_config(1e-4, mode)
        points = generate(dome, config).points
        assert len(points) == count
        assert_same_bits(points, one_shot_points(dome, config))

    @pytest.mark.parametrize("coretype, flag", [
        ("Nehalem", "sse4_2"), ("Sandybridge", "avx"), (None, None)])
    def test_same_bits_on_other_blas_kernels(self, coretype, flag):
        # The default kernel here may use FMA; the older ones do not.  Each
        # child compares draws ending on and next to boundaries of blocks of
        # 2, 7 and _BLOCK_ROWS rows with the one-shot draw.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas or platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"needs OpenBLAS on x86-64, not {blas} on {platform.machine()}")
        if flag:
            try:
                flags = Path("/proc/cpuinfo").read_text().split()
            except OSError:
                pytest.skip("cannot read the CPU flags from /proc/cpuinfo")
            if flag not in flags:
                pytest.skip(f"OpenBLAS's {coretype} kernel needs {flag}")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(pointprocess.__file__).parents[1]), str(Path(__file__).parent)]))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        child = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env,
                               capture_output=True, text=True, timeout=120, check=False)
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout)
        assert result["differing"] == [] and result["draws"] == 46
        if coretype and result["corename"] is not None:
            assert result["corename"].lower() == coretype.lower()

    @MODES
    def test_poisson_draw_across_blocks(self, s2g_spec, mode):
        dome = coverage(s2g_spec)
        config = oriented_config(25_000.5 / dome.area_km2, mode, seed=4242)
        points = generate(dome, config).points
        assert len(points) > 5 * _BLOCK_ROWS
        assert_same_bits(points, one_shot_points(dome, config))

    @MODES
    def test_peak_memory_per_point(self, s2g_spec, mode):
        # The result takes 24 bytes a point and one block of angles and
        # coordinates about 1.5 more; the whole angle arrays next to the
        # result would take 40, and an unrotated copy of the draw 64 or more.
        dome = coverage(s2g_spec)
        config = oriented_config(200_000.5 / dome.area_km2, mode, seed=11)
        tracemalloc.start()
        try:
            topology = generate(dome, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert topology.count > 190_000
        assert peak < 28 * topology.count


class TestAngularDistance:
    def test_aligned(self):
        assert angular_distance(np.array([0.0, 0.0, 5.0]),
                                np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert angular_distance(np.array([0.0, 3.0, 0.0]),
                                np.array([1.0, 0.0, 0.0])) == pytest.approx(
            0.5 * math.pi, abs=1e-15)

    def test_diagonal(self):
        point = 6371.0 / math.sqrt(2.0) * np.array([1.0, 1.0, 0.0])
        assert angular_distance(point, np.array([1.0, 0.0, 0.0])) == pytest.approx(
            0.25 * math.pi, rel=1e-12)

    def test_full_precision_near_zero(self):
        # arccos of the cosine rounds this angle to 0.0.
        point = 7000.0 * np.array([math.sin(1e-9), 0.0, math.cos(1e-9)])
        assert angular_distance(point, np.array([0.0, 0.0, 1.0])) == pytest.approx(
            1e-9, rel=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            angular_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            angular_distance(np.array([1.0, 0.0, 0.0]), np.zeros(3))


_EDGE_VERTEX_ANGLES = (0.0, 5e-324, 1e-12, 1e-9, math.pi - 1e-9, math.pi)
_RECEIVER_ANGLES = st.floats(-10.0, 10.0)


class TestSamplerProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(radius=st.floats(1.0, 1e5),
           phi=st.sampled_from(_EDGE_VERTEX_ANGLES) | st.floats(0.0, math.pi),
           mean=st.integers(0, 40), rx_azimuth=_RECEIVER_ANGLES,
           rx_polar=_RECEIVER_ANGLES, mode=st.sampled_from(list(SampleMode)),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_points_on_sphere_inside_cap(self, radius, phi, mean, rx_azimuth,
                                         rx_polar, mode, seed):
        area = cap_area(radius, phi)
        # About ``mean`` points, or none where the cap's area underflows.
        density = mean / area if area > 0.0 and mean / area < math.inf else 0.0
        dome = DomeGeometry(radius, 2.0 * radius, phi, False)
        config = SampleConfig(density_per_km2=density, rx_azimuth_rad=rx_azimuth,
                              rx_polar_rad=rx_polar, mode=mode, seed=seed)
        points = generate(dome, config).points
        if len(points) == 0:
            return
        norms = np.linalg.norm(points, axis=1)
        assert np.max(np.abs(norms / radius - 1.0)) <= 1e-12
        angles = angular_distance(points, cap_center_direction(rx_azimuth, rx_polar))
        assert np.max(angles) <= phi + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rx_azimuth=_RECEIVER_ANGLES, rx_polar=_RECEIVER_ANGLES)
    def test_yaw_pitch_matrix_orthonormal(self, rx_azimuth, rx_polar):
        matrix = yaw_pitch_matrix(rx_azimuth, rx_polar)
        assert np.linalg.norm(matrix @ matrix.T - np.eye(3), np.inf) <= 1e-15
        assert abs(np.linalg.det(matrix) - 1.0) <= 1e-15


class TestSampleConfig:
    def test_rejects_negative_density(self):
        with pytest.raises(InvalidParameterError):
            SampleConfig(density_per_km2=-1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            SampleConfig(density_per_km2=1.0, mode="uniformish")

    def test_mode_string_coerced(self):
        config = SampleConfig(density_per_km2=1.0, mode="paper_faithful")
        assert config.mode is SampleMode.PAPER_FAITHFUL
