"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sagindome
from sagindome import (
    SampleConfig,
    SampleMode,
    Scenario,
    angular_distance,
    cap_center_direction,
    coverage,
    expected_count,
    full_sphere_count,
    generate,
    make_rng,
    poisson_count,
    sample_cap_angles,
    vertex_angle_downlink,
    vertex_angle_downlink_oracle,
    vertex_angle_uplink,
    vertex_angle_uplink_oracle,
)
from sagindome.sweeps import SweepParameter, SweepSpec, run_sweep
from conftest import reference_spec
from test_pointprocess import _poisson_chi_square_pvalue

AREA_RTOL = 0.005
SIGNIFICANCE = 0.01


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL: {description}")
                raise
            print(f"criterion {number:2d} PASS: {description}")
        return wrapper
    return decorate


@criterion(1, "S2G coverage area 11,588,409.2 km^2 within 0.5%")
def test_criterion_01_s2g_coverage():
    dome = coverage(reference_spec(Scenario.S2G))
    assert dome.area_km2 == pytest.approx(11_588_409.2, rel=AREA_RTOL)


@criterion(2, "S2A coverage area 2,694,261.1 km^2 within 0.5%")
def test_criterion_02_s2a_coverage():
    dome = coverage(reference_spec(Scenario.S2A))
    assert dome.area_km2 == pytest.approx(2_694_261.1, rel=AREA_RTOL)


@criterion(3, "A2G coverage area 2,464.3 km^2 within 0.5%")
def test_criterion_03_a2g_coverage():
    dome = coverage(reference_spec(Scenario.A2G))
    assert dome.area_km2 == pytest.approx(2_464.3, rel=AREA_RTOL)


@criterion(4, "G2S area 1,648.6 km^2 and A2S area 1,647.7 km^2 within 0.5%")
def test_criterion_04_meo_uplink_coverage():
    g2s = coverage(reference_spec(Scenario.G2S))
    a2s = coverage(reference_spec(Scenario.A2S))
    assert g2s.area_km2 == pytest.approx(1_648.6, rel=AREA_RTOL)
    assert a2s.area_km2 == pytest.approx(1_647.7, rel=AREA_RTOL)


@criterion(5, "count arithmetic: 3,053 satellites; 82.43 / ~58 / ~13 / ~12 nodes")
def test_criterion_05_count_arithmetic():
    assert abs(full_sphere_count(6971.0, 5e-6) - 3053.0) <= 1.0

    exact_g2s, _ = expected_count(coverage(reference_spec(Scenario.G2S)), 0.05)
    assert exact_g2s == pytest.approx(82.43, rel=AREA_RTOL)
    assert round(exact_g2s) == 82

    exact_s2g, mean_s2g = expected_count(coverage(reference_spec(Scenario.S2G)), 5e-6)
    assert round(exact_s2g) == 58
    assert mean_s2g == 57

    exact_s2a, _ = expected_count(coverage(reference_spec(Scenario.S2A)), 5e-6)
    assert round(exact_s2a) == 13

    exact_a2g, _ = expected_count(coverage(reference_spec(Scenario.A2G)), 0.005)
    assert round(exact_a2g) == 12


@criterion(6, "closed forms match difference-form oracles to 1e-9 rad (1000 draws each)")
def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(60606)
    for _ in range(1000):
        r_t = 6371.0 + 50.0 * rng.random()
        r_r = r_t + 10.0 ** rng.uniform(-0.3, 4.55)
        theta = 2.0 * math.asin(r_t / r_r) * rng.uniform(0.02, 0.98)
        closed, tangent = vertex_angle_uplink(theta, r_t, r_r)
        assert tangent is False
        assert abs(closed - vertex_angle_uplink_oracle(theta, r_t, r_r)) < 1e-9
    for _ in range(1000):
        r_r = 6371.0 + 50.0 * rng.random()
        r_t = r_r + 10.0 ** rng.uniform(0.0, 4.55)
        alpha = rng.uniform(math.radians(5.0), math.radians(30.0))
        closed = vertex_angle_downlink(alpha, r_t, r_r)
        assert abs(closed - vertex_angle_downlink_oracle(alpha, r_t, r_r)) < 1e-9
    assert time.perf_counter() - started < 1.0


@criterion(7, "monotone trends: area vs f, alpha, H_a, H_s on 50-step grids")
def test_criterion_07_monotone_trends():
    started = time.perf_counter()
    vs_frequency = run_sweep(SweepSpec(
        reference_spec(Scenario.G2S), SweepParameter.CARRIER_FREQUENCY,
        2e9, 40e9, 50)).area_km2.tolist()
    assert all(b < a for a, b in zip(vs_frequency, vs_frequency[1:]))

    vs_elevation = run_sweep(SweepSpec(
        reference_spec(Scenario.S2G), SweepParameter.MIN_ELEVATION,
        math.radians(5.0), math.radians(30.0), 50)).area_km2.tolist()
    assert all(b < a for a, b in zip(vs_elevation, vs_elevation[1:]))

    vs_air_altitude = run_sweep(SweepSpec(
        reference_spec(Scenario.G2A), SweepParameter.AIR_ALTITUDE,
        1.0, 50.0, 50)).area_km2.tolist()
    assert all(b >= a for a, b in zip(vs_air_altitude, vs_air_altitude[1:]))

    vs_space_altitude = run_sweep(SweepSpec(
        reference_spec(Scenario.S2G), SweepParameter.SPACE_ALTITUDE,
        500.0, 35786.0, 50)).area_km2.tolist()
    assert all(b >= a for a, b in zip(vs_space_altitude, vs_space_altitude[1:]))
    assert time.perf_counter() - started < 1.0


@criterion(8, "sampler statistics: annular chi-square, Poisson count law, polar KS")
def test_criterion_08_sampler_statistics():
    started = time.perf_counter()
    dome = coverage(reference_spec(Scenario.S2G))
    phi = dome.vertex_angle_rad

    # Uniform surface density: eight equal-area annuli, chi-square at 1%.
    _, polar = sample_cap_angles(phi, 1_000_000, SampleMode.AREA_UNIFORM,
                                 make_rng(8801))
    edges = 2.0 * np.arcsin(np.sqrt(np.arange(9) / 8.0) * math.sin(0.5 * phi))
    observed, _ = np.histogram(polar, bins=edges)
    expected = polar.size / 8.0
    annular_stat = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(annular_stat, df=7) > SIGNIFICANCE

    # Count law over 1e5 seeds: Poisson(floor(5e-6 * area)) = Poisson(57).
    counts = np.array([poisson_count(5e-6, dome.area_km2, make_rng(seed))
                       for seed in range(100_000)])
    assert _poisson_chi_square_pvalue(counts, 57) > SIGNIFICANCE

    # Signed-polar mode: Kolmogorov-Smirnov against Uniform[-phi, phi] at 1%.
    _, signed = sample_cap_angles(phi, 1_000_000, SampleMode.PAPER_FAITHFUL,
                                  make_rng(8802))
    ks = stats.kstest(signed, stats.uniform(loc=-phi, scale=2.0 * phi).cdf)
    assert ks.pvalue > SIGNIFICANCE
    assert time.perf_counter() - started < 60.0


@criterion(9, "radius and angular containment: 1e6+ points, zero violations")
def test_criterion_09_geometric_containment():
    rx_azimuth, rx_polar = 2.4, 1.1
    center = cap_center_direction(rx_azimuth, rx_polar)
    total = 0
    for scenario_index, scenario in enumerate(Scenario):
        dome = coverage(reference_spec(scenario))
        density = 85_000.0 / dome.area_km2
        for mode_index, mode in enumerate(SampleMode):
            topology = generate(dome, SampleConfig(
                density_per_km2=density, rx_azimuth_rad=rx_azimuth,
                rx_polar_rad=rx_polar, mode=mode,
                seed=9000 + 10 * scenario_index + mode_index))
            total += topology.count
            radii = np.linalg.norm(topology.points, axis=1)
            radius_violations = int(np.sum(
                np.abs(radii / dome.transmitter_radius_km - 1.0) >= 1e-9))
            angular = angular_distance(topology.points, center)
            angular_violations = int(np.sum(
                angular > dome.vertex_angle_rad + 1e-12))
            assert radius_violations == 0, f"{scenario.value}/{mode.value}"
            assert angular_violations == 0, f"{scenario.value}/{mode.value}"
    assert total >= 1_000_000


@criterion(10, "identical descriptor and seed give byte-identical sample CSVs")
def test_criterion_10_reproducibility(tmp_path):
    descriptor = tmp_path / "scenario.json"
    descriptor.write_text(
        '{"scenario": "s2g", "space_altitude_km": 600, "min_elevation_deg": 10,\n'
        ' "density_per_km2": 5e-6, "rx_azimuth_deg": 137, "rx_polar_deg": 63,\n'
        ' "seed": 20240615}\n')
    # The child runs the package this test imported, whatever put it on the path.
    package_root = str(Path(sagindome.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    outputs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        completed = subprocess.run(
            [sys.executable, "-m", "sagindome", "sample",
             "--descriptor", str(descriptor), "--output", str(target)],
            capture_output=True, text=True, check=False, env=env)
        assert completed.returncode == 0, completed.stderr
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"x_km,y_km,z_km\n")
    assert len(outputs[0].splitlines()) > 1
