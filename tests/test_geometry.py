"""Closed-form geometry against independent oracles.

Frozen expected values were computed from the difference-of-angles forms
(law of sines for uplink, auxiliary-perpendicular construction for
downlink), which never share code with the arccos(delta) closed forms they
check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sagindome import (
    AntennaConfig,
    DomeGeometry,
    InvalidGeometryError,
    InvalidParameterError,
    LIGHT_SPEED_M_PER_S,
    NumericDomainError,
    UnsupportedBranchError,
    cap_area,
    half_power_beamwidth,
    vertex_angle_downlink,
    vertex_angle_downlink_oracle,
    vertex_angle_uplink,
    vertex_angle_uplink_oracle,
)
from sagindome.geometry import _clamp_cosine, _clamp_nonnegative

# The frozen textbook beamwidths below take c = 3.0e8 m/s; rescaling by
# this ratio gives the model's width at that rounded light speed.
ROUND_C = 3.0e8 / LIGHT_SPEED_M_PER_S


class TestHalfPowerBeamwidth:
    def test_satellite_dish_40ghz(self):
        antenna = AntennaConfig(70.0, 4.0, 40e9)
        width = half_power_beamwidth(antenna) * ROUND_C
        assert math.degrees(width) == pytest.approx(0.13125, rel=1e-12)
        assert width == pytest.approx(2.2907446432425577e-3, rel=1e-12)

    def test_low_band_small_reflector(self):
        antenna = AntennaConfig(70.0, 0.2, 2e9)
        width = half_power_beamwidth(antenna) * ROUND_C
        assert math.degrees(width) == pytest.approx(52.5, rel=1e-12)
        assert width == pytest.approx(0.9162978572970231, rel=1e-12)

    def test_doubling_frequency_halves_width(self):
        base = AntennaConfig(70.0, 4.0, 10e9)
        doubled = AntennaConfig(70.0, 4.0, 20e9)
        assert half_power_beamwidth(doubled) == pytest.approx(
            0.5 * half_power_beamwidth(base), rel=1e-15)

    @pytest.mark.parametrize("field,kwargs", [
        ("illumination_coefficient", dict(illumination_coefficient=0.0,
                                          reflector_diameter_m=4.0,
                                          carrier_frequency_hz=40e9)),
        ("reflector_diameter_m", dict(illumination_coefficient=70.0,
                                      reflector_diameter_m=-1.0,
                                      carrier_frequency_hz=40e9)),
        ("carrier_frequency_hz", dict(illumination_coefficient=70.0,
                                      reflector_diameter_m=4.0,
                                      carrier_frequency_hz=0.0)),
    ])
    def test_nonpositive_field_names_the_field(self, field, kwargs):
        with pytest.raises(InvalidParameterError, match=field):
            AntennaConfig(**kwargs)


class TestVertexAngleUplink:
    def test_wide_beam_is_tangent_limited(self):
        # theta/2 = 1.5 rad exceeds arcsin(r_t/r_r) for any separated radii
        phi, tangent = vertex_angle_uplink(3.0, 6371.0, 26371.0)
        assert tangent is True
        assert phi == pytest.approx(math.acos(6371.0 / 26371.0), rel=1e-15)

    def test_meo_satellite_dish(self):
        # Expected value from the law-of-sines difference form evaluated at
        # the 40 GHz / 4 m beamwidth with c = 3e8 (0.0022907446432425577 rad).
        phi, tangent = vertex_angle_uplink(2.2907446432425577e-3, 6371.0, 26371.0)
        assert tangent is False
        assert phi == pytest.approx(3.595597705079975e-3, abs=1e-9)
        assert phi == pytest.approx(3.596e-3, abs=5e-7)

    def test_vanishing_beam_vanishing_cap(self):
        phi, tangent = vertex_angle_uplink(1e-9, 6371.0, 26371.0)
        assert tangent is False
        assert 0.0 <= phi < 1e-8

    def test_branch_tie_takes_non_tangent_form(self):
        r_t, r_r = 6371.0, 26371.0
        tie = 2.0 * math.asin(r_t / r_r)
        phi, tangent = vertex_angle_uplink(tie, r_t, r_r)
        assert tangent is False
        assert phi == pytest.approx(math.acos(r_t / r_r), abs=1e-7)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(1.0, 1e5), st.floats(-6.0, 1.5))
    def test_branch_transition_is_continuous(self, r_t, log_gap):
        # The vertex angle has a square-root cusp at tangency, so the gap
        # across the branch point at offset eps scales like
        # sqrt(2 * eps * sqrt(k^2 - 1)) rather than linearly in eps.  The
        # receiver sits 1e-6 to ~30 transmitter radii above the transmitter.
        r_r = r_t * (1.0 + 10.0 ** log_gap)
        k = r_r / r_t
        limit = math.asin(r_t / r_r)
        phi_tangent = math.acos(r_t / r_r)
        gaps = []
        for eps in (1e-6, 1e-9, 1e-12):
            phi_below, tangent = vertex_angle_uplink(2.0 * (limit - eps), r_t, r_r)
            assert tangent is False
            envelope = math.sqrt(2.0 * eps * math.sqrt(k * k - 1.0))
            gap = abs(phi_below - phi_tangent)
            assert gap <= 2.0 * envelope + 1e-7
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_monotone_in_beamwidth_and_receiver_radius(self):
        r_t = 6371.0
        for r_r in (6376.0, 6971.0, 26371.0):
            cap = 2.0 * math.asin(r_t / r_r)
            widths = np.linspace(0.01, min(cap, math.pi) * 0.999, 40)
            angles = [vertex_angle_uplink(w, r_t, r_r)[0] for w in widths]
            assert all(b >= a - 1e-15 for a, b in zip(angles, angles[1:]))
        theta = 0.002
        radii = np.linspace(6900.0, 42157.0, 40)
        angles = [vertex_angle_uplink(theta, r_t, rr)[0] for rr in radii]
        assert all(b >= a - 1e-15 for a, b in zip(angles, angles[1:]))

    def test_never_exceeds_tangent_angle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r_t = 6371.0 + 50.0 * rng.random()
            r_r = r_t + 10.0 ** rng.uniform(-0.3, 4.5)
            theta = 2.0 * math.asin(r_t / r_r) * rng.uniform(0.02, 0.98)
            phi, _ = vertex_angle_uplink(theta, r_t, r_r)
            assert phi <= math.acos(r_t / r_r) + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidGeometryError):
            vertex_angle_uplink(0.1, 7000.0, 6371.0)
        with pytest.raises(InvalidGeometryError):
            vertex_angle_uplink(0.1, 6371.0, 6371.0)
        with pytest.raises(InvalidParameterError):
            vertex_angle_uplink(0.0, 6371.0, 26371.0)
        with pytest.raises(InvalidParameterError):
            vertex_angle_uplink(math.pi, 6371.0, 26371.0)


class TestVertexAngleDownlink:
    def test_zenith_only_sees_nothing(self):
        assert vertex_angle_downlink(0.5 * math.pi, 6971.0, 6371.0) == 0.0

    def test_horizon_reaches_tangent_geometry(self):
        phi = vertex_angle_downlink(0.0, 6971.0, 6371.0)
        assert phi == pytest.approx(math.acos(6371.0 / 6971.0), rel=1e-12)

    def test_leo_ground_user_ten_degrees(self):
        # Difference-form value; also consistent with the published
        # 11588409.2 km^2 cap at these radii.
        phi = vertex_angle_downlink(math.radians(10.0), 6971.0, 6371.0)
        assert phi == pytest.approx(0.27639179079010023, abs=1e-9)

    def test_monotone_decreasing_in_elevation(self):
        angles = [vertex_angle_downlink(a, 6971.0, 6371.0)
                  for a in np.linspace(0.0, 0.5 * math.pi, 60)]
        assert all(b < a for a, b in zip(angles, angles[1:]))

    def test_monotone_in_transmitter_radius(self):
        alpha = math.radians(10.0)
        angles = [vertex_angle_downlink(alpha, rt, 6371.0)
                  for rt in np.linspace(6900.0, 42157.0, 40)]
        assert all(b >= a for a, b in zip(angles, angles[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidGeometryError):
            vertex_angle_downlink(0.1, 6371.0, 6971.0)
        with pytest.raises(InvalidParameterError):
            vertex_angle_downlink(-0.01, 6971.0, 6371.0)
        with pytest.raises(InvalidParameterError):
            vertex_angle_downlink(0.5 * math.pi + 0.01, 6971.0, 6371.0)


class TestCapArea:
    def test_empty_cap(self):
        assert cap_area(6371.0, 0.0) == 0.0

    def test_full_sphere(self):
        assert cap_area(6371.0, math.pi) == pytest.approx(
            4.0 * math.pi * 6371.0 ** 2, rel=1e-15)

    def test_published_leo_ground_cap(self):
        phi = vertex_angle_downlink(math.radians(10.0), 6971.0, 6371.0)
        assert cap_area(6971.0, phi) == pytest.approx(11588409.2, rel=0.005)

    def test_matches_quadrature_of_surface_integral(self):
        # Int_0^phi Int_0^2pi R^2 sin(t) dtheta dt, integrated numerically.
        for r_t in (6371.0, 6971.0, 26371.0):
            for phi in np.geomspace(1e-4, math.pi, 50):
                integral, _ = integrate.quad(math.sin, 0.0, phi, epsabs=0.0,
                                             epsrel=1e-11)
                expected = 2.0 * math.pi * r_t * r_t * integral
                assert cap_area(r_t, phi) == pytest.approx(expected, rel=1e-6)

    def test_stable_form_beats_naive_cancellation(self):
        # At phi=1e-8 the naive 1 - cos(phi) collapses to 0 in doubles while
        # the half-angle form keeps full relative precision.
        phi = 1e-8
        naive = 2.0 * math.pi * 6371.0 ** 2 * (1.0 - math.cos(phi))
        assert naive == 0.0
        assert cap_area(6371.0, phi) == pytest.approx(
            math.pi * 6371.0 ** 2 * phi * phi, rel=1e-9)

    @pytest.mark.parametrize("r_t", [1.0, 6371.0, 42157.0])
    def test_disc_limit_at_milliradian(self, r_t):
        # 4*pi*R^2*sin^2(phi/2) = pi*R^2*phi^2 * (1 - phi^2/12 + phi^4/360 - ...)
        phi = 1e-3
        series = math.pi * r_t * r_t * phi * phi * (1.0 - phi * phi / 12.0)
        assert cap_area(r_t, phi) == pytest.approx(series, rel=1e-12)

    def test_ground_to_air_footprint(self):
        assert cap_area(6371.0, 3.8697e-4) == pytest.approx(19.1, abs=0.05)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(InvalidParameterError):
            cap_area(6371.0, -0.1)
        with pytest.raises(InvalidParameterError):
            cap_area(6371.0, math.pi + 0.1)


class TestDomeGeometry:
    @pytest.mark.parametrize("field", ["vertex_angle_rad", "area_km2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_or_area_rejected(self, field, value):
        fields = dict(transmitter_radius_km=6971.0, receiver_radius_km=6371.0,
                      vertex_angle_rad=0.27, delta=math.cos(0.27), area_km2=1.1e7,
                      tangent_limited=False)
        DomeGeometry(**fields)
        with pytest.raises(InvalidParameterError, match=field):
            DomeGeometry(**dict(fields, **{field: value}))


class TestOracleForms:
    def test_uplink_oracle_zero_limit(self):
        assert vertex_angle_uplink_oracle(1e-12, 6371.0, 26371.0) == pytest.approx(
            0.0, abs=1e-11)

    def test_uplink_oracle_direct_value(self):
        phi = vertex_angle_uplink_oracle(0.916298, 6371.0, 6376.0)
        assert phi == pytest.approx(3.870605844120689e-4, rel=1e-12)
        assert phi == pytest.approx(3.87e-4, abs=5e-7)

    def test_uplink_oracle_rejects_tangent_branch(self):
        with pytest.raises(UnsupportedBranchError):
            vertex_angle_uplink_oracle(3.0, 6371.0, 26371.0)

    def test_downlink_oracle_zenith(self):
        assert vertex_angle_downlink_oracle(0.5 * math.pi, 6971.0, 6371.0) == (
            pytest.approx(0.0, abs=1e-12))

    def test_downlink_oracle_direct_value(self):
        phi = vertex_angle_downlink_oracle(math.radians(30.0), 6971.0, 6376.0)
        assert phi == pytest.approx(0.13294429087963544, rel=1e-12)

    def test_uplink_closed_form_matches_oracle_on_random_grid(self):
        rng = np.random.default_rng(20240615)
        for _ in range(1000):
            r_t = 6371.0 + 50.0 * rng.random()
            r_r = r_t + 10.0 ** rng.uniform(-0.3, 4.55)
            theta = 2.0 * math.asin(r_t / r_r) * rng.uniform(0.02, 0.98)
            closed, tangent = vertex_angle_uplink(theta, r_t, r_r)
            assert tangent is False
            oracle = vertex_angle_uplink_oracle(theta, r_t, r_r)
            assert abs(closed - oracle) < 1e-9

    def test_downlink_closed_form_matches_oracle_on_random_grid(self):
        rng = np.random.default_rng(20240616)
        for _ in range(1000):
            r_r = 6371.0 + 50.0 * rng.random()
            r_t = r_r + 10.0 ** rng.uniform(0.0, 4.55)
            alpha = rng.uniform(math.radians(5.0), math.radians(30.0))
            closed = vertex_angle_downlink(alpha, r_t, r_r)
            oracle = vertex_angle_downlink_oracle(alpha, r_t, r_r)
            assert abs(closed - oracle) < 1e-9


class TestClampRule:
    def test_noise_is_clamped_silently(self):
        assert _clamp_cosine(1.0 + 1e-13, "x") == 1.0
        assert _clamp_cosine(-1.0 - 1e-13, "x") == -1.0
        assert _clamp_cosine(0.5, "x") == 0.5
        assert _clamp_nonnegative(-1e-13, "x") == 0.0
        assert _clamp_nonnegative(0.25, "x") == 0.25

    def test_gross_violations_raise(self):
        with pytest.raises(NumericDomainError):
            _clamp_cosine(1.0 + 1e-11, "x")
        with pytest.raises(NumericDomainError):
            _clamp_cosine(-1.0 - 1e-11, "x")
        with pytest.raises(NumericDomainError):
            _clamp_nonnegative(-1e-11, "x")
