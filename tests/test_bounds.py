"""Envelope verification, decay certificates, and cone scans."""

import math

import numpy as np
import pytest

from lrlattice import (
    ConeScan,
    DecayProfile,
    DomainError,
    Field,
    GeometryMismatchError,
    HarmonicParameters,
    LatticeGeometry,
    ball_sites,
    commutator_norm,
    cone_scan,
    derive_constants,
    envelope_prefactor,
    envelope_speed,
    estimate_velocity,
    harmonic_bound_rhs,
    pair_sum,
    spot_check_certificate,
    verify_kernel_bounds,
)

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))


class TestKernelBoundVerification:
    @pytest.mark.parametrize("params", [CHAIN, MASSLESS])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_envelopes_hold_on_the_chain(self, params, mu):
        report = verify_kernel_bounds(params, mu, (0.0, 0.5, 1.0), 24)
        assert report.max_ratio <= 1.0 + 1e-9
        assert report.max_ratio > 0.01

    def test_worst_point_structure(self):
        report = verify_kernel_bounds(CHAIN, 1.0, (0.5,), 10)
        point = report.worst_point
        assert set(point) == {"m", "t", "x", "value", "envelope", "allowance"}
        assert point["m"] in (-1, 0, 1)
        assert abs(point["value"]) <= (point["envelope"] + point["allowance"]) * (1 + 1e-9)

    def test_two_dimensional_massless_survives_slow_quadrature(self):
        # conical-point quadrature converges only algebraically; the
        # verifier must still return with the achieved error folded in
        params = HarmonicParameters(omega=0.0, couplings=(1.0, 1.0))
        report = verify_kernel_bounds(params, 0.5, (0.5,), 8)
        assert report.max_ratio <= 1.0 + 1e-9

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            verify_kernel_bounds(CHAIN, 0.0, (1.0,), 8)


class TestDecayCertificate:
    def test_constants_compose_from_envelope_pieces(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        mu = 2.0
        assert cert.mu == mu
        assert cert.velocity_bound == envelope_speed(CHAIN, mu)
        assert cert.prefactor == envelope_prefactor(CHAIN, mu)
        assert cert.v_a == mu * envelope_speed(CHAIN, mu)
        # slack eta = 1 equals the profile power gap handling: p = 2 > eta
        p = profile.power
        conversion = (p / 1.0) ** p * math.exp(1.0 - p)
        assert cert.c_a == pytest.approx(cert.prefactor * conversion, rel=1e-15)
        assert cert.a0 == 3.0
        assert cert.a1 == 3.0

    def test_frozen_reference_values(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        assert cert.velocity_bound == pytest.approx(16.522431726768346, rel=1e-12)
        assert cert.c_a == pytest.approx(20.676227085458457, rel=1e-9)
        assert cert.v_a == pytest.approx(33.04486345353669, rel=1e-12)

    def test_explicit_mu_override(self):
        profile = DecayProfile(1, epsilon=1.0, rate=0.5)
        cert = derive_constants(CHAIN, 0.5, profile, mu=4.0)
        assert cert.mu == 4.0
        with pytest.raises(DomainError):
            derive_constants(CHAIN, 0.5, profile, mu=0.5)

    def test_profile_rate_must_match(self):
        profile = DecayProfile(1, epsilon=1.0, rate=0.25)
        with pytest.raises(DomainError):
            derive_constants(CHAIN, 1.0, profile)

    def test_dimension_mismatch(self):
        profile = DecayProfile(2, epsilon=1.0, rate=1.0)
        with pytest.raises(GeometryMismatchError):
            derive_constants(CHAIN, 1.0, profile)

    def test_report_round_trip(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        report = cert.as_report()
        assert report["c_a"] == cert.c_a
        assert report["mu"] == cert.mu
        assert set(report) == {
            "a",
            "mu",
            "velocity_bound",
            "prefactor",
            "c_a",
            "v_a",
            "a0",
            "a1",
        }


class TestPairSumAndRhs:
    def test_pair_sum_hand_value(self):
        geo = LatticeGeometry.infinite(1)
        profile = DecayProfile(1, epsilon=1.0)
        f = Field.delta(geo, (0,), 2.0)
        g = Field.delta(geo, (3,), -3.0j)
        assert pair_sum(f, g, profile) == pytest.approx(6.0 / 16.0, rel=1e-15)

    def test_multi_site_pair_sum(self):
        geo = LatticeGeometry.infinite(1)
        profile = DecayProfile(1, epsilon=1.0)
        f = Field(geo, {(0,): 1.0, (1,): 1.0})
        g = Field.delta(geo, (2,), 1.0)
        expected = profile.value(2) + profile.value(1)
        assert pair_sum(f, g, profile) == pytest.approx(expected, rel=1e-15)

    def test_rhs_composes(self):
        geo = LatticeGeometry.infinite(1)
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        f = Field.delta(geo, (0,), 0.5)
        g = Field.delta(geo, (4,), 0.5)
        t = 0.3
        expected = cert.c_a * math.exp(cert.v_a * t) * pair_sum(f, g, profile)
        assert harmonic_bound_rhs(f, g, t, cert, profile) == expected


class TestConeScan:
    def test_values_match_direct_commutators(self):
        scan = cone_scan(MASSLESS, 6, (0.5, 1.0))
        geo = LatticeGeometry.infinite(1, window_radius=6)
        f = Field.delta(geo, (0,) )
        j = list(scan.sites).index((3,))
        for i, t in enumerate(scan.t_grid):
            probes = (
                commutator_norm(f, Field.delta(geo, (3,)), MASSLESS, t),
                commutator_norm(f, Field.delta(geo, (3,), 1.0j), MASSLESS, t),
            )
            assert scan.values[i, j] == pytest.approx(max(probes), abs=1e-12)

    def test_values_live_in_the_weyl_range(self):
        scan = cone_scan(MASSLESS, 10, (1.0, 2.0, 3.0))
        assert np.all(scan.values >= 0.0)
        assert np.all(scan.values <= 2.0)

    def test_massless_chain_velocity(self):
        scan = cone_scan(MASSLESS, 28, tuple(range(1, 9)))
        fit = estimate_velocity(scan)
        assert 1.8 <= fit.v_emp <= 2.1
        assert fit.fit_residual < 0.2

    def test_threshold_stability_of_the_fit(self):
        scan = cone_scan(MASSLESS, 28, tuple(range(1, 9)))
        tight = estimate_velocity(scan, threshold=0.1)
        loose = estimate_velocity(scan, threshold=0.01)
        assert abs(tight.v_emp - loose.v_emp) <= 0.2
        assert 1.8 <= loose.v_emp <= 2.2

    def test_scan_guards(self):
        with pytest.raises(DomainError):
            cone_scan(MASSLESS, 0, (1.0,))
        with pytest.raises(DomainError):
            cone_scan(MASSLESS, 4, (1.0,), threshold=2.5)

    def test_empty_time_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match="time grid"):
            cone_scan(MASSLESS, 4, ())


class TestVelocityEstimation:
    def _synthetic(self, x_max, t_grid, front_of_t):
        # shell value 1 inside the announced front, 1e-6 outside
        sites = ball_sites(1, x_max)
        values = np.full((len(t_grid), len(sites)), 1e-6)
        for i, t in enumerate(t_grid):
            for j, site in enumerate(sites):
                if abs(site[0]) <= front_of_t(t):
                    values[i, j] = 1.0
        return ConeScan(
            params=MASSLESS,
            sites=tuple(sites),
            t_grid=tuple(float(t) for t in t_grid),
            values=values,
            threshold=0.1,
        )

    def test_exact_ballistic_front(self):
        scan = self._synthetic(12, (1.0, 2.0, 3.0, 4.0), lambda t: 2.0 * t - 1.0)
        fit = estimate_velocity(scan)
        assert fit.v_emp == pytest.approx(2.0, abs=1e-12)
        assert fit.fit_residual == pytest.approx(0.0, abs=1e-12)

    def test_cut_off_slices_are_skipped(self):
        # at t = 4 the front would sit at the scan edge, so only the first
        # three slices enter the fit
        scan = self._synthetic(7, (1.0, 2.0, 3.0, 4.0), lambda t: 2.0 * t - 1.0)
        fit = estimate_velocity(scan)
        assert fit.v_emp == pytest.approx(2.0, abs=1e-12)

    def test_too_few_crossings_raises(self):
        scan = self._synthetic(6, (1.0, 2.0), lambda t: 2.0 * t - 1.0)
        with pytest.raises(DomainError):
            estimate_velocity(scan)

    def test_all_quiet_raises(self):
        sites = ball_sites(1, 5)
        values = np.full((4, len(sites)), 1e-9)
        scan = ConeScan(MASSLESS, tuple(sites), (1.0, 2.0, 3.0, 4.0), values, 0.1)
        with pytest.raises(DomainError):
            estimate_velocity(scan)


class TestSpotCheck:
    def test_random_triples_stay_under_the_bound(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        worst = spot_check_certificate(CHAIN, cert, profile, trials=30, seed=0)
        assert worst < 1.0

    def test_seed_reproducibility(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        a = spot_check_certificate(CHAIN, cert, profile, trials=10, seed=42)
        b = spot_check_certificate(CHAIN, cert, profile, trials=10, seed=42)
        assert a == b
