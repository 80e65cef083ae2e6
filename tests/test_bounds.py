"""Envelope verification, decay certificates, and cone scans."""

import math
from dataclasses import asdict, replace

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
    QuadratureConvergenceError,
    QuadratureSpec,
    RATIO_FLOOR,
    apply_propagator_convolution,
    ball_sites,
    commutator_norm,
    compute_kernels,
    cone_scan,
    derive_constants,
    envelope_prefactor,
    envelope_speed,
    estimate_velocity,
    harmonic_bound_rhs,
    kernel_envelope,
    pair_sum,
    spot_check_certificate,
    symplectic_form,
    verify_kernel_bounds,
)
from lrlattice import bounds, harmonic

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))


class TestKernelBoundVerification:
    @pytest.mark.parametrize("params", [CHAIN, MASSLESS])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_envelopes_hold_on_the_chain(self, params, mu):
        (report,) = verify_kernel_bounds(params, [mu], (0.0, 0.5, 1.0), 24)
        assert report.max_ratio <= 1.0 + 1e-9
        assert report.max_ratio > 0.01

    def test_worst_point_structure(self):
        (report,) = verify_kernel_bounds(CHAIN, [1.0], (0.5,), 10)
        point = report.worst_point
        assert set(point) == {"m", "t", "x", "value", "envelope", "allowance"}
        assert point["m"] in (-1, 0, 1)
        assert type(point["x"]) is tuple and all(type(c) is int for c in point["x"])
        assert abs(point["value"]) <= (point["envelope"] + point["allowance"]) * (1 + 1e-9)

    def test_two_dimensional_massless_envelope_holds(self):
        # The conical point at k = 0 slows the quadrature, but at the default
        # tolerance it converges, so no fallback is taken.
        params = HarmonicParameters(omega=0.0, couplings=(1.0, 1.0))
        (report,) = verify_kernel_bounds(params, [0.5], (0.5,), 8)
        assert report.max_ratio <= 1.0 + 1e-9

    def test_stalled_refinement_falls_back_to_the_best_grid(self):
        # No grid can meet a tolerance of 1e-300, so every time takes the
        # fallback to the kernels at their best grid, errors folded in.
        params = HarmonicParameters(omega=0.0, couplings=(1.0, 1.0))
        quad = QuadratureSpec(points_per_axis=8, refinement_tolerance=1e-300)
        with pytest.raises(QuadratureConvergenceError) as caught:
            compute_kernels(params, 0.5, 4, quad)
        (report,) = verify_kernel_bounds(params, [1.0], (0.5,), 4, quad)
        expected = -math.inf
        for m, kernel in caught.value.kernels.items():
            allowance = max(kernel.est_quadrature_error, RATIO_FLOOR)
            rhs = kernel_envelope(params, m, 1.0, kernel.radii(), 0.5)
            expected = max(expected, float(np.max(np.abs(kernel.samples) / (rhs + allowance))))
        assert report.max_ratio == expected <= 1.0 + 1e-9

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            verify_kernel_bounds(CHAIN, [0.0], (1.0,), 8)

    @pytest.mark.parametrize("mus", [[math.inf], [1.0, math.nan], []])
    def test_a_mu_grid_needs_positive_finite_rates(self, mus):
        # mu = inf once passed with max ratio 0.0, an empty grid returned nothing
        with pytest.raises(DomainError, match="mu"):
            verify_kernel_bounds(CHAIN, mus, (0.5,), 8)

    def test_an_empty_time_grid_is_a_named_error(self):
        with pytest.raises(DomainError, match="time grid"):
            verify_kernel_bounds(CHAIN, [1.0], (), 8)

    def test_one_report_per_mu_in_the_order_given(self):
        t_grid = (0.0, 0.5, 1.5)
        reports = verify_kernel_bounds(MASSLESS, [2.0, 0.5, 1.0], t_grid, 12)
        alone = [verify_kernel_bounds(MASSLESS, [mu], t_grid, 12)[0] for mu in (2.0, 0.5, 1.0)]
        assert reports == alone

    def test_unrefinable_grid_raises_instead_of_an_infinite_allowance(self):
        # a kernel without an error estimate would make the allowance
        # infinite and every ratio zero, so the verifier must not get one
        cube = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0, 1.0))
        with pytest.raises(QuadratureConvergenceError):
            verify_kernel_bounds(cube, [1.0], (0.5,), 2, QuadratureSpec(points_per_axis=256))


class TestDecayCertificate:
    def test_an_infinite_eta_is_a_named_error(self):
        # it once returned an all-inf certificate
        with pytest.raises(DomainError, match="mu"):
            derive_constants(CHAIN, 1.0, DecayProfile(1, epsilon=1.0, rate=1.0), eta=math.inf)

    @pytest.mark.parametrize("envelope", [envelope_speed, envelope_prefactor])
    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0])
    def test_the_envelopes_need_a_positive_finite_rate(self, envelope, mu):
        with pytest.raises(DomainError, match="mu must be positive and finite"):
            envelope(CHAIN, mu)

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

    def test_mu_is_a_plus_eta(self):
        profile = DecayProfile(1, epsilon=1.0, rate=0.5)
        cert = derive_constants(CHAIN, 0.5, profile, eta=3.5)
        assert cert.mu == 4.0
        assert cert.v_a == 4.0 * envelope_speed(CHAIN, 4.0)
        for eta in (0.0, -1.0):
            with pytest.raises(DomainError, match="eta"):
                derive_constants(CHAIN, 0.5, profile, eta=eta)

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
        report = asdict(cert)
        assert report["c_a"] == cert.c_a
        assert report["mu"] == cert.mu
        # the key order is the order the CLI reports print
        assert list(report) == ["a", "mu", "velocity_bound", "prefactor", "c_a", "v_a", "a0", "a1"]


def _pair_sum_loop(f, g, profile):
    """pair_sum as one scalar term per pair of support sites."""
    return math.fsum(
        abs(fx) * abs(gy) * profile.value(f.geometry.distance(x, y))
        for x, fx in f.items_sorted()
        for y, gy in g.items_sorted()
    )


class TestPairSumAndRhs:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("half_side", [None, 3], ids=["infinite", "torus"])
    def test_pair_sum_matches_the_per_pair_loop(self, d, half_side):
        geometry = LatticeGeometry(d, half_side)
        profile = DecayProfile(d, epsilon=0.3, rate=1.1)
        rng = np.random.default_rng(d)
        # Sites L and -L + 1 are neighbours across a torus seam.
        sites = [(3,) * d, (-2,) * d, (3,) + (-2,) * (d - 1), (0,) * d, (1,) + (2,) * (d - 1)]
        for _ in range(4):
            picks = [sites[k] for k in rng.choice(len(sites), size=3, replace=False)]
            f = Field(geometry, {x: complex(*rng.normal(size=2)) for x in picks[:2]})
            g = Field(geometry, {x: complex(*rng.normal(size=2)) for x in picks[1:]})
            assert pair_sum(f, g, profile) == _pair_sum_loop(f, g, profile)
            assert pair_sum(g, f, profile) == _pair_sum_loop(g, f, profile)
        nil = Field.zero(geometry)
        assert pair_sum(nil, f, profile) == 0.0 == pair_sum(f, nil, profile)

    def test_torus_pair_sum_takes_the_quotient_metric(self):
        geo = LatticeGeometry.torus(1, half_side=3)
        profile = DecayProfile(1, epsilon=1.0)
        f, g = Field.delta(geo, (3,)), Field.delta(geo, (-2,))
        assert pair_sum(f, g, profile) == profile.value(1)

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

    def test_a_non_finite_or_overflowing_time_is_a_named_error(self):
        geo = LatticeGeometry.infinite(1)
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        f, g = Field.delta(geo, (0,)), Field.delta(geo, (2,))
        with pytest.raises(DomainError, match="t must be finite"):
            harmonic_bound_rhs(f, g, math.nan, cert, profile)
        # e^{v_a |t|} leaves the float range; this was a bare OverflowError
        with pytest.raises(DomainError, match=r"rate .* and \|t\| = 1000"):
            harmonic_bound_rhs(f, g, 1e3, cert, profile)


class TestConeScan:
    def test_values_match_direct_commutators(self):
        scan = cone_scan(MASSLESS, 6, (0.5, 1.0))
        geo = LatticeGeometry.infinite(1, window_radius=6)
        f = Field.delta(geo, (0,) )
        assert scan.sites is ball_sites(1, 6)
        j = scan.sites.tolist().index([3])
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
        tight = estimate_velocity(scan)
        loose = estimate_velocity(replace(scan, threshold=0.01))
        assert abs(tight.v_emp - loose.v_emp) <= 0.2
        assert 1.8 <= loose.v_emp <= 2.2

    def test_scan_guards(self):
        with pytest.raises(DomainError):
            cone_scan(MASSLESS, 0, (1.0,))
        with pytest.raises(DomainError):
            cone_scan(MASSLESS, 4, (1.0,), threshold=2.5)

    def test_non_integer_x_max_is_a_domain_error(self):
        with pytest.raises(DomainError, match="radius"):
            cone_scan(MASSLESS, 2.5, [1.0, 2.0])

    def test_empty_time_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match="time grid"):
            cone_scan(MASSLESS, 4, ())

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-5])
    @pytest.mark.parametrize("omega", [0.0, 0.6])
    @pytest.mark.parametrize("d, x_max", [(1, 5), (1, 30), (2, 4), (2, 12)])
    def test_matches_one_evolved_field_per_slice(self, d, x_max, omega, tolerance):
        # x_max 30 and 12 reach past the certified ball of the early slices
        params = HarmonicParameters(omega=omega, couplings=(1.0, 0.7)[:d])
        t_grid = (0.2, 1.0, 2.5) if d == 1 else (0.2, 1.1)
        scan = cone_scan(params, x_max, t_grid, tolerance=tolerance)
        assert scan.values.tobytes() == _per_slice_cone(params, x_max, t_grid, tolerance).tobytes()


# The cone scan as one evolved Field per time slice, read at the probes
# through Field._values_at; the scan must reproduce it bit for bit.
def _per_slice_cone(params, x_max, t_grid, tolerance):
    d = params.dimension
    sites = ball_sites(d, x_max)
    rows = []
    for t in t_grid:
        delta = Field.delta(LatticeGeometry.infinite(d), (0,) * d)
        val = apply_propagator_convolution(delta, params, t, tolerance=tolerance)._values_at(sites)
        against_real = 1.0 - np.exp(-1.0j * val.imag)
        against_imag = 1.0 - np.exp(1.0j * val.real)
        rows.append(
            np.maximum(
                np.hypot(against_real.real, against_real.imag),
                np.hypot(against_imag.real, against_imag.imag),
            )
        )
    return np.vstack(rows)


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
            sites=sites,
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

    def test_scans_compare_by_identity(self):
        # array fields have no single truth value, so a field-wise __eq__ would raise
        a = self._synthetic(6, (1.0, 2.0), lambda t: t)
        b = self._synthetic(6, (1.0, 2.0), lambda t: t)
        assert a == a
        assert a != b

    def test_all_quiet_raises(self):
        sites = ball_sites(1, 5)
        values = np.full((4, len(sites)), 1e-9)
        scan = ConeScan(sites, (1.0, 2.0, 3.0, 4.0), values, 0.1)
        with pytest.raises(DomainError):
            estimate_velocity(scan)


class TestSpotCheck:
    def test_random_triples_stay_under_the_bound(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        worst = spot_check_certificate(CHAIN, cert, profile, trials=30, seed=0)
        assert worst < 1.0

    def test_a_one_site_support_is_valid(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        assert 0.0 < spot_check_certificate(CHAIN, cert, profile, trials=5, support_radius=0) < 1.0
        with pytest.raises(DomainError, match="radius"):
            spot_check_certificate(CHAIN, cert, profile, trials=5, support_radius=-1)

    def test_seed_reproducibility(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        a = spot_check_certificate(CHAIN, cert, profile, trials=10, seed=42)
        b = spot_check_certificate(CHAIN, cert, profile, trials=10, seed=42)
        assert a == b

    @pytest.mark.parametrize("support_radius", [0, 4])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_one_propagation_per_trial(self, d, seed, support_radius):
        params = HarmonicParameters(omega=0.8, couplings=(1.0, 0.6)[:d])
        profile = DecayProfile(d, epsilon=1.0, rate=1.0)
        cert = derive_constants(params, 1.0, profile)
        trials = 12 if d == 1 else 4
        kwargs = dict(trials=trials, support_radius=support_radius, t_max=1.5, seed=seed)
        got = spot_check_certificate(params, cert, profile, **kwargs)
        assert got == _per_trial_spot_check(params, cert, profile, **kwargs)

    def test_a_batch_of_trials_samples_each_grid_level_once(self, monkeypatch):
        calls = []
        real_samples = harmonic._kernel_samples

        def counted(params, times, sites, points, ms):
            calls.append((len(times), points))
            return real_samples(params, times, sites, points, ms)

        monkeypatch.setattr(harmonic, "_kernel_samples", counted)
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        spot_check_certificate(CHAIN, cert, profile, trials=40, seed=3)
        levels = [points for _, points in calls]
        assert len(levels) == len(set(levels)) < 40
        assert sum(n for n, points in calls if points == min(levels)) > 1

    def test_t_max_zero_is_valid(self):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        kwargs = dict(trials=6, t_max=0.0, seed=4)
        worst = spot_check_certificate(CHAIN, cert, profile, **kwargs)
        assert worst == _per_trial_spot_check(CHAIN, cert, profile, support_radius=4, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"trials": 0}, "trials"),  # once returned 0.0, which read as confirmed
            ({"trials": 1.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"t_max": math.nan}, "t_max"),
            ({"t_max": math.inf}, "t_max"),
            # numpy's bare "high - low < 0" and "range exceeds valid bounds"
            ({"t_max": -1.0}, "t_max"),
            ({"t_max": 1e308}, "t_max"),
        ],
    )
    def test_a_vacuous_or_non_finite_sample_is_a_named_error(self, kwargs, named):
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = derive_constants(CHAIN, 1.0, profile)
        with pytest.raises(DomainError, match=named):
            spot_check_certificate(CHAIN, cert, profile, **kwargs)


# The spot check as one propagation per trial: labels through the Field
# constructor, T_t f as a whole evolved Field, and sigma through
# symplectic_form; the batched check must reproduce it bit for bit.
def _per_trial_spot_check(params, cert, profile, trials, support_radius, t_max, seed):
    rng = np.random.default_rng(seed)
    geometry = LatticeGeometry.infinite(params.dimension)
    sites = ball_sites(params.dimension, support_radius)

    def random_field():
        picks = rng.choice(len(sites), size=min(3, len(sites)), replace=False)
        entries = {}
        for idx in picks:
            entries[tuple(sites[int(idx)].tolist())] = complex(rng.normal(), rng.normal())
        return Field(geometry, entries)

    worst = 0.0
    for _ in range(trials):
        t = float(rng.uniform(-t_max, t_max))
        f = random_field()
        g = random_field()
        moved = apply_propagator_convolution(f, params, t)
        lhs = abs(symplectic_form(moved, g))
        rhs = harmonic_bound_rhs(f, g, t, cert, profile)
        worst = max(worst, lhs / rhs)
    return worst
