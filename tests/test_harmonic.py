"""Dispersion, kernel, and propagator tests.

The strongest checks compare the FFT-quadrature kernels against two
independent oracles: the classical Bessel closed form for the massless
chain, and adaptive Gauss-Kronrod integration of the Brillouin-zone
integral for massive parameters.  Everything else is exact structure:
group laws, symplectic invariance, and certified truncation windows.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from realspace import NormalModes, torus_stiffness

from lrlattice import (
    DomainError,
    Field,
    GeometryMismatchError,
    HarmonicParameters,
    LatticeGeometry,
    QuadratureConvergenceError,
    QuadratureSpec,
    SingularModeError,
    WindowCertificationError,
    apply_propagator_convolution,
    apply_propagator_torus,
    bogoliubov_multipliers,
    certified_window,
    commutator_norm,
    compute_kernel,
    compute_kernels,
    envelope_prefactor,
    envelope_speed,
    gamma,
    kernel_envelope,
    symplectic_form,
)
from lrlattice import harmonic
from lrlattice.harmonic import MAX_REFINEMENTS, MU_GRID, _truncation_tails

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))
# A stiff chain at t = 5.75 is still converging on the last grid that a
# window-3 kernel started at 8 points reaches (8 * 2**MAX_REFINEMENTS = 512):
# 256 and 512 points differ by about 1.3e-9 (m = -1), 2.4e-8 (m = 0) and
# 4.4e-7 (m = 1).
STIFF = HarmonicParameters(omega=1.0, couplings=(400.0,))
STIFF_T = 5.75


class TestParametersAndDispersion:
    def test_dispersion_hand_values(self):
        assert gamma(CHAIN, (0.0,)) == 1.0
        assert gamma(CHAIN, (math.pi,)) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert gamma(MASSLESS, (math.pi,)) == pytest.approx(2.0, rel=1e-15)
        two_d = HarmonicParameters(omega=2.0, couplings=(1.0, 3.0))
        assert gamma(two_d, (math.pi, math.pi)) == pytest.approx(
            math.sqrt(4.0 + 4.0 + 12.0), rel=1e-15
        )

    def test_max_frequency_is_band_top(self):
        assert CHAIN.max_frequency == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert MASSLESS.max_frequency == 2.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            HarmonicParameters(omega=-1.0, couplings=(1.0,))
        with pytest.raises(DomainError):
            HarmonicParameters(omega=1.0, couplings=())
        with pytest.raises(DomainError):
            HarmonicParameters(omega=1.0, couplings=(-0.5,))
        with pytest.raises(DomainError):
            HarmonicParameters(omega=0.0, couplings=(0.0,))

    @pytest.mark.parametrize(
        "omega, couplings",
        [(math.nan, (1.0,)), (math.inf, (1.0,)), (1.0, (math.nan,)), (1.0, (1.0, math.inf))],
    )
    def test_non_finite_parameters_rejected(self, omega, couplings):
        with pytest.raises(DomainError, match="finite"):
            HarmonicParameters(omega=omega, couplings=couplings)

    def test_gamma_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            gamma(CHAIN, (0.1, 0.2))

    @pytest.mark.parametrize("omega", [0.25, 1.0, 3.0])
    def test_bogoliubov_identity(self, omega):
        params = HarmonicParameters(omega=omega, couplings=(1.0,))
        for k in np.linspace(-math.pi, math.pi, 17):
            plus, minus = bogoliubov_multipliers(params, (k,))
            assert (plus**2 - minus**2) / 4.0 == pytest.approx(1.0, abs=1e-13)

    def test_bogoliubov_singular_at_massless_origin(self):
        with pytest.raises(SingularModeError):
            bogoliubov_multipliers(MASSLESS, (0.0,))


class TestField:
    def test_zero_entries_are_dropped(self):
        geo = LatticeGeometry.infinite(1)
        f = Field(geo, {(0,): 1.0, (1,): 0.0})
        assert f.support() == ((0,),)
        g = f + Field.delta(geo, (0,), -1.0)
        assert g.is_zero()

    def test_arithmetic_and_norms(self):
        geo = LatticeGeometry.infinite(1)
        f = Field(geo, {(0,): 3.0 + 4.0j, (2,): 1.0})
        assert f.norm_l1() == 6.0
        assert f.norm_l2() == pytest.approx(math.sqrt(26.0), rel=1e-15)
        assert (2.0 * f).value((0,)) == 6.0 + 8.0j
        assert (-f).value((2,)) == -1.0
        assert f.conjugate().value((0,)) == 3.0 - 4.0j
        assert f.support_radius() == 2

    def test_inner_is_antilinear_in_first_argument(self):
        geo = LatticeGeometry.infinite(1)
        f = Field(geo, {(0,): 1.0 + 1.0j})
        g = Field(geo, {(0,): 2.0}        )
        assert f.inner(g) == (1.0 - 1.0j) * 2.0
        assert (1j * f).inner(g) == -1j * f.inner(g)

    def test_symplectic_form_is_antisymmetric(self):
        geo = LatticeGeometry.infinite(1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = Field(geo, {(i,): complex(*rng.normal(size=2)) for i in range(-2, 3)})
            g = Field(geo, {(i,): complex(*rng.normal(size=2)) for i in range(-2, 3)})
            assert symplectic_form(f, g) == pytest.approx(-symplectic_form(g, f), abs=1e-15)
            assert symplectic_form(f, f) == pytest.approx(0.0, abs=1e-15)

    def test_dense_round_trip(self):
        geo = LatticeGeometry.torus(1, half_side=2)
        f = Field(geo, {(0,): 1.0j, (-1,): 2.0, (2,): -1.0})
        assert Field.from_dense(geo, f.to_dense()).max_abs_diff(f) == 0.0

    def test_geometry_mismatch_raises(self):
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        g = Field.delta(LatticeGeometry.torus(1, half_side=4), (0,))
        with pytest.raises(GeometryMismatchError):
            f + g
        with pytest.raises(GeometryMismatchError):
            symplectic_form(f, g)


class TestKernelIdentityAtZero:
    @pytest.mark.parametrize("params", [CHAIN, MASSLESS, HarmonicParameters(2.0, (1.0, 1.0))])
    def test_kernel_at_t_zero(self, params):
        window = 6
        k0 = compute_kernel(params, 0, 0.0, window)
        for site in map(tuple, k0.sites.tolist()):
            expected = 1.0 if all(c == 0 for c in site) else 0.0
            assert abs(k0.value(site) - expected) < 1e-12
        for m in (-1, 1):
            km = compute_kernel(params, m, 0.0, window)
            assert float(np.max(np.abs(km.samples))) < 1e-12


class TestKernelAgainstBesselOracle:
    """Massless chain: H_t^(0)(x) = J_{2|x|}(4t), the discrete wave kernel."""

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_cosine_kernel_is_even_bessel(self, t):
        kernel = compute_kernel(MASSLESS, 0, t, 12)
        for x in range(-4, 5):
            expected = scipy.special.jv(2 * abs(x), 4.0 * t)
            assert kernel.value((x,)) == pytest.approx(expected, abs=2e-10)

    @pytest.mark.parametrize("x,t", [(0, 0.8), (1, 0.8), (2, 1.7)])
    def test_inverse_kernel_integrates_bessel(self, x, t):
        # d/dt H^(-1) = -2 H^(0) with H^(-1)_0 = 0, so the m = -1 kernel is
        # -2 times the running integral of J_{2x}(4s).
        expected, quad_err = scipy.integrate.quad(
            lambda s: -2.0 * scipy.special.jv(2 * x, 4.0 * s), 0.0, t, epsabs=1e-13
        )
        kernel = compute_kernel(MASSLESS, -1, t, 10)
        assert kernel.value((x,)) == pytest.approx(expected, abs=1e-9 + 10 * quad_err)

    @pytest.mark.parametrize("x,t", [(0, 0.8), (2, 1.2)])
    def test_derivative_kernel_integrates_bessel_stencil(self, x, t):
        # d/dt H^(+1)(x) = -2 (2 H^(0)(x) - H^(0)(x-1) - H^(0)(x+1)).
        def rate(s):
            z = 4.0 * s
            return -2.0 * (
                2.0 * scipy.special.jv(2 * x, z)
                - scipy.special.jv(2 * (x - 1), z)
                - scipy.special.jv(2 * (x + 1), z)
            )

        expected, quad_err = scipy.integrate.quad(rate, 0.0, t, epsabs=1e-13)
        kernel = compute_kernel(MASSLESS, 1, t, 10)
        assert kernel.value((x,)) == pytest.approx(expected, abs=1e-9 + 10 * quad_err)


class TestKernelAgainstAdaptiveQuadrature:
    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("x", [0, 1, 3])
    def test_massive_chain_kernel(self, m, x):
        t = 0.7
        omega = 1.5

        def integrand(k):
            g = math.sqrt(omega**2 + 4.0 * math.sin(k / 2.0) ** 2)
            if m == 0:
                return math.cos(2.0 * g * t) * math.cos(k * x) / math.pi
            pref = g if m == 1 else 1.0 / g
            return -pref * math.sin(2.0 * g * t) * math.cos(k * x) / math.pi

        expected, quad_err = scipy.integrate.quad(integrand, 0.0, math.pi, epsabs=1e-13)
        params = HarmonicParameters(omega=omega, couplings=(1.0,))
        kernel = compute_kernel(params, m, t, 8)
        assert kernel.value((x,)) == pytest.approx(expected, abs=1e-9 + 10 * quad_err)


class TestKernelStructure:
    def test_kernel_is_even_in_x(self):
        kernel = compute_kernel(CHAIN, 0, 1.3, 10)
        for x in range(1, 11):
            assert kernel.value((x,)) == pytest.approx(kernel.value((-x,)), abs=1e-14)

    def test_two_dimensional_symmetry(self):
        params = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0))
        kernel = compute_kernel(params, 0, 0.8, 5)
        assert kernel.value((2, 1)) == pytest.approx(kernel.value((1, 2)), abs=1e-13)
        assert kernel.value((2, 1)) == pytest.approx(kernel.value((-2, -1)), abs=1e-13)

    def test_refinement_estimate_is_honest(self):
        # recomputing from a finer starting grid moves values by no more
        # than a small multiple of the recorded estimate
        quad = QuadratureSpec(points_per_axis=64)
        coarse = compute_kernel(CHAIN, 0, 2.0, 8, quad)
        fine = compute_kernel(CHAIN, 0, 2.0, 8, QuadratureSpec(points_per_axis=512))
        drift = float(np.max(np.abs(coarse.samples - fine.samples)))
        assert drift <= 10.0 * max(coarse.est_quadrature_error, 1e-15)

    def test_nonconvergence_carries_best_kernel(self):
        quad = QuadratureSpec(points_per_axis=8, refinement_tolerance=5e-9)
        with pytest.raises(QuadratureConvergenceError) as info:
            compute_kernel(STIFF, 0, STIFF_T, 3, quad)
        assert info.value.best is not None
        assert info.value.best.samples.shape == (7,)
        assert info.value.best.points_per_axis == 8 * 2**MAX_REFINEMENTS
        assert 5e-9 < info.value.best.est_quadrature_error < 1e-6

    def test_no_room_to_refine_fails_before_sampling(self, monkeypatch):
        # In d = 3 the grid cap is 256 points per axis; a starting grid of 256
        # leaves no refinement, so no error estimate could ever be reached.
        calls = []
        real_samples = harmonic._kernel_samples

        def counted(*args):
            calls.append(args)
            return real_samples(*args)

        monkeypatch.setattr(harmonic, "_kernel_samples", counted)
        cube = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0, 1.0))
        with pytest.raises(QuadratureConvergenceError) as info:
            compute_kernel(cube, 0, 1.0, 2, QuadratureSpec(points_per_axis=256))
        assert calls == []
        assert info.value.best is None
        message = str(info.value)
        assert "window 2" in message and "256 points" in message and "cap of 256" in message
        # the same holds when the certified window alone forces the grid up
        with pytest.raises(QuadratureConvergenceError):
            compute_kernel(cube, 0, 1.0, 64)
        assert calls == []
        # a grid that can still double is sampled as before
        compute_kernel(cube, 0, 0.0, 1, QuadratureSpec(points_per_axis=8))
        assert len(calls) >= 2

    def test_kernels_compare_by_identity(self):
        # different starting grids: the fields agree up to ``samples``, whose
        # arrays have no single truth value, so a field-wise __eq__ would raise
        a = compute_kernel(CHAIN, 0, 0.5, 3)
        b = compute_kernel(CHAIN, 0, 0.5, 3, QuadratureSpec(points_per_axis=128))
        assert a == a
        assert a != b

    def test_value_outside_window_raises(self):
        kernel = compute_kernel(CHAIN, 0, 0.5, 3)
        with pytest.raises(DomainError):
            kernel.value((4,))

    def test_value_reads_the_row_of_the_shared_ball(self):
        kernel = compute_kernel(CHAIN, 0, 0.5, 3)
        assert kernel.sites is harmonic.ball_sites(1, 3)
        for row, site in enumerate(kernel.sites.tolist()):
            assert kernel.value(site) == kernel.samples[row] == kernel.value(np.int64(site[0]))

    @pytest.mark.parametrize("site", [(2.7,), 2.7, True, (True,), (np.float64(2.0),), (1, 0)])
    def test_value_rejects_non_integer_sites(self, site):
        kernel = compute_kernel(CHAIN, 0, 0.5, 3)
        with pytest.raises(DomainError):
            kernel.value(site)

    def test_non_integer_window_is_a_domain_error(self):
        with pytest.raises(DomainError):
            compute_kernel(CHAIN, 0, 1.0, 2.5)


# The quadrature on whole grids: gamma, each kernel's product and one full
# out-of-place ifftn.  The slabbed, pruned samples must equal it bit for bit.
def _full_ifftn_samples(params, t, sites, points, ms):
    d = params.dimension
    axis = harmonic._offset_axis(points)
    total = np.zeros((points,) * d)
    for j in range(d):
        shape = [1] * d
        shape[j] = points
        total = total + (4.0 * params.couplings[j] * np.sin(axis / 2.0) ** 2).reshape(shape)
    gam = np.sqrt(params.omega**2 + total)
    phase = np.exp(np.multiply(np.multiply(-2j, gam), t))
    base = np.exp(1j * (np.pi / points - np.pi))
    shift = np.ones(len(sites), dtype=complex)
    for j in range(d):
        shift = shift * base ** sites[:, j]
    out = {}
    for m in (1, -1, 0):
        if m in ms:
            grid = {1: gam * phase, -1: (1.0 / gam) * phase, 0: phase}[m]
            vals = np.fft.ifftn(grid)[tuple((sites % points).T)] * shift
            out[m] = np.real(vals) if m == 0 else np.imag(vals)
    return out


# The per-index doubling loop on fresh, out-of-place grids (gamma, phase and
# FFT rebuilt for every kernel); the shared in-place loop must reproduce it
# bit for bit.
def _reference_kernel(params, m, t, window, quad):
    d = params.dimension
    sites = harmonic.ball_sites(d, window)
    max_points = max(int(round((2**24) ** (1.0 / d))), 16)

    def sample(points):
        return _full_ifftn_samples(params, t, sites, points, (m,))[m]

    points = quad.points_per_axis + quad.points_per_axis % 2
    while points < 2 * (window + 1):
        points *= 2
    prev, achieved, refinements = sample(points), math.inf, 0
    while refinements < MAX_REFINEMENTS and 2 * points <= max_points:
        points, refinements = 2 * points, refinements + 1
        cur = sample(points)
        achieved, prev = float(np.max(np.abs(cur - prev))), cur
        if achieved <= quad.refinement_tolerance:
            break
    return prev, points, achieved


def _same_kernel(a, b):
    return (
        a.m == b.m
        and np.array_equal(a.sites, b.sites)
        and a.samples.tobytes() == b.samples.tobytes()
        and a.points_per_axis == b.points_per_axis
        and a.est_quadrature_error == b.est_quadrature_error
    )


class TestSharedKernelQuadrature:
    QUAD = QuadratureSpec(points_per_axis=16, refinement_tolerance=1e-9)

    @pytest.mark.parametrize("ms", [(-1, 0, 1), (0,)])
    @pytest.mark.parametrize("omega", [0.0, 1.3])
    @pytest.mark.parametrize("d,window", [(1, 9), (2, 5), (3, 3)])
    def test_matches_single_index_calls_bit_for_bit(self, d, window, omega, ms):
        params = HarmonicParameters(omega=omega, couplings=(1.0, 0.8, 1.2)[:d])
        shared = compute_kernels(params, 0.9, window, self.QUAD, ms)
        assert list(shared) == list(ms)
        for m in ms:
            assert _same_kernel(shared[m], compute_kernel(params, m, 0.9, window, self.QUAD))
            samples, points, achieved = _reference_kernel(params, m, 0.9, window, self.QUAD)
            assert shared[m].samples.tobytes() == samples.tobytes()
            assert (shared[m].points_per_axis, shared[m].est_quadrature_error) == (points, achieved)
            assert shared[m].radii().tolist() == [sum(map(abs, s)) for s in shared[m].sites.tolist()]

    @pytest.mark.parametrize("ms", [(-1, 0, 1), (1, 0, -1), (-1, 1)])
    @pytest.mark.parametrize(
        "tolerance, converged",
        [
            pytest.param(5e-9, {-1}, id="only-m-1-converges"),
            pytest.param(1e-7, {-1, 0}, id="m1-does-not-converge"),
            pytest.param(1e-12, set(), id="none-converge"),
        ],
    )
    def test_unconverged_index_raises_as_it_does_alone(self, tolerance, converged, ms):
        quad = QuadratureSpec(points_per_axis=8, refinement_tolerance=tolerance)
        alone = {}
        for m in ms:
            try:
                alone[m] = compute_kernel(STIFF, m, STIFF_T, 3, quad)
            except QuadratureConvergenceError as err:
                alone[m] = err
        assert {m for m in ms if not isinstance(alone[m], Exception)} == converged & set(ms)
        first = next(alone[m] for m in ms if isinstance(alone[m], QuadratureConvergenceError))
        with pytest.raises(QuadratureConvergenceError) as info:
            compute_kernels(STIFF, STIFF_T, 3, quad, ms)
        assert str(info.value) == str(first)
        assert _same_kernel(info.value.best, first.best)
        for m in ms:
            expected = alone[m].best if isinstance(alone[m], QuadratureConvergenceError) else alone[m]
            assert _same_kernel(info.value.kernels[m], expected)

    def test_transforms_run_in_place(self):
        # One slab's gamma (8 bytes a node), phase and work buffer (16 each),
        # at most 16 more a node for its first pruned copy, and each kernel's
        # (P, K, K) buffer of kept residues; nothing grows like P^3.  The
        # full grids need 40 bytes a node: 84 MB here, against about 4 MB.
        cube = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            kernels = compute_kernels(cube, 1.0, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        finest = max(k.points_per_axis for k in kernels.values())
        assert finest**3 > 8 * harmonic.SLAB_NODES
        kept = 2 * 6 + 1
        assert peak <= 56 * harmonic.SLAB_NODES + 3 * 16 * finest * kept**2

    def test_an_empty_index_list_is_refused_before_sampling(self, monkeypatch):
        # it once built the full gamma and phase grids and returned {}
        calls = []
        monkeypatch.setattr(harmonic, "_gamma_grid", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="at least one kernel index"):
            compute_kernels(CHAIN, 1.0, 4, ms=())
        assert calls == []

    def test_a_bad_index_is_refused_before_the_cap_check(self):
        # window 64 in d = 3 is past the grid cap, which once answered first
        cube = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match="must be -1, 0, or 1"):
            compute_kernels(cube, 1.0, 64, ms=(0, 2))
        with pytest.raises(QuadratureConvergenceError):
            compute_kernels(cube, 1.0, 64, ms=(0,))


class TestSlabbedKernelSamples:
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["1-row", "3-rows", "one-slab"])
    @pytest.mark.parametrize("ms", [(1, 0, -1), (-1, 1), (0,)])
    @pytest.mark.parametrize(
        "d, points, window",
        [(1, 16, 7), (2, 16, 2), (2, 16, 7), (3, 16, 7), (3, 64, 8)],
        ids=["d1-edge", "d2", "d2-edge", "d3-edge", "d3-window8"],
    )
    @pytest.mark.parametrize("omega, t", [(0.0, 0.9), (1.3, 0.0), (1.3, 0.9)])
    def test_matches_the_full_ifftn_bit_for_bit(
        self, rows, ms, d, points, window, omega, t, monkeypatch
    ):
        # "edge" windows reach points/2 - 1, the last site the grid resolves;
        # 3 rows do not divide the grid, so the last slab is short
        monkeypatch.setattr(harmonic, "SLAB_NODES", (rows or points) * points ** (d - 1))
        params = HarmonicParameters(omega=omega, couplings=(1.0, 0.8, 1.2)[:d])
        sites = harmonic.ball_sites(d, window)
        got = harmonic._kernel_samples(params, t, sites, points, ms)
        expected = _full_ifftn_samples(params, t, sites, points, ms)
        assert list(got) == list(expected)
        for m in ms:
            assert got[m].tobytes() == expected[m].tobytes()


class TestEnvelopes:
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0])
    def test_speed_and_prefactor_formulas(self, mu):
        c = CHAIN.max_frequency
        assert envelope_speed(CHAIN, mu) == c * max(2.0 / mu, math.exp(mu / 2.0 + 1.0))
        assert envelope_prefactor(CHAIN, mu) == 1.0 + 2.0 * math.exp(mu / 2.0) * c + 2.0 / c

    def test_pointwise_envelope_composition(self):
        mu, t = 1.0, 0.7
        c = CHAIN.max_frequency
        r = np.array([0.0, 3.0, 10.0])
        for m, coef in ((0, 1.0), (1, c * math.exp(mu / 2.0)), (-1, 1.0 / c)):
            out = kernel_envelope(CHAIN, m, mu, r, t)
            expected = coef * np.exp(-mu * (r - envelope_speed(CHAIN, mu) * t))
            assert np.allclose(out, expected, rtol=1e-14)

    def test_envelope_dominates_kernel_samples(self):
        kernel = compute_kernel(CHAIN, 0, 1.0, 24)
        bound = kernel_envelope(CHAIN, 0, 1.0, kernel.radii(), 1.0)
        assert np.all(np.abs(kernel.samples) <= bound + 1e-9)


class TestCertifiedWindow:
    def test_window_grows_as_tolerance_shrinks(self):
        windows = [certified_window(CHAIN, 1.0, tol) for tol in (1e-4, 1e-8, 1e-12)]
        assert windows == sorted(windows)
        assert windows[0] >= 1

    def test_certificate_actually_truncates(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        minimal = certified_window(MASSLESS, 1.5, 0.5e-8)
        tight = apply_propagator_convolution(f, MASSLESS, 1.5, tolerance=1e-8)
        wide = apply_propagator_convolution(f, MASSLESS, 1.5, tolerance=1e-12)
        assert tight.support_radius() == minimal < wide.support_radius()
        sites = set(tight.support()) | set(wide.support())
        diffs = sorted(abs(wide.value(s) - tight.value(s)) for s in sites)
        assert math.fsum(diffs) <= 2e-8

    def test_unreachable_tolerance_raises(self):
        # at t = 200 every envelope rate of MU_GRID grows past e^700
        with pytest.raises(WindowCertificationError) as info:
            certified_window(CHAIN, 200.0, 1e-10)
        assert info.value.minimal_window == 4097
        assert "no window up to 4096" in str(info.value)


# A scalar copy of the envelope tail and the window search, without caches;
# the library's memoized versions must reproduce it bit for bit.
def _reference_shell_count(d, r):
    if r == 0:
        return 1
    return sum(2**k * math.comb(d, k) * math.comb(r - 1, k - 1) for k in range(1, min(d, r) + 1))


def _reference_exp_shell_tail(d, mu, window):
    total = 0.0
    r = window + 1
    term = _reference_shell_count(d, r) * math.exp(-mu * r)
    while term > 0.0:
        total += term
        nxt = _reference_shell_count(d, r + 1) * math.exp(-mu * (r + 1))
        ratio = nxt / term
        if ratio < 1.0 and nxt < 1e-18 * max(total, 1e-300):
            total += nxt / (1.0 - ratio)
            break
        r += 1
        term = nxt
    return total


def _reference_truncation_tail(params, t, window, mu):
    c = params.max_frequency
    coef = 1.0 + 1.0 / c + c * math.exp(mu / 2.0)
    grow = mu * envelope_speed(params, mu) * abs(t)
    if grow > 700:
        return math.inf
    return coef * math.exp(grow) * _reference_exp_shell_tail(params.dimension, mu, window)


def _reference_certified_window(params, t, tolerance, l1_norm, max_window=4096):
    budget = tolerance / max(l1_norm, 1e-300)
    best = None
    for mu in MU_GRID:
        if _reference_truncation_tail(params, t, max_window, mu) > budget:
            continue
        lo, hi = 0, max_window
        while lo < hi:
            mid = (lo + hi) // 2
            if _reference_truncation_tail(params, t, mid, mu) <= budget:
                hi = mid
            else:
                lo = mid + 1
        if best is None or lo < best:
            best = lo
    return best


PINNED_PARAMS = [
    HarmonicParameters(omega=omega, couplings=couplings)
    for couplings in ((1.0,), (0.5, 1.5), (1.0, 0.25, 2.0))
    for omega in (1.0, 0.3, 0.0)
]


class TestPinnedWindow:
    @pytest.mark.parametrize("params", PINNED_PARAMS)
    def test_truncation_tail_is_bit_identical(self, params):
        for mu in MU_GRID:
            for t in (0.0, 0.7, 2.5):
                for window in (0, 1, 7, 40, 300, 2048, 4096):
                    expected = _reference_truncation_tail(params, t, window, mu)
                    assert _truncation_tails(params, t, mu)(window) == expected

    @pytest.mark.parametrize("params", PINNED_PARAMS)
    def test_certified_window_is_identical(self, params):
        for t in (0.0, 0.7, 2.5):
            for tolerance in (1e-4, 1e-10):
                for l1 in (1.0, 12.5):
                    expected = _reference_certified_window(params, t, tolerance, l1)
                    assert certified_window(params, t, tolerance, l1) == expected


class TestDecoupledClosedForm:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_single_site_rotation(self, omega, t):
        params = HarmonicParameters(omega=omega, couplings=(0.0, 0.0))
        geo = LatticeGeometry.infinite(2)
        f = Field(geo, {(0, 0): 0.7 - 0.2j, (1, -1): 0.1 + 0.4j})
        moved = apply_propagator_convolution(f, params, t)
        c, s = math.cos(2.0 * omega * t), math.sin(2.0 * omega * t)
        for site, val in f.items_sorted():
            expected = complex(
                c * val.real - omega * s * val.imag,
                s * val.real / omega + c * val.imag,
            )
            assert abs(moved.value(site) - expected) < 1e-10
        assert set(moved.support()) == set(f.support())


class TestPropagatorAgreement:
    def test_torus_matches_convolution_inside_window(self):
        geo = LatticeGeometry.torus(1, half_side=32)
        f = Field(geo, {(0,): 0.8 + 0.1j, (1,): -0.3j})
        t = 2.0
        on_torus = apply_propagator_torus(f, CHAIN, t)
        inf_geo = LatticeGeometry.infinite(1)
        g = Field(inf_geo, {(0,): 0.8 + 0.1j, (1,): -0.3j})
        on_line = apply_propagator_convolution(g, CHAIN, t, tolerance=1e-12)
        for x in range(-8, 9):
            assert abs(on_torus.value((x,)) - on_line.value((x,))) < 1e-9

    def test_group_law_on_torus(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        f = Field(geo, {(0,): 1.0 - 0.5j, (3,): 0.2 + 0.2j})
        one = apply_propagator_torus(f, CHAIN, 1.7)
        two = apply_propagator_torus(apply_propagator_torus(f, CHAIN, 0.9), CHAIN, 0.8)
        assert one.max_abs_diff(two) < 1e-12

    def test_inverse_recovers_input(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        f = Field(geo, {(0,): 1.0j, (2,): 0.5})
        back = apply_propagator_torus(apply_propagator_torus(f, CHAIN, 1.1), CHAIN, -1.1)
        assert back.max_abs_diff(f) < 1e-12

    def test_symplectic_invariance(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = Field(geo, {(i,): complex(*rng.normal(size=2)) for i in range(-2, 3)})
            g = Field(geo, {(i,): complex(*rng.normal(size=2)) for i in range(4, 8)})
            before = symplectic_form(f, g)
            t = float(rng.uniform(-2.0, 2.0))
            after = symplectic_form(
                apply_propagator_torus(f, CHAIN, t), apply_propagator_torus(g, CHAIN, t)
            )
            assert after == pytest.approx(before, abs=1e-10)


class TestMasslessZeroMode:
    @pytest.mark.parametrize(
        "couplings, half_side",
        [
            pytest.param((1.0,), 6, id="d1"),
            pytest.param((0.8, 1.3), 4, id="d2"),
            pytest.param((0.4, 1.0, 0.8), 3, id="d3"),
        ],
    )
    @pytest.mark.parametrize("t", [0.37, 1.9, -3.1])
    def test_nonzero_mean_labels_match_normal_modes(self, couplings, half_side, t):
        # The dynamics needs no zero mean: the zero mode keeps its position
        # part u0 and its momentum part moves to v0 + 2 t u0.
        params = HarmonicParameters(omega=0.0, couplings=couplings)
        d = params.dimension
        geo = LatticeGeometry.torus(d, half_side=half_side)
        modes = NormalModes(torus_stiffness(0.0, couplings, half_side))
        rng = np.random.default_rng(half_side)
        shape = (geo.extent,) * d
        dense = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sparse = np.zeros(shape, dtype=complex)
        sparse[(0,) * d] = 0.5 + 0.2j
        sparse[(1,) + (0,) * (d - 1)] = 0.1
        for label in (dense / np.linalg.norm(dense), sparse):
            assert abs(label.real.sum()) > 0.1
            moved = apply_propagator_torus(Field.from_dense(geo, label), params, t)
            assert np.abs(moved.to_dense() - modes.evolve(label, t)).max() <= 1e-14

    def test_zero_mean_evolves_and_inverts(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        f = Field(geo, {(0,): 1.0 + 0.3j, (1,): -1.0 + 0.1j})
        moved = apply_propagator_torus(f, MASSLESS, 0.9)
        back = apply_propagator_torus(moved, MASSLESS, -0.9)
        assert back.max_abs_diff(f) < 1e-12

    def test_pure_imaginary_mean_is_allowed(self):
        # only the position (real) part must be mean-free at omega = 0
        geo = LatticeGeometry.torus(1, half_side=8)
        f = Field(geo, {(0,): 1.0j})
        moved = apply_propagator_torus(f, MASSLESS, 0.4)
        back = apply_propagator_torus(moved, MASSLESS, -0.4)
        assert back.max_abs_diff(f) < 1e-12

    def test_massless_infinite_lattice_is_fine(self):
        geo = LatticeGeometry.infinite(1)
        moved = apply_propagator_convolution(Field.delta(geo, (0,)), MASSLESS, 1.0)
        assert moved.value((0,)).real == pytest.approx(scipy.special.jv(0, 4.0), abs=1e-9)


class TestConvolutionPropagator:
    def test_tolerance_controls_truncation(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,), 2.0)
        rough = apply_propagator_convolution(f, CHAIN, 1.0, tolerance=1e-4)
        sharp = apply_propagator_convolution(f, CHAIN, 1.0, tolerance=1e-12)
        assert rough.support_radius() <= sharp.support_radius()
        diffs = [abs(sharp.value(s) - rough.value(s)) for s in sharp.support()]
        assert math.fsum(diffs) < 2e-4

    def test_torus_field_rejected(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        with pytest.raises(GeometryMismatchError):
            apply_propagator_convolution(Field.delta(geo, (0,)), CHAIN, 1.0)

    def test_a_zero_label_needs_no_window(self):
        # At t = 200 no window certifies the tolerance; a zero label stays zero.
        geo = LatticeGeometry.infinite(1)
        with pytest.raises(WindowCertificationError):
            certified_window(CHAIN, 200.0, 5e-11, 0.0)
        zero = Field.zero(geo)
        assert apply_propagator_convolution(zero, CHAIN, 200.0).is_zero()
        assert commutator_norm(zero, Field.delta(geo, (3,), 0.5), CHAIN, 200.0) == 0.0

    def test_infinite_field_rejected_by_torus_propagator(self):
        geo = LatticeGeometry.infinite(1)
        with pytest.raises(GeometryMismatchError):
            apply_propagator_torus(Field.delta(geo, (0,)), CHAIN, 1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTime:
    """A non-finite time is refused before any grid, window or transform is built."""

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_certified_window(self, t):
        # NaN once certified the largest window, 4096
        with pytest.raises(DomainError, match="t must be finite"):
            certified_window(CHAIN, t, 1e-10)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_compute_kernels_before_sampling(self, t, monkeypatch):
        calls = []
        real_samples = harmonic._kernel_samples

        def counted(*args):
            calls.append(args)
            return real_samples(*args)

        monkeypatch.setattr(harmonic, "_kernel_samples", counted)
        with pytest.raises(DomainError, match="t must be finite"):
            compute_kernels(CHAIN, t, 4)
        assert calls == []

    @pytest.mark.parametrize("params", [CHAIN, MASSLESS])
    @pytest.mark.parametrize("t", NON_FINITE)
    def test_the_torus_propagator_and_commutator(self, params, t):
        # NaN once gave an all-NaN field and a NaN norm
        torus = LatticeGeometry.torus(1, half_side=4)
        f = Field.delta(torus, (0,), 0.5j)
        with pytest.raises(DomainError, match="t must be finite"):
            apply_propagator_torus(f, params, t)
        with pytest.raises(DomainError, match="t must be finite"):
            commutator_norm(f, Field.delta(torus, (1,), 0.3), params, t)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_the_convolution_propagator_and_commutator(self, t):
        # NaN once refined a d = 1 grid to 1,048,576 points before failing
        line = LatticeGeometry.infinite(1)
        f = Field.delta(line, (0,), 0.5)
        with pytest.raises(DomainError, match="t must be finite"):
            apply_propagator_convolution(f, CHAIN, t)
        with pytest.raises(DomainError, match="t must be finite"):
            commutator_norm(f, Field.delta(line, (1,), 0.3), CHAIN, t)
