"""Dispersion, kernel, and propagator tests.

The strongest checks compare the FFT-quadrature kernels against two
independent oracles: the classical Bessel closed form for the massless
chain, and adaptive Gauss-Kronrod integration of the Brillouin-zone
integral for massive parameters.  Everything else is exact structure:
group laws, symplectic invariance, and certified truncation windows.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

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
    ZeroModeError,
    apply_propagator_convolution,
    apply_propagator_torus,
    bogoliubov_multipliers,
    certified_window,
    compute_kernel,
    envelope_prefactor,
    envelope_speed,
    gamma,
    kernel_envelope,
    symplectic_form,
)
from lrlattice.harmonic import MU_GRID, _truncation_tail

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))


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
        for site in k0.sites:
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
        quad = QuadratureSpec(points_per_axis=8, refinement_tolerance=1e-16, max_refinements=1)
        with pytest.raises(QuadratureConvergenceError) as info:
            compute_kernel(CHAIN, 0, 3.0, 4, quad)
        assert info.value.best is not None
        assert info.value.best.samples.shape == (9,)
        assert math.isfinite(info.value.achieved)

    def test_value_outside_window_raises(self):
        kernel = compute_kernel(CHAIN, 0, 0.5, 3)
        with pytest.raises(DomainError):
            kernel.value((4,))


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
        wide = apply_propagator_convolution(
            f, MASSLESS, 1.5, tolerance=1e-8, window=minimal + 16
        )
        sites = set(tight.support()) | set(wide.support())
        diffs = sorted(abs(wide.value(s) - tight.value(s)) for s in sites)
        assert math.fsum(diffs) <= 2e-8

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(WindowCertificationError) as info:
            certified_window(CHAIN, 50.0, 1e-10, max_window=64)
        assert info.value.minimal_window == 65


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
                    assert _truncation_tail(params, t, window, mu) == expected

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
    def test_nonzero_mean_on_torus_raises(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        with pytest.raises(ZeroModeError):
            apply_propagator_torus(Field.delta(geo, (0,)), MASSLESS, 1.0)

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

    def test_window_below_certified_radius_raises(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        with pytest.raises(WindowCertificationError) as info:
            apply_propagator_convolution(f, CHAIN, 1.0, window=5)
        minimal = info.value.minimal_window
        assert minimal > 5
        out = apply_propagator_convolution(f, CHAIN, 1.0, window=minimal)
        assert out.support_radius() <= minimal

    def test_torus_field_rejected(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        with pytest.raises(GeometryMismatchError):
            apply_propagator_convolution(Field.delta(geo, (0,)), CHAIN, 1.0)

    def test_infinite_field_rejected_by_torus_propagator(self):
        geo = LatticeGeometry.infinite(1)
        with pytest.raises(GeometryMismatchError):
            apply_propagator_torus(Field.delta(geo, (0,)), CHAIN, 1.0)
