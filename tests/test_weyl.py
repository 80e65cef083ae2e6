"""Weyl algebra, commutator norms, and the quasi-free vacuum state."""

import cmath
import math

import numpy as np
import pytest

from lrlattice import (
    DomainError,
    Field,
    GeometryMismatchError,
    HarmonicParameters,
    LatticeGeometry,
    QuasiFreeState,
    WeylOperator,
    ZeroModeError,
    adjoint,
    apply_propagator_torus,
    commutator_norm,
    multiply,
    smeared_norm_sq,
    state_eval,
    symplectic_form,
    three_point,
    three_point_continuity,
)
from lrlattice import weyl
from lrlattice.harmonic import _propagator_symbols, _torus_gamma

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))


def _random_field(geo, rng, sites):
    return Field(geo, {s: complex(*rng.normal(scale=0.5, size=2)) for s in sites})


class TestWeylAlgebra:
    def test_product_twist_hand_value(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,), 1.0)
        g = Field.delta(geo, (0,), 1.0j)
        # sigma(f, g) = Im(conj(1) * i) = 1, so the product label is f + g
        # with phase e^{-i/2}
        prod = multiply(WeylOperator(f), WeylOperator(g))
        assert prod.label.max_abs_diff(f + g) == 0.0
        assert prod.phase == pytest.approx(cmath.exp(-0.5j), abs=1e-15)

    def test_disjoint_supports_commute(self):
        geo = LatticeGeometry.infinite(1)
        a = WeylOperator(Field.delta(geo, (0,), 0.7 + 0.1j))
        b = WeylOperator(Field.delta(geo, (5,), -0.2 + 0.9j))
        ab = multiply(a, b)
        ba = multiply(b, a)
        assert ab.label.max_abs_diff(ba.label) == 0.0
        assert abs(ab.phase - ba.phase) < 1e-15

    def test_adjoint_inverts(self):
        geo = LatticeGeometry.infinite(1)
        a = WeylOperator(Field.delta(geo, (1,), 0.4 - 0.3j), phase=cmath.exp(0.7j))
        prod = multiply(a, adjoint(a))
        assert prod.label.is_zero()
        assert prod.phase == pytest.approx(1.0, abs=1e-15)

    def test_operator_product_is_associative(self):
        geo = LatticeGeometry.infinite(1)
        rng = np.random.default_rng(2)
        a = WeylOperator(_random_field(geo, rng, [(0,), (1,)]))
        b = WeylOperator(_random_field(geo, rng, [(0,), (2,)]))
        c = WeylOperator(_random_field(geo, rng, [(1,), (2,)]))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left.label.max_abs_diff(right.label) < 1e-15
        assert abs(left.phase - right.phase) < 1e-14

    def test_phase_is_normalized(self):
        geo = LatticeGeometry.infinite(1)
        a = WeylOperator(Field.delta(geo, (0,)), phase=3.0 + 4.0j)
        assert abs(abs(a.phase) - 1.0) < 1e-15

    def test_mixed_geometry_product_rejected(self):
        a = WeylOperator(Field.delta(LatticeGeometry.infinite(1), (0,)))
        b = WeylOperator(Field.delta(LatticeGeometry.torus(1, half_side=2), (0,)))
        with pytest.raises(GeometryMismatchError):
            multiply(a, b)


class TestFreeEvolution:
    def test_evolution_respects_group_law(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        f = Field.delta(geo, (0,), 0.8)
        one = apply_propagator_torus(f, CHAIN, 1.5)
        two = apply_propagator_torus(apply_propagator_torus(f, CHAIN, 0.7), CHAIN, 0.8)
        assert one.max_abs_diff(two) < 1e-12

    def test_evolution_is_linear_and_symplectic(self):
        # so evolving a Weyl product equals the product of the evolved factors
        geo = LatticeGeometry.torus(1, half_side=8)
        rng = np.random.default_rng(5)
        f = _random_field(geo, rng, [(0,), (1,)])
        g = _random_field(geo, rng, [(2,), (-1,)])
        t = 0.9
        moved_f = apply_propagator_torus(f, CHAIN, t)
        moved_g = apply_propagator_torus(g, CHAIN, t)
        assert apply_propagator_torus(f + g, CHAIN, t).max_abs_diff(moved_f + moved_g) < 1e-12
        assert abs(symplectic_form(moved_f, moved_g) - symplectic_form(f, g)) < 1e-12


class TestCommutatorNorm:
    def test_zero_time_disjoint_supports(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,), 0.5)
        g = Field.delta(geo, (3,), 0.5)
        assert commutator_norm(f, g, CHAIN, 0.0) < 1e-15

    def test_matches_phase_formula(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        f = Field.delta(geo, (0,), 0.5)
        g = Field.delta(geo, (2,), -0.4 + 0.3j)
        t = 1.0
        sigma = symplectic_form(apply_propagator_torus(f, CHAIN, t), g)
        expected = abs(1.0 - cmath.exp(1j * sigma))
        assert commutator_norm(f, g, CHAIN, t) == pytest.approx(expected, abs=1e-15)

    def test_never_exceeds_two(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,), 9.0)
        g = Field.delta(geo, (1,), 7.0j)
        for t in (0.5, 1.0, 2.0):
            assert commutator_norm(f, g, MASSLESS, t) <= 2.0

    def test_decays_outside_the_cone(self):
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        t = 1.0
        near = commutator_norm(f, Field.delta(geo, (2,)), MASSLESS, t)
        far = commutator_norm(f, Field.delta(geo, (12,)), MASSLESS, t)
        assert far < 1e-6 * near


class TestQuasiFreeState:
    def test_decoupled_gaussian_is_l2_weight(self):
        # with all dispersion values equal to one the quadratic form is the
        # plain l2 norm, by Parseval
        params = HarmonicParameters(omega=1.0, couplings=(0.0,))
        geo = LatticeGeometry.torus(1, half_side=8)
        state = QuasiFreeState(params, geo)
        f = Field(geo, {(0,): 0.3 + 0.4j, (2,): -0.6j})
        expected = math.exp(-0.25 * f.norm_l2() ** 2)
        got = state_eval(state, WeylOperator(f))
        assert got.real == pytest.approx(expected, rel=1e-13)
        assert got.imag == 0.0

    def test_two_site_hand_value(self):
        # two-site ring: modes k = 0 and k = pi with dispersions 1, sqrt 5
        geo = LatticeGeometry.torus(1, half_side=1)
        state = QuasiFreeState(CHAIN, geo)
        a, b = 0.6, 0.4
        f = Field.delta(geo, (0,), complex(a, b))
        root5 = math.sqrt(5.0)
        form = (a**2 * (1.0 + 1.0 / root5) + b**2 * (1.0 + root5)) / 2.0
        assert smeared_norm_sq(state, f) == pytest.approx(form, rel=1e-14)
        assert state_eval(state, WeylOperator(f)).real == pytest.approx(
            math.exp(-0.25 * form), rel=1e-13
        )

    def test_invariance_under_free_dynamics(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        state = QuasiFreeState(CHAIN, geo)
        f = Field(geo, {(0,): 0.5 + 0.1j, (3,): 0.2 - 0.3j})
        base = state_eval(state, WeylOperator(f))
        for t in (0.3, 1.1, 2.7):
            moved = state_eval(state, WeylOperator(apply_propagator_torus(f, CHAIN, t)))
            assert abs(moved - base) < 1e-12

    def test_phase_carries_through(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(CHAIN, geo)
        f = Field.delta(geo, (0,), 0.5)
        plain = state_eval(state, WeylOperator(f))
        tagged = state_eval(state, WeylOperator(f, phase=1j))
        assert tagged == pytest.approx(1j * plain, abs=1e-15)

    def test_needs_torus(self):
        with pytest.raises(GeometryMismatchError):
            QuasiFreeState(CHAIN, LatticeGeometry.infinite(1))


class TestMasslessState:
    def test_nonzero_mean_rejected_by_default(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(MASSLESS, geo)
        with pytest.raises(ZeroModeError):
            smeared_norm_sq(state, Field.delta(geo, (0,), 1.0))

    def test_zero_convention_maps_to_vanishing_expectation(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(MASSLESS, geo)
        a = WeylOperator(Field.delta(geo, (0,), 1.0))
        assert state_eval(state, a, zero_convention=True) == 0.0

    # Real parts whose exact sum lies just under the 1e-12 * ||f||_1
    # threshold, while a pairwise float sum over the dense torus lands just
    # above it.
    NEAR_THRESHOLD = {
        (-7,): -0.6539851968418982,
        (-3,): 0.09759752277630596,
        (1,): 0.40608152413126297,
        (5,): 0.3489716610046545,
        (8,): -0.19866551106862,
    }

    def test_the_zero_mean_test_takes_the_exact_sum(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        state = QuasiFreeState(MASSLESS, geo)
        f = Field(geo, self.NEAR_THRESHOLD)
        assert math.isfinite(smeared_norm_sq(state, f))
        assert state_eval(state, WeylOperator(f), zero_convention=True) != 0.0

    def test_zero_mean_label_is_regular(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(MASSLESS, geo)
        f = Field(geo, {(0,): 1.0 + 0.2j, (1,): -1.0})
        form = smeared_norm_sq(state, f)
        assert math.isfinite(form)
        assert form > 0.0

    def test_a_zero_coupling_is_refused(self):
        # With lambda = (1, 0) every mode on the line k_1 = 0 is massless, not
        # only k = 0, so a zero total mean would not put a label in the domain.
        params = HarmonicParameters(omega=0.0, couplings=(1.0, 0.0))
        with pytest.raises(DomainError, match="every coupling positive"):
            QuasiFreeState(params, LatticeGeometry.torus(2, half_side=2))
        # A massive state with a zero coupling stays regular.
        massive = HarmonicParameters(omega=0.5, couplings=(1.0, 0.0))
        QuasiFreeState(massive, LatticeGeometry.torus(2, half_side=2))

    def test_opposite_labels_around_a_nonzero_mean_f(self):
        # f = delta_0 / 2 alone lies outside the form domain, but the total
        # g1 + T_t f + g2 does not: T_t keeps the position sum, so the total's is 0.
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(MASSLESS, geo)
        g1, f = Field.delta(geo, (0,), -0.5), Field.delta(geo, (0,), 0.5)
        zero = Field.zero(geo)
        assert three_point(state, g1, f, zero, 0.0) == 1.0
        for t in (0.4, 1.3):
            value = three_point(state, g1, f, zero, t)
            assert value == _reference_three_point(state, g1, f, zero, t, False)
            assert 0.0 < abs(value) < 1.0


class TestThreePoint:
    def test_reduces_to_weyl_product_at_zero_label(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        state = QuasiFreeState(CHAIN, geo)
        g1 = Field.delta(geo, (0,), 0.4 + 0.1j)
        g2 = Field.delta(geo, (1,), -0.2 + 0.5j)
        got = three_point(state, g1, Field.zero(geo), g2, 1.3)
        expected = state_eval(state, multiply(WeylOperator(g1), WeylOperator(g2)))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_zero_time_triple_product(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        state = QuasiFreeState(CHAIN, geo)
        g1 = Field.delta(geo, (0,), 0.4j)
        f = Field.delta(geo, (2,), 0.3)
        g2 = Field.delta(geo, (-1,), 0.2 - 0.2j)
        got = three_point(state, g1, f, g2, 0.0)
        product = multiply(multiply(WeylOperator(g1), WeylOperator(f)), WeylOperator(g2))
        assert got == pytest.approx(state_eval(state, product), abs=1e-14)

    def test_continuity_modulus_halves_with_the_grid(self):
        geo = LatticeGeometry.torus(1, half_side=16)
        state = QuasiFreeState(CHAIN, geo)
        g1 = Field.delta(geo, (0,), 0.5)
        f = Field.delta(geo, (1,), 0.4 + 0.2j)
        g2 = Field.delta(geo, (2,), -0.3j)

        def modulus(points):
            grid = np.linspace(0.8, 1.2, points)
            return three_point_continuity(state, g1, f, g2, grid)[1]

        coarse, mid, fine = modulus(9), modulus(17), modulus(33)
        assert coarse / mid >= 1.9
        assert mid / fine >= 1.9

    def test_continuity_needs_two_points(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(CHAIN, geo)
        f = Field.delta(geo, (0,), 0.1)
        with pytest.raises(Exception):
            three_point_continuity(state, f, f, f, [1.0])


def _reference_dense(f, params, t):
    """T_t f composed afresh at each time, as one dense round trip."""
    dense = f.to_dense()
    gam = _torus_gamma(params, f.geometry)
    if params.is_massless:
        a, b = _propagator_symbols(gam, t)
        out = np.fft.ifftn(a * np.fft.fftn(dense))
        out += np.fft.ifftn(b * np.fft.fftn(np.conj(dense)))
        return out
    root = np.sqrt(gam)
    plus = 1.0 / root + root
    minus = 1.0 / root - root

    def mult(vec, sym):
        return np.fft.ifftn(sym * np.fft.fftn(vec))

    inner = -0.5j * mult(dense, plus) - 0.5j * mult(np.conj(dense), minus)
    rotated = mult(inner, np.exp(2j * gam * t))
    return 0.5j * mult(rotated, plus) + 0.5j * mult(np.conj(rotated), minus)


def _reference_propagate(f, params, t):
    return Field.from_dense(f.geometry, _reference_dense(f, params, t))


def _reference_three_point(state, g1, f, g2, t, zero_convention):
    """three_point through Field sums, one propagated Field per time."""
    moved = _reference_propagate(f, state.params, t)
    form = smeared_norm_sq(state, g1 + g2 + moved, zero_convention)
    if math.isinf(form):
        return 0.0 + 0.0j
    phase = cmath.exp(0.5j * symplectic_form(g1, g2))
    phase *= cmath.exp(0.5j * symplectic_form(moved, g2 - g1))
    return phase * math.exp(-0.25 * form)


def _pair_labels(geo, rng, d):
    """Labels (g1, f, g2) near the origin; every position part has zero sum."""
    box = list(np.ndindex((7,) * d))
    near = [tuple(c - 3 for c in box[i]) for i in rng.choice(len(box), size=6, replace=False)]

    def label(a, b):
        re, im = rng.normal(scale=0.4, size=2)
        return Field(geo, {near[a]: complex(re, im), near[b]: complex(-re, rng.normal(scale=0.4))})

    return label(0, 1), label(2, 3), label(4, 5)


# d = 2 at half-side 40 stays below numpy's 256 KB temporary-elision size and
# half-side 73 lies above it; d = 1 at half-side 8192 (16,384 sites) is at it.
DENSE_CASES = [
    (HarmonicParameters(omega=0.8, couplings=(1.1,)), 20),
    (HarmonicParameters(omega=0.7, couplings=(0.9,)), 8192),
    (HarmonicParameters(omega=0.0, couplings=(1.2,)), 8192),
    (HarmonicParameters(omega=0.6, couplings=(0.9, 1.3)), 40),
    (HarmonicParameters(omega=1.2, couplings=(0.7, 0.4)), 73),
    (HarmonicParameters(omega=0.5, couplings=(1.0, 0.5, 0.8)), 6),
    (HarmonicParameters(omega=0.0, couplings=(1.0,)), 20),
    (HarmonicParameters(omega=0.0, couplings=(0.8, 1.3)), 12),
    (HarmonicParameters(omega=0.0, couplings=(0.4, 1.0, 0.8)), 5),
]
TIMES = (0.3, 1.05, 2.4)
NINE_TIMES = tuple(0.9 + 0.025 * i for i in range(9))


class TestDenseTimeGrid:
    """The dense time grid gives the bits of one Field round trip per time."""

    @pytest.mark.parametrize("params, half_side", DENSE_CASES)
    def test_three_point_matches_the_field_path(self, params, half_side):
        geo = LatticeGeometry.torus(params.dimension, half_side=half_side)
        state = QuasiFreeState(params, geo)
        g1, f, g2 = _pair_labels(geo, np.random.default_rng(half_side), params.dimension)
        expected = tuple(_reference_three_point(state, g1, f, g2, t, False) for t in TIMES)
        assert three_point_continuity(state, g1, f, g2, TIMES)[0] == expected
        assert three_point(state, g1, f, g2, TIMES[1]) == expected[1]

    @pytest.mark.parametrize("params, half_side", DENSE_CASES)
    def test_propagator_matches_the_reference_bit_for_bit(self, params, half_side):
        geo = LatticeGeometry.torus(params.dimension, half_side=half_side)
        _, f, _ = _pair_labels(geo, np.random.default_rng(half_side), params.dimension)
        for t in TIMES:
            moved = apply_propagator_torus(f, params, t).to_dense()
            assert moved.tobytes() == _reference_propagate(f, params, t).to_dense().tobytes()

    @pytest.mark.parametrize(
        "params, half_side",
        [
            (HarmonicParameters(omega=0.9, couplings=(0.6,)), 1500),
            (HarmonicParameters(omega=0.6, couplings=(0.9, 1.3)), 20),
            (HarmonicParameters(omega=0.0, couplings=(0.8, 1.3)), 20),
        ],
    )
    def test_a_grid_across_chunks_matches_the_field_path(self, params, half_side):
        geo = LatticeGeometry.torus(params.dimension, half_side=half_side)
        # Every chunk holds more than one time, and the nine times need more than one chunk.
        assert 1 < weyl.FLOW_NODES // geo.extent**params.dimension < len(NINE_TIMES)
        state = QuasiFreeState(params, geo)
        g1, f, g2 = _pair_labels(geo, np.random.default_rng(half_side), params.dimension)
        expected = tuple(_reference_three_point(state, g1, f, g2, t, False) for t in NINE_TIMES)
        assert three_point_continuity(state, g1, f, g2, NINE_TIMES)[0] == expected

    @pytest.mark.parametrize("params, half_side", DENSE_CASES)
    def test_evolved_state_matches_the_field_path(self, params, half_side):
        geo = LatticeGeometry.torus(params.dimension, half_side=half_side)
        state = QuasiFreeState(params, geo)
        _, f, _ = _pair_labels(geo, np.random.default_rng(half_side), params.dimension)
        zero = Field.zero(geo)
        for t in TIMES:
            expected = state_eval(state, WeylOperator(_reference_propagate(f, params, t)))
            assert three_point(state, zero, f, zero, t) == expected

    @pytest.mark.parametrize("d, half_side", [(1, 20), (2, 12)])
    def test_zero_convention_on_a_nonzero_mean_total(self, d, half_side):
        params = HarmonicParameters(omega=0.0, couplings=(1.0,) * d)
        geo = LatticeGeometry.torus(d, half_side=half_side)
        state = QuasiFreeState(params, geo)
        g1, f, g2 = _pair_labels(geo, np.random.default_rng(d), d)
        g1 = g1 + Field.delta(geo, (0,) * d, 0.25)
        expected = tuple(_reference_three_point(state, g1, f, g2, t, True) for t in TIMES)
        assert expected == (0.0,) * len(TIMES)
        assert three_point_continuity(state, g1, f, g2, TIMES, zero_convention=True)[0] == expected
        # Without the convention both paths raise, at the first time.
        for t in TIMES:
            with pytest.raises(ZeroModeError):
                _reference_three_point(state, g1, f, g2, t, False)
        with pytest.raises(ZeroModeError):
            three_point_continuity(state, g1, f, g2, TIMES)

    @pytest.mark.parametrize("offset", [0.0, -0.25], ids=["outside", "inside"])
    def test_a_nonzero_mean_f_follows_the_convention(self, offset):
        # T_t keeps the position mean, so the total's mean is 0.25 + offset at every t.
        params = HarmonicParameters(omega=0.0, couplings=(1.0,))
        geo = LatticeGeometry.torus(1, half_side=20)
        state = QuasiFreeState(params, geo)
        g1, f, g2 = _pair_labels(geo, np.random.default_rng(3), 1)
        f = f + Field.delta(geo, (1,), 0.25)
        g1 = g1 + Field.delta(geo, (0,), offset)
        expected = tuple(_reference_three_point(state, g1, f, g2, t, True) for t in TIMES)
        assert three_point_continuity(state, g1, f, g2, TIMES, zero_convention=True)[0] == expected
        if offset:
            assert 0.0 not in expected
            assert three_point_continuity(state, g1, f, g2, TIMES)[0] == expected
        else:
            assert expected == (0.0,) * len(TIMES)
            for t in TIMES:
                with pytest.raises(ZeroModeError):
                    three_point(state, g1, f, g2, t)
