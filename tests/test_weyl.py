"""Weyl algebra, commutator norms, and the quasi-free vacuum state."""

import cmath
import math

import numpy as np
import pytest

from lrlattice import (
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
    free_evolve,
    multiply,
    smeared_norm_sq,
    state_eval,
    symplectic_form,
    three_point,
    three_point_continuity,
)

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
    def test_evolution_moves_the_label(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        f = Field(geo, {(0,): 0.5 + 0.2j, (1,): -0.1j})
        a = WeylOperator(f, phase=cmath.exp(0.3j))
        moved = free_evolve(a, CHAIN, 1.2)
        assert moved.label.max_abs_diff(apply_propagator_torus(f, CHAIN, 1.2)) == 0.0
        assert moved.phase == a.phase

    def test_evolution_respects_group_law(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        a = WeylOperator(Field.delta(geo, (0,), 0.8))
        one = free_evolve(a, CHAIN, 1.5)
        two = free_evolve(free_evolve(a, CHAIN, 0.7), CHAIN, 0.8)
        assert one.label.max_abs_diff(two.label) < 1e-12

    def test_product_then_evolve_equals_evolve_then_product(self):
        # the twist phase is invariant because T_t is symplectic
        geo = LatticeGeometry.torus(1, half_side=8)
        rng = np.random.default_rng(5)
        a = WeylOperator(_random_field(geo, rng, [(0,), (1,)]))
        b = WeylOperator(_random_field(geo, rng, [(2,), (-1,)]))
        t = 0.9
        left = free_evolve(multiply(a, b), CHAIN, t)
        right = multiply(free_evolve(a, CHAIN, t), free_evolve(b, CHAIN, t))
        assert left.label.max_abs_diff(right.label) < 1e-12
        assert abs(left.phase - right.phase) < 1e-12


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
            moved = state_eval(state, free_evolve(WeylOperator(f), CHAIN, t))
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

    def test_state_and_propagator_share_the_zero_mean_test(self):
        geo = LatticeGeometry.torus(1, half_side=8)
        state = QuasiFreeState(MASSLESS, geo)
        f = Field(geo, self.NEAR_THRESHOLD)
        apply_propagator_torus(f, MASSLESS, 0.5)
        assert math.isfinite(smeared_norm_sq(state, f))
        assert state_eval(state, WeylOperator(f), zero_convention=True) != 0.0

    def test_zero_mean_label_is_regular(self):
        geo = LatticeGeometry.torus(1, half_side=4)
        state = QuasiFreeState(MASSLESS, geo)
        f = Field(geo, {(0,): 1.0 + 0.2j, (1,): -1.0})
        form = smeared_norm_sq(state, f)
        assert math.isfinite(form)
        assert form > 0.0


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
