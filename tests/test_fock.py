"""Truncated-Fock oracle: matrices versus the exact Weyl algebra."""

import cmath
import math

import numpy as np
import pytest

from lrlattice import (
    DenseOperator,
    DomainError,
    Field,
    FockConfig,
    GeometryMismatchError,
    HarmonicParameters,
    LatticeGeometry,
    PerturbationFamily,
    QuasiFreeState,
    SingularModeError,
    TruncationLeakageError,
    WeylOperator,
    apply_propagator_torus,
    build_hamiltonian,
    build_site_operators,
    commutator_norm,
    commutator_oracle,
    cosine_family,
    diagonalization_defect,
    hamiltonian_spectrum,
    heisenberg_evolve,
    perturbation_matrix,
    perturbed_evolve,
    restricted_norm,
    state_eval,
    symplectic_form,
    volume_compare,
    weyl_matrix,
)
from lrlattice import fock
from lrlattice.fock import _conjugate, _hamiltonian_eigh

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
DECOUPLED = HarmonicParameters(omega=1.0, couplings=(0.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))

GEO = LatticeGeometry.infinite(1, window_radius=4)
RING2 = LatticeGeometry.torus(1, 1)


class TestFockConfig:
    def test_dimension_property(self):
        assert FockConfig(2, 10, CHAIN).dimension == 121
        assert FockConfig(3, 6, CHAIN).dimension == 343

    def test_site_and_cutoff_guards(self):
        with pytest.raises(DomainError):
            FockConfig(0, 10, CHAIN)
        with pytest.raises(DomainError):
            FockConfig(4, 10, CHAIN)
        with pytest.raises(DomainError):
            FockConfig(2, 5, CHAIN)

    def test_desk_scale_dimension_guard(self):
        with pytest.raises(DomainError):
            FockConfig(3, 62, CHAIN)
        FockConfig(3, 61, CHAIN)

    def test_chain_must_be_one_dimensional(self):
        plane = HarmonicParameters(omega=1.0, couplings=(1.0, 1.0))
        with pytest.raises(DomainError):
            FockConfig(2, 10, plane)


class TestDenseOperator:
    def test_validation(self):
        with pytest.raises(DomainError):
            DenseOperator(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            DenseOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_algebra_helpers(self):
        a = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert a.hermiticity_defect() == 1.0
        assert (a + a.adjoint()).hermiticity_defect() == 0.0
        assert a.scaled(3.0).norm() == pytest.approx(3.0)
        eye = DenseOperator.identity(2)
        assert (a @ eye - a).norm() == 0.0


class TestCanonicalPairs:
    def test_commutation_relation_below_the_edge(self):
        config = FockConfig(1, 12, CHAIN)
        ops = build_site_operators(config)[0]
        commutator = ops.q @ ops.p - ops.p @ ops.q
        defect = commutator - DenseOperator(1j * np.eye(config.dimension))
        # the truncation only corrupts the top number state
        assert restricted_norm(config, defect, occupation_cap=11) < 1e-13

    def test_cross_site_operators_commute(self):
        config = FockConfig(2, 8, CHAIN)
        ops = build_site_operators(config)
        cross = ops[0].q @ ops[1].p - ops[1].p @ ops[0].q
        assert cross.norm() == 0.0

    def test_position_from_ladders(self):
        config = FockConfig(1, 10, CHAIN)
        ops = build_site_operators(config)[0]
        rebuilt = (ops.a + ops.a_dag).scaled(1.0 / math.sqrt(2.0))
        assert (rebuilt - ops.q).norm() < 1e-15


class TestHamiltonian:
    def test_exactly_symmetric(self):
        assert build_hamiltonian(FockConfig(2, 12, CHAIN)).hermiticity_defect() == 0.0

    def test_single_oscillator_levels(self):
        config = FockConfig(1, 40, CHAIN)
        levels = hamiltonian_spectrum(config, 4)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0], atol=1e-10)

    def test_two_site_ring_ground_energy(self):
        # modes gamma(0) = 1 and gamma(pi) = sqrt(5); ground energy is the sum
        config = FockConfig(2, 20, CHAIN)
        ground = hamiltonian_spectrum(config, 1)[0]
        assert ground == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-8)

    def test_decoupled_ground_energy(self):
        config = FockConfig(2, 12, DECOUPLED)
        assert hamiltonian_spectrum(config, 1)[0] == pytest.approx(2.0, abs=1e-10)


class TestWeylMatrix:
    def test_unitarity(self):
        config = FockConfig(2, 16, CHAIN)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.3 - 0.2j))
        defect = (w.adjoint() @ w - DenseOperator.identity(config.dimension)).entries
        assert np.max(np.abs(defect)) < 1e-12

    def test_weyl_product_relation_on_matrices(self):
        config = FockConfig(2, 24, CHAIN)
        f = Field.delta(GEO, (0,), 0.3)
        g = Field.delta(GEO, (1,), 0.2 - 0.1j)
        lhs = weyl_matrix(config, f) @ weyl_matrix(config, g)
        phase = cmath.exp(-0.5j * symplectic_form(f, g))
        rhs = weyl_matrix(config, f + g).scaled(phase)
        assert restricted_norm(config, lhs - rhs) < 1e-12

    def test_leakage_gate(self):
        config = FockConfig(2, 8, CHAIN)
        with pytest.raises(TruncationLeakageError) as err:
            weyl_matrix(config, Field.delta(GEO, (0,), 0.4))
        assert err.value.leakage > 1e-6

    def test_label_geometry_guards(self):
        config = FockConfig(2, 10, CHAIN)
        with pytest.raises(DomainError):
            weyl_matrix(config, Field.delta(GEO, (3,), 0.1))
        wide = LatticeGeometry.torus(1, 2)
        with pytest.raises(GeometryMismatchError):
            weyl_matrix(config, Field.delta(wide, (0,), 0.1))
        plane = LatticeGeometry.infinite(2)
        with pytest.raises(GeometryMismatchError):
            weyl_matrix(config, Field.delta(plane, (0, 0), 0.1))


class TestVacuumExpectations:
    def test_decoupled_vacuum_matches_the_product_formula(self):
        config = FockConfig(2, 16, DECOUPLED)
        f = Field.delta(GEO, (0,), 0.4) + Field.delta(GEO, (1,), -0.2 + 0.3j)
        vacuum = weyl_matrix(config, f).entries[0, 0]
        expected = math.exp(-0.25 * (0.4**2 + abs(-0.2 + 0.3j) ** 2))
        assert abs(vacuum - expected) < 1e-12

    def test_interacting_ground_state_matches_the_quasi_free_state(self):
        # the truncated ring ground state converges to the Gaussian vacuum
        # functional evaluated by the closed-form layer
        config = FockConfig(2, 20, CHAIN)
        evals, evecs = np.linalg.eigh(build_hamiltonian(config).entries)
        psi0 = evecs[:, 0]
        f = Field.delta(RING2, (0,), 0.3 + 0.2j)
        fock_side = complex(psi0.conj() @ (weyl_matrix(config, f).entries @ psi0))
        state = QuasiFreeState(CHAIN, RING2)
        assert abs(fock_side - state_eval(state, WeylOperator(f))) < 1e-10


class TestHeisenbergEvolution:
    def test_matches_the_moved_label_as_the_cutoff_grows(self):
        f = Field.delta(RING2, (0,), 0.3)
        moved = apply_propagator_torus(f, CHAIN, 0.4)
        defects = []
        for cutoff in (16, 24, 32):
            config = FockConfig(2, cutoff, CHAIN)
            evolved = heisenberg_evolve(config, weyl_matrix(config, f), 0.4)
            target = weyl_matrix(config, moved)
            defects.append(restricted_norm(config, evolved - target))
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 0.02

    def test_preserves_unitarity_and_norm(self):
        config = FockConfig(2, 16, CHAIN)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        evolved = heisenberg_evolve(config, w, 0.7)
        assert evolved.norm() == pytest.approx(w.norm(), abs=1e-12)
        defect = evolved.adjoint() @ evolved - DenseOperator.identity(config.dimension)
        assert defect.norm() < 1e-11

    def test_dimension_guard(self):
        config = FockConfig(2, 10, CHAIN)
        with pytest.raises(DomainError):
            heisenberg_evolve(config, DenseOperator.identity(4), 1.0)


class TestRestrictedNorm:
    def test_identity_restricts_to_one(self):
        config = FockConfig(2, 10, CHAIN)
        assert restricted_norm(config, DenseOperator.identity(config.dimension)) == 1.0

    def test_restriction_never_exceeds_the_full_norm(self):
        config = FockConfig(2, 10, CHAIN)
        rng = np.random.default_rng(3)
        matrix = DenseOperator(rng.normal(size=(121, 121)))
        assert restricted_norm(config, matrix, occupation_cap=4) <= matrix.norm() + 1e-12

    def test_cap_guards(self):
        config = FockConfig(2, 10, CHAIN)
        eye = DenseOperator.identity(config.dimension)
        with pytest.raises(DomainError):
            restricted_norm(config, eye, occupation_cap=-1)
        with pytest.raises(DomainError):
            restricted_norm(config, eye, occupation_cap=21)
        with pytest.raises(DomainError):
            restricted_norm(config, DenseOperator.identity(4))


class TestCommutatorOracle:
    def test_converges_to_the_exact_algebra_value(self):
        f = Field.delta(RING2, (0,), 0.4)
        g = Field.delta(RING2, (1,), -0.3 + 0.2j)
        exact = commutator_norm(f, g, CHAIN, 0.5)
        rel_errors = []
        for cutoff in (20, 30, 40):
            config = FockConfig(2, cutoff, CHAIN)
            value = commutator_oracle(config, f, g, 0.5)
            rel_errors.append(abs(value - exact) / exact)
        assert all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
        assert rel_errors[-1] < 1e-3

    def test_zero_time_phase(self):
        config = FockConfig(2, 20, CHAIN)
        f = Field.delta(RING2, (0,), 0.3)
        g = Field.delta(RING2, (0,), 0.3j)
        exact = abs(1.0 - cmath.exp(1j * symplectic_form(f, g)))
        assert commutator_oracle(config, f, g, 0.0) == pytest.approx(exact, abs=1e-9)

    def test_identical_real_labels_commute(self):
        config = FockConfig(2, 20, CHAIN)
        f = Field.delta(RING2, (0,), 0.3)
        assert commutator_oracle(config, f, f, 0.0) < 1e-13

    @pytest.mark.parametrize(
        "sites, cutoff, geometry",
        [(2, 10, RING2), (2, 16, RING2), (1, 10, GEO)],
    )
    def test_matches_the_full_conjugation(self, sites, cutoff, geometry):
        """The row/column oracle against the full n x n conjugation and commutator."""

        def dense_oracle(config, f, g, t):
            evals, evecs = np.linalg.eigh(build_hamiltonian(config).entries)
            w_f = weyl_matrix(config, f).entries
            w_g = weyl_matrix(config, g).entries
            phases = np.exp(1j * t * evals)
            twisted = (evecs.T @ w_f @ evecs) * phases[:, None] * phases.conj()[None, :]
            moved = evecs @ twisted @ evecs.T
            commutator = DenseOperator(moved @ w_g - w_g @ moved)
            cap = min(8, config.sites * config.cutoff)
            return restricted_norm(config, commutator, occupation_cap=cap)

        params = CHAIN if sites > 1 else DECOUPLED
        config = FockConfig(sites, cutoff, params)
        last = sites - 1
        labels = [
            Field.delta(geometry, (0,), 0.15),
            Field.delta(geometry, (last,), -0.1 + 0.12j),
            Field.delta(geometry, (0,), 0.1 - 0.08j) + Field.delta(geometry, (last,), 0.12j),
        ]
        for f in labels:
            for g in labels:
                for t in (0.0, 0.4, 1.3):
                    expected = dense_oracle(config, f, g, t)
                    assert commutator_oracle(config, f, g, t) == pytest.approx(expected, abs=1e-13)


class TestPerturbationMatrix:
    def test_exactly_hermitian(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        assert perturbation_matrix(config, family).hermiticity_defect() == 0.0

    @pytest.mark.parametrize("z,dtype", [(0.2, np.float64), (0.15 + 0.1j, np.complex128)])
    def test_real_labels_give_a_real_matrix(self, z, dtype):
        config = FockConfig(2, 10, CHAIN)
        p = perturbation_matrix(config, cosine_family(GEO, [(0,), (1,)], z=z))
        assert p.entries.dtype == dtype
        assert p.hermiticity_defect() == 0.0

    def test_zero_atom_gives_a_multiple_of_the_identity(self):
        from lrlattice import AtomicWeylMeasure

        config = FockConfig(1, 8, CHAIN)
        measure = AtomicWeylMeasure(sites=((0,),), atoms=(((0j,), 0.7),))
        family = PerturbationFamily(GEO, ((0,),), (measure,))
        p = perturbation_matrix(config, family)
        assert np.max(np.abs(p.entries - 0.7 * np.eye(config.dimension))) == 0.0

    def test_norm_bounded_by_total_mass(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2, weight=0.5)
        total = math.fsum(m.total_mass() for m in family.measures)
        assert perturbation_matrix(config, family).norm() <= total + 1e-12


def direct_simpson_residual(config, family, w, t, steps):
    """The Simpson residual with both propagators applied as full matrices at every node."""
    p_entries = perturbation_matrix(config, family).entries
    evals_h, evecs_h = _hamiltonian_eigh(config)
    evals_p, evecs_p = np.linalg.eigh(build_hamiltonian(config).entries + p_entries)
    evolved = _conjugate(evals_p, evecs_p, t, w.entries)
    free = _conjugate(evals_h, evecs_h, t, w.entries)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t / steps / 3.0
    integral = np.zeros_like(evolved)
    for s, weight in zip(np.linspace(0.0, t, steps + 1), weights):
        inner = _conjugate(evals_h, evecs_h, t - s, w.entries)
        bracket = p_entries @ inner - inner @ p_entries
        integral += weight * _conjugate(evals_p, evecs_p, s, bracket)
    return np.linalg.norm(evolved - free - 1j * integral, 2)


class TestPerturbedEvolution:
    def test_empty_family_is_exactly_free(self):
        config = FockConfig(2, 10, CHAIN)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        evolved, residual = perturbed_evolve(config, PerturbationFamily.empty(GEO), w, 0.8)
        assert residual == 0.0
        assert (evolved - heisenberg_evolve(config, w, 0.8)).norm() == 0.0

    def test_integral_equation_residual_is_quadrature_order(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        residuals = {}
        for steps in (16, 32, 64):
            _, residuals[steps] = perturbed_evolve(config, family, w, 0.8, quad_steps=steps)
        assert math.log2(residuals[16] / residuals[32]) >= 2.0
        assert math.log2(residuals[32] / residuals[64]) >= 2.0
        assert residuals[64] < 1e-5

    @pytest.mark.parametrize("cutoff", [10, 12])
    @pytest.mark.parametrize("z", [0.2, 0.15 + 0.1j])
    def test_eigenbasis_quadrature_matches_node_by_node_conjugation(self, cutoff, z):
        config = FockConfig(2, cutoff, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=z)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.15 + 0.03j))
        for steps in (6, 16, 64):
            expected = direct_simpson_residual(config, family, w, 0.5, steps)
            _, residual = perturbed_evolve(config, family, w, 0.5, quad_steps=steps)
            assert residual == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.2, 0.15 + 0.1j])
    def test_odd_base_ladders_match_the_direct_simpson_sum(self, z):
        # 2 starts its ladder at one interval, 6, 12 and 24 at three; the
        # calls run in this order, so 12 and 24 extend cached rungs.
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=z)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        fock._rungs.clear()
        for steps in (2, 6, 12, 24):
            expected = direct_simpson_residual(config, family, w, 0.7, steps)
            _, residual = perturbed_evolve(config, family, w, 0.7, quad_steps=steps)
            assert residual == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.2, 0.15 + 0.1j])
    @pytest.mark.parametrize("order", [(16, 32, 64), (64, 32, 16)])
    def test_warm_ladder_equals_cold_calls_bit_for_bit(self, z, order):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=z)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2 - 0.05j))
        cold = {}
        for steps in order:
            fock._rungs.clear()
            cold[steps] = perturbed_evolve(config, family, w, 0.6, quad_steps=steps)
        fock._rungs.clear()
        for steps in order:
            evolved, residual = perturbed_evolve(config, family, w, 0.6, quad_steps=steps)
            assert residual == cold[steps][1]
            assert np.array_equal(evolved.entries, cold[steps][0].entries)

    @pytest.mark.parametrize("change", ["operator", "t", "family"])
    def test_a_changed_input_misses_the_cached_rungs(self, change):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        t = 0.6
        fock._rungs.clear()
        perturbed_evolve(config, family, w, t, quad_steps=16)
        if change == "operator":
            entries = w.entries.copy()
            entries[3, 5] += 1e-3
            w = DenseOperator(entries)
        elif change == "t":
            t = math.nextafter(t, 1.0)
        else:
            family = cosine_family(GEO, [(0,), (1,)], z=0.2 + 1e-9)
        warm = perturbed_evolve(config, family, w, t, quad_steps=32)
        fock._rungs.clear()
        cold = perturbed_evolve(config, family, w, t, quad_steps=32)
        assert warm[1] == cold[1]

    def test_a_step_ladder_evaluates_each_node_once(self, monkeypatch):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        calls = []
        bracket = fock._bracket

        def counting(*args):
            calls.append(1)
            return bracket(*args)

        monkeypatch.setattr(fock, "_bracket", counting)
        fock._rungs.clear()
        for steps in (16, 32, 64):
            perturbed_evolve(config, family, w, 0.5, quad_steps=steps)
        assert len(calls) == 65

    def test_difference_from_free_obeys_the_dyson_norm_bound(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        t = 0.8
        evolved, _ = perturbed_evolve(config, family, w, t, quad_steps=16)
        free = heisenberg_evolve(config, w, t)
        p_norm = perturbation_matrix(config, family).norm()
        bound = (math.exp(2.0 * p_norm * t) - 1.0) * w.norm()
        assert (evolved - free).norm() <= bound

    def test_conjugation_preserves_the_norm(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        evolved, _ = perturbed_evolve(config, family, w, 0.8, quad_steps=16)
        assert evolved.norm() == pytest.approx(w.norm(), abs=1e-12)

    def test_quadrature_step_guards(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,)], z=0.2)
        w = DenseOperator.identity(config.dimension)
        with pytest.raises(DomainError):
            perturbed_evolve(config, family, w, 0.5, quad_steps=7)
        with pytest.raises(DomainError):
            perturbed_evolve(config, family, w, 0.5, quad_steps=0)

    @pytest.mark.parametrize("steps", [16.0, True, "16"])
    def test_a_non_integer_step_count_is_a_named_error(self, steps):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,)], z=0.2)
        w = DenseOperator.identity(config.dimension)
        with pytest.raises(DomainError, match="quad_steps"):
            perturbed_evolve(config, family, w, 0.5, quad_steps=steps)

    def test_a_numpy_integer_step_count_is_accepted(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2))
        fock._rungs.clear()
        expected = perturbed_evolve(config, family, w, 0.5, quad_steps=16)[1]
        fock._rungs.clear()
        assert perturbed_evolve(config, family, w, 0.5, quad_steps=np.int64(16))[1] == expected

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("z", [None, 0.2])
    def test_a_non_finite_time_is_a_named_error(self, t, z):
        config = FockConfig(2, 10, CHAIN)
        family = PerturbationFamily.empty(GEO) if z is None else cosine_family(GEO, [(0,)], z=z)
        w = DenseOperator.identity(config.dimension)
        with pytest.raises(DomainError, match="t must be finite"):
            perturbed_evolve(config, family, w, t)


class TestVolumeCompare:
    def test_rings_agree_at_zero_time_but_not_later(self):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.2))
        assert volume_compare(small, large, None, op, (0.0,)) < 1e-12
        # a 2-ring and a 3-ring are genuinely different dynamics
        assert volume_compare(small, large, None, op, (0.5,)) > 0.1

    def test_decoupled_sites_make_the_volumes_agree(self):
        small = FockConfig(2, 10, DECOUPLED)
        large = FockConfig(3, 10, DECOUPLED)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.2))
        assert volume_compare(small, large, family, op, (0.3, 0.7)) < 1e-11

    def test_validation(self):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = DenseOperator.identity(small.dimension)
        with pytest.raises(DomainError):
            volume_compare(large, small, None, DenseOperator.identity(large.dimension), (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, FockConfig(3, 12, CHAIN), None, op, (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, FockConfig(3, 10, DECOUPLED), None, op, (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, large, None, DenseOperator.identity(4), (0.5,))

    @pytest.mark.parametrize("t_grid", [(0.25, math.nan), (math.inf,)])
    def test_a_non_finite_time_is_a_named_error(self, t_grid):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = DenseOperator.identity(small.dimension)
        with pytest.raises(DomainError, match="t_grid"):
            volume_compare(small, large, None, op, t_grid)

    def test_an_empty_time_grid_is_a_named_error(self):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = DenseOperator.identity(small.dimension)
        with pytest.raises(DomainError, match="t_grid"):
            volume_compare(small, large, None, op, ())


class TestDiagonalizationDefect:
    def test_fourier_normal_form_matches_below_the_edge(self):
        assert diagonalization_defect(FockConfig(2, 12, CHAIN)) < 1e-8

    def test_massless_mode_is_singular(self):
        with pytest.raises(SingularModeError):
            diagonalization_defect(FockConfig(2, 12, MASSLESS))
