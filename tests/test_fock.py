"""Truncated-Fock oracle: matrices versus the exact Weyl algebra."""

import cmath
import math
import tracemalloc

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
    commutator_norm,
    commutator_oracle,
    cosine_family,
    gamma,
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
from lrlattice.fock import (
    _add_local,
    _column_blocks,
    _conjugate,
    _eigh,
    _kron_rows,
    _occupation_grid,
    _phased,
    _product,
    _site_matrices,
    _spectral_norm,
    _site_amplitudes,
    _weyl_factors,
)
from lrlattice.lattice import _is_int

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
DECOUPLED = HarmonicParameters(omega=1.0, couplings=(0.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))

GEO = LatticeGeometry.infinite(1, window_radius=4)
RING2 = LatticeGeometry.torus(1, 1)


def identity(dim):
    return DenseOperator(np.eye(dim))


def embed(factor, site, sites, cutoff):
    """Tensor a single-site matrix into position ``site`` (site 0 leftmost) with np.kron."""
    out = np.array([[1.0]])
    eye = np.eye(cutoff + 1)
    for position in range(sites):
        out = np.kron(out, factor if position == site else eye)
    return out


def site_q_p(config, site):
    """Position and momentum of one site, embedded in the product space."""
    _, q, p = _site_matrices(config.cutoff)
    return tuple(embed(m, site, config.sites, config.cutoff) for m in (q, p))


def hamiltonian_spectrum(config: FockConfig, count: int = 8) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the truncated Hamiltonian."""
    if not _is_int(count) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    evals, _ = _eigh(config)
    return np.array(evals[:count])


def diagonalization_defect(config: FockConfig) -> float:
    """Distance between H and its Fourier-mode normal form, low states only.

    Builds b_k = (gamma^{1/2} Q_k + i gamma^{-1/2} P_k) / sqrt(2) from the
    discrete Fourier transforms of the site operators and compares
    sum_k gamma(k) (2 b_k^dag b_k + 1) against the Hamiltonian, projected
    onto total occupation <= cutoff - 2 where the cutoff cannot interfere.
    """
    if config.params.is_massless:
        raise SingularModeError("the k = 0 mode has no normal form when omega = 0")
    n, cutoff = config.sites, config.cutoff
    _, q_site, p_site = _site_matrices(cutoff)
    q_sites = [embed(q_site, x, n, cutoff) for x in range(n)]
    p_sites = [embed(p_site, x, n, cutoff) for x in range(n)]
    dim = config.dimension

    check = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        k = 2.0 * math.pi * j / n
        g = gamma(config.params, (k,))
        q_k = np.zeros((dim, dim), dtype=complex)
        p_k = np.zeros((dim, dim), dtype=complex)
        for x in range(n):
            phase = np.exp(-1j * k * x) / math.sqrt(n)
            q_k += phase * q_sites[x]
            p_k += phase * p_sites[x]
        b_k = (math.sqrt(g) * q_k + 1j / math.sqrt(g) * p_k) / math.sqrt(2.0)
        check += g * (2.0 * (b_k.conj().T @ b_k) + np.eye(dim))

    h = build_hamiltonian(config).entries
    keep = _occupation_grid(n, cutoff) <= cutoff - 2
    defect = (h - check)[np.ix_(keep, keep)]
    return _spectral_norm(defect)


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

    def test_difference_and_norm(self):
        a = DenseOperator(np.array([[0.0, 3.0], [0.0, 0.0]]))
        assert a.norm() == pytest.approx(3.0)
        assert (a - a).norm() == 0.0
        assert (a - identity(2)).entries.tolist() == [[-1.0, 3.0], [0.0, -1.0]]


def random_matrix(shape, complex_entries, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(shape)
    return matrix + 1j * rng.standard_normal(shape) if complex_entries else matrix


class TestSpectralNorm:
    SHAPES = [(45, 45), (37, 61), (61, 37)]

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("shape", SHAPES + [(600, 600), (300, 1000)])
    def test_agrees_with_the_svd_norm(self, shape, complex_entries):
        # 600 x 600 and 300 x 1000 span two and more blocks at the default size
        matrix = random_matrix(shape, complex_entries)
        expected = np.linalg.norm(matrix, 2)
        assert _spectral_norm(matrix) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("columns", [1, 5, 8])
    def test_agrees_with_the_svd_norm_in_narrow_blocks(
        self, monkeypatch, shape, complex_entries, columns
    ):
        # 37, 45 and 61 columns are no multiple of 5 or 8; 1 is one column a block
        monkeypatch.setattr(fock, "_BLOCK_ENTRIES", columns * shape[0])
        matrix = random_matrix(shape, complex_entries, seed=1)
        assert len(_column_blocks(*shape)) == -(-shape[1] // columns)
        expected = np.linalg.norm(matrix, 2)
        assert _spectral_norm(matrix) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("shape", SHAPES + [(225, 225), (512, 512)])
    def test_one_block_is_the_single_gram_product_bit_for_bit(self, shape, complex_entries):
        # 225 x 225 is the 2-site ring at cutoff 14; 512^2 entries fill one block
        matrix = random_matrix(shape, complex_entries, seed=2)
        assert len(_column_blocks(*shape)) == 1
        top = float(np.linalg.eigvalsh(matrix.conj().T @ matrix)[-1])
        assert _spectral_norm(matrix) == math.sqrt(max(top, 0.0))


class TestCanonicalPairs:
    def test_commutation_relation_below_the_edge(self):
        config = FockConfig(1, 12, CHAIN)
        q, p = site_q_p(config, 0)
        defect = DenseOperator(q @ p - p @ q - 1j * np.eye(config.dimension))
        # the truncation only corrupts the top number state
        assert restricted_norm(config, defect, occupation_cap=11) < 1e-13

    def test_cross_site_operators_commute(self):
        config = FockConfig(2, 8, CHAIN)
        q0, _ = site_q_p(config, 0)
        _, p1 = site_q_p(config, 1)
        assert np.array_equal(q0 @ p1, p1 @ q0)

    def test_position_and_momentum_from_ladders(self):
        a = np.diag(np.sqrt(np.arange(1.0, 11.0)), 1)
        ladder, q, p = _site_matrices(10)
        assert np.array_equal(ladder, a)
        assert np.max(np.abs((a + a.T) / math.sqrt(2.0) - q)) < 1e-15
        assert np.max(np.abs(-1j * (a - a.T) / math.sqrt(2.0) - p)) < 1e-15


class TestHamiltonian:
    def test_exactly_symmetric(self):
        h = build_hamiltonian(FockConfig(2, 12, CHAIN)).entries
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("sites, cutoffs", [(1, (6, 11)), (2, (6, 9, 16, 23)), (3, (6, 8))])
    @pytest.mark.parametrize("params", [CHAIN, DECOUPLED, HarmonicParameters(0.83, (0.37,))])
    def test_equals_the_per_bond_loop_bit_for_bit(self, sites, cutoffs, params):
        """The 2-site ring's doubled bond, squared once and added twice, gives
        the bits of one square per bond, in bond order.  On 3 sites the bond
        square is a GEMM on two sites instead of n x n, whose sums of a few
        nonzero products run in another order: within 64 eps max|H| (measured
        below 1 eps max|H|), and still exactly symmetric."""

        def per_bond(config):
            n, cutoff = config.sites, config.cutoff
            omega, lam = config.params.omega, config.params.couplings[0]
            a, q_site, _ = _site_matrices(cutoff)
            anti = a - a.T
            h_site = -0.5 * (anti @ anti) + omega**2 * (q_site @ q_site)
            total = np.zeros((config.dimension, config.dimension))
            for site in range(n):
                total += embed(h_site, site, n, cutoff)
            if n > 1 and lam != 0.0:
                q_embedded = [embed(q_site, site, n, cutoff) for site in range(n)]
                for site in range(n):
                    diff = q_embedded[site] - q_embedded[(site + 1) % n]
                    total += lam * (diff @ diff)
            return total

        for cutoff in cutoffs:
            config = FockConfig(sites, cutoff, params)
            h, expected = build_hamiltonian(config).entries, per_bond(config)
            if sites < 3:
                assert np.array_equal(h, expected)
            else:
                scale = np.finfo(float).eps * np.max(np.abs(expected))
                assert np.max(np.abs(h - expected)) <= 64 * scale
                assert np.array_equal(h, h.T)

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

    @pytest.mark.parametrize("count", [0, -2, 2.0, True, "3"])
    def test_a_count_below_one_or_not_an_integer_is_a_named_error(self, count):
        with pytest.raises(DomainError, match="count"):
            hamiltonian_spectrum(FockConfig(1, 10, CHAIN), count)

    def test_a_numpy_integer_count_is_accepted(self):
        config = FockConfig(1, 10, CHAIN)
        expected = hamiltonian_spectrum(config, 3)
        assert np.array_equal(hamiltonian_spectrum(config, np.int64(3)), expected)


class TestAddLocal:
    @staticmethod
    def kron_embedding(block, sites, config):
        """block (x) identity by np.kron, its site axes then moved from (sites, rest) to 0..n-1."""
        n, d = config.sites, config.cutoff + 1
        order = [*sites, *(s for s in range(n) if s not in sites)]
        full = np.kron(block, np.eye(d ** (n - len(sites))))
        axes = [order.index(s) for s in range(n)]
        moved = full.reshape((d,) * 2 * n).transpose(axes + [n + a for a in axes])
        return moved.reshape(full.shape)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "sites, touched",
        [(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1)), (3, (0,)), (3, (1,)), (3, (2,)),
         (3, (0, 1)), (3, (1, 2)), (3, (2, 0))],
    )
    def test_equals_the_np_kron_embedding_bit_for_bit(self, sites, touched, dtype):
        config = FockConfig(sites, 6, CHAIN)
        rng = np.random.default_rng(11)

        def draw(size):
            real = rng.normal(size=(size, size))
            return real + 1j * rng.normal(size=(size, size)) if dtype is complex else real

        block, total = draw((config.cutoff + 1) ** len(touched)), draw(config.dimension)
        expected = total + self.kron_embedding(block, touched, config)
        _add_local(total, block, touched, config)
        assert np.array_equal(total, expected)


class TestWeylMatrix:
    def test_unitarity(self):
        config = FockConfig(2, 16, CHAIN)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.3 - 0.2j)).entries
        defect = w.conj().T @ w - np.eye(config.dimension)
        assert np.max(np.abs(defect)) < 1e-12

    def test_weyl_product_relation_on_matrices(self):
        config = FockConfig(2, 24, CHAIN)
        f = Field.delta(GEO, (0,), 0.3)
        g = Field.delta(GEO, (1,), 0.2 - 0.1j)
        lhs = DenseOperator(weyl_matrix(config, f).entries @ weyl_matrix(config, g).entries)
        phase = cmath.exp(-0.5j * symplectic_form(f, g))
        rhs = DenseOperator(phase * weyl_matrix(config, f + g).entries)
        assert restricted_norm(config, lhs - rhs) < 1e-12

    def test_leakage_gate(self):
        config = FockConfig(2, 8, CHAIN)
        with pytest.raises(TruncationLeakageError) as err:
            weyl_matrix(config, Field.delta(GEO, (0,), 0.4))
        assert err.value.leakage > 1e-6

    @staticmethod
    def kron_weyl(config, f):
        """W(f) as the np.kron of its site factors, and its vacuum leakage."""
        cutoff = config.cutoff
        _, q_site, p_site = _site_matrices(cutoff)
        full = np.array([[1.0]], dtype=complex)
        for amp in _site_amplitudes(config, f):
            if amp == 0:
                factor = np.eye(cutoff + 1, dtype=complex)
            else:
                evals, evecs = np.linalg.eigh(amp.real * q_site + amp.imag * p_site)
                factor = (evecs * np.exp(1j * evals)) @ evecs.conj().T
            full = np.kron(full, factor)
        past = _occupation_grid(config.sites, cutoff) > cutoff - 5
        return full, float(np.linalg.norm(full[:, 0][past]))

    @pytest.mark.parametrize(
        "sites, cutoff, label",
        [(1, 12, 0.3 - 0.2j), (2, 10, 0.15j), (2, 16, 0.2 + 0.1j), (3, 9, 0.08 - 0.04j)],
    )
    def test_kron_rows_equal_np_kron_bit_for_bit(self, sites, cutoff, label):
        config = FockConfig(sites, cutoff, CHAIN)
        labels = [
            Field.delta(GEO, (0,), label),
            Field.delta(GEO, (sites - 1,), label.conjugate()),
            Field.delta(GEO, (0,), label) + Field.delta(GEO, (sites - 1,), -0.5 * label),
        ]
        occupation = _occupation_grid(sites, cutoff)
        for f in labels:
            full, _ = self.kron_weyl(config, f)
            assert np.array_equal(weyl_matrix(config, f).entries, full)
            factors = _weyl_factors(config, f)
            for keep in (
                np.flatnonzero(occupation <= min(8, sites * cutoff)),
                np.array([0]),
                np.array([config.dimension - 1, 3, 0]),
            ):
                assert np.array_equal(_kron_rows(factors, keep), full[keep, :])
                columns = _kron_rows([factor.T for factor in factors], keep).T
                assert np.array_equal(columns, full[:, keep])

    def test_the_oracle_raises_the_same_leakage(self):
        config = FockConfig(2, 8, CHAIN)
        f = Field.delta(GEO, (1,), 0.3 + 0.3j)
        _, leakage = self.kron_weyl(config, f)
        with pytest.raises(TruncationLeakageError) as full:
            weyl_matrix(config, f)
        with pytest.raises(TruncationLeakageError) as oracle:
            commutator_oracle(config, Field.delta(GEO, (0,), 0.01), f, 0.5)
        assert full.value.leakage == leakage > 1e-6
        assert oracle.value.leakage == leakage

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


def site_basis_conjugate(evals, evecs, t, matrix):
    """e^{itH} matrix e^{-itH} with the propagator formed: three dense complex GEMMs."""
    propagator = (evecs * np.exp(1j * t * evals)) @ evecs.conj().T
    return propagator @ matrix @ propagator.conj().T


def check_site_basis_embedding(sites, cutoff, z):
    """volume_compare against site_basis_differences on three time grids, to 1e-13."""
    small, large = FockConfig(sites[0], cutoff, CHAIN), FockConfig(sites[1], cutoff, CHAIN)
    family = None if z is None else cosine_family(GEO, [(0,), (1,), (2,)], z=z)
    op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05 - 0.02j))
    expected = site_basis_differences(small, large, family, op, (0.0, 0.3, -0.6))
    grids = [((0.0,), expected[0]), ((0.3,), expected[1]), ((0.3, -0.6), max(expected[1:]))]
    for t_grid, value in grids:
        measured = volume_compare(small, large, family, op, t_grid)
        assert measured == pytest.approx(value, rel=1e-13, abs=1e-13)


def site_basis_differences(small, large, family, operator, times):
    """The norms volume_compare maximizes, in the site basis: np.kron
    embeddings and dense conjugations, one norm per time."""

    def eigh(config):
        sites = {(s,) for s in range(config.sites)}
        kept = family.restricted([s for s in family.volume if s in sites]) if family else None
        h = build_hamiltonian(config).entries
        if kept is not None and kept.measures:
            h = h + perturbation_matrix(config, kept).entries
        return np.linalg.eigh(h)

    pad = np.eye((small.cutoff + 1) ** (large.sites - small.sites))
    embedded = np.kron(operator.entries, pad)
    eigh_small, eigh_large = eigh(small), eigh(large)
    norms = []
    for t in times:
        moved_small = np.kron(site_basis_conjugate(*eigh_small, t, operator.entries), pad)
        moved_large = site_basis_conjugate(*eigh_large, t, embedded)
        norms.append(np.linalg.norm(moved_small - moved_large, 2))
    return norms


class TestEigenbasisConjugation:
    @pytest.mark.parametrize("z", [None, 0.2, 0.15 + 0.1j])
    def test_matches_the_site_basis_propagators(self, z):
        # z = None is H itself; a complex z gives complex eigenvectors of H + P
        config = FockConfig(2, 10, CHAIN)
        h = build_hamiltonian(config).entries
        if z is not None:
            h = h + perturbation_matrix(config, cosine_family(GEO, [(0,), (1,)], z=z)).entries
        evals, evecs = np.linalg.eigh(h)
        observables = [
            weyl_matrix(config, Field.delta(GEO, (0,), 0.15 + 0.03j)).entries,
            site_q_p(config, 1)[0],
        ]
        for matrix in observables:
            for t in (0.0, 0.7, -1.3):
                expected = site_basis_conjugate(evals, evecs, t, matrix)
                moved = _conjugate(evals, evecs, t, matrix)
                scale = np.linalg.norm(expected, 2)
                assert np.linalg.norm(moved - expected, 2) <= 1e-13 * scale

    def test_heisenberg_evolution_matches_the_site_basis_propagators(self):
        config = FockConfig(2, 10, CHAIN)
        w = weyl_matrix(config, Field.delta(GEO, (1,), -0.1 + 0.12j))
        evals, evecs = _eigh(config)
        for t in (0.0, 0.4, 1.3):
            expected = site_basis_conjugate(evals, evecs, t, w.entries)
            moved = heisenberg_evolve(config, w, t).entries
            assert np.linalg.norm(moved - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)


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
        moved = evolved.entries
        defect = DenseOperator(moved.conj().T @ moved - np.eye(config.dimension))
        assert defect.norm() < 1e-11

    def test_dimension_guard(self):
        config = FockConfig(2, 10, CHAIN)
        with pytest.raises(DomainError):
            heisenberg_evolve(config, identity(4), 1.0)


class TestRestrictedNorm:
    def test_identity_restricts_to_one(self):
        config = FockConfig(2, 10, CHAIN)
        assert restricted_norm(config, identity(config.dimension)) == 1.0

    def test_restriction_never_exceeds_the_full_norm(self):
        config = FockConfig(2, 10, CHAIN)
        rng = np.random.default_rng(3)
        matrix = DenseOperator(rng.normal(size=(121, 121)))
        assert restricted_norm(config, matrix, occupation_cap=4) <= matrix.norm() + 1e-12

    def test_cap_guards(self):
        config = FockConfig(2, 10, CHAIN)
        eye = identity(config.dimension)
        with pytest.raises(DomainError):
            restricted_norm(config, eye, occupation_cap=-1)
        with pytest.raises(DomainError):
            restricted_norm(config, eye, occupation_cap=21)
        with pytest.raises(DomainError):
            restricted_norm(config, identity(4))

    @pytest.mark.parametrize("cap", [2.5, 4.0, True, "3"])
    def test_a_cap_that_is_not_an_integer_is_a_named_error(self, cap):
        config = FockConfig(2, 10, CHAIN)
        with pytest.raises(DomainError, match="integer"):
            restricted_norm(config, identity(config.dimension), occupation_cap=cap)

    def test_a_numpy_integer_cap_is_accepted(self):
        config = FockConfig(2, 10, CHAIN)
        matrix = DenseOperator(np.random.default_rng(5).normal(size=(121, 121)))
        expected = restricted_norm(config, matrix, occupation_cap=4)
        assert restricted_norm(config, matrix, occupation_cap=np.int64(4)) == expected


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

    def test_massless_ring_converges_to_the_exact_algebra_value(self):
        # f has a nonzero position mean, which the massless dynamics accepts.
        # Measured relative errors: 1.65e-2 at cutoff 30, 1.25e-4 at 40.
        f = Field.delta(RING2, (0,), 0.4)
        g = Field.delta(RING2, (1,), -0.3 + 0.2j)
        exact = commutator_norm(f, g, MASSLESS, 0.5)
        errors = [
            abs(commutator_oracle(FockConfig(2, cutoff, MASSLESS), f, g, 0.5) - exact) / exact
            for cutoff in (30, 40)
        ]
        assert 1e-2 < errors[0] < 3e-2
        assert errors[1] < 3e-4

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

    @pytest.mark.parametrize("sites, cutoff", [(2, 10), (2, 21), (3, 9)])
    def test_equals_the_dense_weyl_formula_bit_for_bit(self, sites, cutoff):
        """W(g) formed on K only and one complex copy of V give the bits of the
        slab formula on the full W(g) with numpy's per-product casts."""

        def slab_oracle(config, f, g, t):
            evals, evecs = _eigh(config)
            w_f = weyl_matrix(config, f).entries
            w_g = weyl_matrix(config, g).entries
            cap = min(8, config.sites * config.cutoff)
            keep = np.flatnonzero(_occupation_grid(config.sites, config.cutoff) <= cap)
            phases = np.exp(1j * float(t) * evals)
            u_rows = (evecs[keep, :] * phases) @ evecs.T
            rows = ((u_rows @ w_f) @ evecs * phases.conj()) @ evecs.T
            columns = evecs @ (phases[:, None] * (evecs.T @ (w_f @ u_rows.conj().T)))
            return _spectral_norm(rows @ w_g[:, keep] - w_g[keep, :] @ columns)

        config = FockConfig(sites, cutoff, HarmonicParameters(0.7, (0.4,)))
        last = sites - 1
        labels = [
            Field.delta(GEO, (0,), 0.09),
            Field.delta(GEO, (last,), -0.07 + 0.08j),
            Field.delta(GEO, (0,), 0.06 - 0.05j) + Field.delta(GEO, (last,), 0.08j),
        ]
        for f in labels:
            for g in labels:
                for t in (0.0, 0.37, 1.3):
                    assert commutator_oracle(config, f, g, t) == slab_oracle(config, f, g, t)

    def test_peak_memory_holds_no_n_by_n_weyl_matrix_of_g(self):
        # W(f), the complex copy of V and |K| x n slabs (2.29 n^2 complex
        # entries at n = 961); an n x n W(g) would add one more
        config = FockConfig(2, 30, CHAIN)
        f = Field.delta(RING2, (0,), 0.3)
        g = Field.delta(RING2, (1,), -0.2 + 0.25j)
        commutator_oracle(config, f, g, 0.7)  # fills the eigh cache
        tracemalloc.start()
        try:
            commutator_oracle(config, f, g, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * config.dimension**2 * 16


class TestPerturbationMatrix:
    def test_exactly_hermitian(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        p = perturbation_matrix(config, family).entries
        assert np.array_equal(p, p.conj().T)

    @pytest.mark.parametrize("z,dtype", [(0.2, np.float64), (0.15 + 0.1j, np.complex128)])
    def test_real_labels_give_a_real_matrix(self, z, dtype):
        config = FockConfig(2, 10, CHAIN)
        p = perturbation_matrix(config, cosine_family(GEO, [(0,), (1,)], z=z))
        assert p.entries.dtype == dtype
        assert np.array_equal(p.entries, p.entries.conj().T)

    def test_zero_atom_gives_a_multiple_of_the_identity(self):
        from lrlattice import AtomicWeylMeasure

        config = FockConfig(1, 8, CHAIN)
        measure = AtomicWeylMeasure(sites=((0,),), atoms=(((0j,), 0.7),))
        family = PerturbationFamily(GEO, ((0,),), (measure,))
        p = perturbation_matrix(config, family)
        assert np.max(np.abs(p.entries - 0.7 * np.eye(config.dimension))) == 0.0

    @staticmethod
    def full_weyl_assembly(config, family):
        """The n x n assembly: weyl_matrix per atom, then weight (W + W^dag)."""
        real = all(v.imag == 0 for m in family.measures for z, _ in m.atoms for v in z)
        total = np.zeros((config.dimension, config.dimension), dtype=float if real else complex)
        for measure in family.measures:
            for z, weight in measure.atoms:
                if all(value == 0 for value in z):
                    total += weight * np.eye(config.dimension)
                    continue
                field = Field(family.geometry, dict(zip(measure.sites, z)))
                w = weyl_matrix(config, field).entries
                w = w.real if real else w
                total += weight * (w + w.conj().T)
        return total

    @pytest.mark.parametrize(
        "sites, kind",
        [(2, "ring"), *((n, k) for n in (2, 3) for k in ("real", "complex", "zero, two-site"))],
    )
    def test_equals_the_full_weyl_assembly_bit_for_bit(self, sites, kind):
        from lrlattice import AtomicWeylMeasure

        config = FockConfig(sites, 10 if sites == 2 else 9, CHAIN)
        chain = [(s,) for s in range(sites)]
        if kind == "ring":
            family = cosine_family(RING2, chain, z=0.1 - 0.06j, weight=0.8)
        elif kind == "zero, two-site":
            measures = (
                AtomicWeylMeasure(sites=((0,),), atoms=(((0j,), 0.7), ((0.1,), 0.3))),
                AtomicWeylMeasure(sites=((0,), (sites - 1,)), atoms=(((0.08, -0.05j), 0.4),)),
                AtomicWeylMeasure(sites=((0,), (1,)), atoms=(((0.06, 0.0), 0.25),)),
            )
            family = PerturbationFamily(GEO, tuple(chain), measures)
        else:
            family = cosine_family(GEO, chain, z=0.12 if kind == "real" else 0.1 + 0.05j)
        p = perturbation_matrix(config, family).entries
        expected = self.full_weyl_assembly(config, family)
        assert p.dtype == expected.dtype
        assert np.array_equal(p, expected)

    def test_a_leaking_atom_raises(self):
        config = FockConfig(3, 8, CHAIN)
        with pytest.raises(TruncationLeakageError) as err:
            perturbation_matrix(config, cosine_family(GEO, [(0,), (2,)], z=0.4))
        assert err.value.leakage > 1e-6

    def test_norm_bounded_by_total_mass(self):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2, weight=0.5)
        total = math.fsum(w for m in family.measures for _, w in m.iter_atoms())
        assert perturbation_matrix(config, family).norm() <= total + 1e-12


def direct_simpson_residual(config, family, w, t, steps):
    """The Simpson residual with both propagators applied as full matrices at every node."""
    p_entries = perturbation_matrix(config, family).entries
    evals_h, evecs_h = _eigh(config)
    evals_p, evecs_p = np.linalg.eigh(build_hamiltonian(config).entries + p_entries)
    evolved = site_basis_conjugate(evals_p, evecs_p, t, w.entries)
    free = site_basis_conjugate(evals_h, evecs_h, t, w.entries)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t / steps / 3.0
    integral = np.zeros_like(evolved)
    for s, weight in zip(np.linspace(0.0, t, steps + 1), weights):
        inner = site_basis_conjugate(evals_h, evecs_h, t - s, w.entries)
        bracket = p_entries @ inner - inner @ p_entries
        integral += weight * site_basis_conjugate(evals_p, evecs_p, s, bracket)
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
        w = identity(config.dimension)
        with pytest.raises(DomainError):
            perturbed_evolve(config, family, w, 0.5, quad_steps=7)
        with pytest.raises(DomainError):
            perturbed_evolve(config, family, w, 0.5, quad_steps=0)

    @pytest.mark.parametrize("steps", [16.0, True, "16"])
    def test_a_non_integer_step_count_is_a_named_error(self, steps):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,)], z=0.2)
        w = identity(config.dimension)
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
        w = identity(config.dimension)
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

    @pytest.mark.parametrize(
        "sites, cutoff, z",
        [
            ((2, 3), 8, 0.05),
            ((2, 3), 8, 0.04 + 0.03j),
            ((1, 3), 8, None),
            ((1, 2), 10, 0.04 + 0.03j),
            ((2, 2), 10, 0.05),
        ],
    )
    def test_matches_the_site_basis_embedding(self, sites, cutoff, z):
        # (2, 2) compares equal volumes, where nothing is padded and the
        # difference is pure roundoff, as it is at t = 0
        check_site_basis_embedding(sites, cutoff, z)

    @pytest.mark.parametrize("z", [0.05, 0.04 + 0.03j])
    def test_matches_the_site_basis_embedding_in_blocks_of_seven_columns(self, monkeypatch, z):
        # 729 = 104 blocks of 7 columns and one of 1, in the difference and in its Gram matrix
        monkeypatch.setattr(fock, "_BLOCK_ENTRIES", 7 * 729)
        check_site_basis_embedding((2, 3), 8, z)

    @pytest.mark.parametrize("z", [0.05, 0.04 + 0.03j])
    def test_peak_memory_is_two_buffers_and_a_few_blocks(self, z):
        # The difference and the Gram matrix of its norm, plus blocks of 359
        # of the 729 columns (2.74 and 2.51 n^2 16 B measured); a conjugate
        # copy of the difference or of complex eigenvectors would be another.
        small, large = FockConfig(2, 8, CHAIN), FockConfig(3, 8, CHAIN)
        family = cosine_family(GEO, [(0,), (1,), (2,)], z=z)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05))
        volume_compare(small, large, family, op, (0.5,))  # fills the eigh caches
        tracemalloc.start()
        try:
            volume_compare(small, large, family, op, (0.5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * large.dimension**2 * 16

    @pytest.mark.parametrize("z", [0.05, 0.04 + 0.03j])
    def test_lift_equals_the_conjugate_copy_bit_for_bit(self, z):
        """V^* Y applied as conj(V^T conj(Y)), and the phase applied in place, give the bits
        of V^* Y with V^* formed and of _phased, on the same column blocks."""
        small, large = FockConfig(2, 8, CHAIN), FockConfig(3, 8, CHAIN)
        family = cosine_family(GEO, [(0,), (1,), (2,)], z=z)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05 - 0.02j)).entries
        evals_small, evecs_small = _eigh(small, family.restricted([(0,), (1,)]))
        evals, evecs = _eigh(large, family.restricted([(0,), (1,), (2,)]))
        assert np.iscomplexobj(evecs) == isinstance(z, complex)
        back = evecs.conj().T
        blocks = _column_blocks(*evecs.shape)
        assert len(blocks) == 3  # 359, 359 and 11 columns

        def lifted(m):
            parts = [(m @ evecs[:, j].reshape(len(m), -1)).reshape(len(evecs), -1) for j in blocks]
            return np.hstack([_product(back, part) for part in parts])

        for t in (0.0, 0.3, -0.6):
            small_t = _conjugate(evals_small, evecs_small, t, op)
            expected = _spectral_norm(_phased(evals, -t, lifted(small_t)) - lifted(op))
            assert volume_compare(small, large, family, DenseOperator(op), (t,)) == expected

    @pytest.mark.parametrize("z", [0.05, 0.04 + 0.03j])
    def test_a_cold_call_keeps_no_perturbation_matrix(self, z):
        # A cold call also allocates the large volume's cached eigenvectors,
        # which outlive it (2.75 and 2.52 n^2 16 B besides them measured); a
        # cached P would add one or two.
        small, large = FockConfig(2, 8, CHAIN), FockConfig(3, 8, CHAIN)
        family = cosine_family(GEO, [(0,), (1,), (2,)], z=z)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05))
        _eigh.cache_clear()
        tracemalloc.start()
        try:
            volume_compare(small, large, family, op, (0.5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cached = _eigh(large, family.restricted([(0,), (1,), (2,)]))
        assert len(cached) == 2
        assert peak <= 2.8 * large.dimension**2 * 16 + cached[1].nbytes

    def test_validation(self):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = identity(small.dimension)
        with pytest.raises(DomainError):
            volume_compare(large, small, None, identity(large.dimension), (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, FockConfig(3, 12, CHAIN), None, op, (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, FockConfig(3, 10, DECOUPLED), None, op, (0.5,))
        with pytest.raises(DomainError):
            volume_compare(small, large, None, identity(4), (0.5,))

    @pytest.mark.parametrize("t_grid", [(0.25, math.nan), (math.inf,)])
    def test_a_non_finite_time_is_a_named_error(self, t_grid):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = identity(small.dimension)
        with pytest.raises(DomainError, match="t_grid"):
            volume_compare(small, large, None, op, t_grid)

    def test_an_empty_time_grid_is_a_named_error(self):
        small = FockConfig(2, 10, CHAIN)
        large = FockConfig(3, 10, CHAIN)
        op = identity(small.dimension)
        with pytest.raises(DomainError, match="t_grid"):
            volume_compare(small, large, None, op, ())


def count_eighs(monkeypatch, dimension=None):
    """Record the shape of every np.linalg.eigh call (of one dimension, if given)."""
    calls = []
    real = np.linalg.eigh

    def counted(matrix, *args, **kwargs):
        if dimension is None or matrix.shape[0] == dimension:
            calls.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestEigenbasisReuse:
    def test_a_dyson_ladder_and_its_free_evolution_run_two_eighs(self, monkeypatch):
        config = FockConfig(2, 10, CHAIN)
        family = cosine_family(GEO, [(0,), (1,)], z=0.2)
        w = weyl_matrix(config, Field.delta(GEO, (0,), 0.2 + 0.1j))
        _eigh.cache_clear()
        fock._rungs.clear()
        calls = count_eighs(monkeypatch, config.dimension)
        for steps in (16, 32, 64):
            perturbed_evolve(config, family, w, 0.5, steps)
        heisenberg_evolve(config, w, 0.5)
        assert len(calls) == 2  # H and H + P

    def test_a_repeated_volume_compare_runs_no_eigh(self, monkeypatch):
        small, large = FockConfig(2, 8, CHAIN), FockConfig(3, 8, CHAIN)
        family = cosine_family(GEO, [(0,), (1,), (2,)], z=0.05)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05))
        first = volume_compare(small, large, family, op, (0.5,))
        calls = count_eighs(monkeypatch)
        assert volume_compare(small, large, family, op, (0.5,)) == first
        assert calls == []

    def test_a_family_without_measures_shares_the_free_eigenbasis(self, monkeypatch):
        small, large = FockConfig(2, 8, CHAIN), FockConfig(3, 8, CHAIN)
        op = weyl_matrix(small, Field.delta(GEO, (0,), 0.05))
        volume_compare(small, large, None, op, (0.5,))
        calls = count_eighs(monkeypatch)
        heisenberg_evolve(large, identity(large.dimension), 0.5)
        assert calls == []


class TestDiagonalizationDefect:
    def test_fourier_normal_form_matches_below_the_edge(self):
        assert diagonalization_defect(FockConfig(2, 12, CHAIN)) < 1e-8

    def test_massless_mode_is_singular(self):
        with pytest.raises(SingularModeError):
            diagonalization_defect(FockConfig(2, 12, MASSLESS))
