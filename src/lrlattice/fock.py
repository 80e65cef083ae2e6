"""Brute-force oracle on truncated multi-site Fock spaces.

Operators are dense matrices: 1 to 3 oscillators, each truncated to boson
numbers <= N, a periodic chain Hamiltonian, Weyl operators built as exact
matrix exponentials, and Heisenberg / perturbed (Dyson) evolution by
Hermitian eigendecomposition.  The commutator oracle forms only the
low-occupation rows and columns it measures.  The point is independent
ground truth for the exact-arithmetic Weyl algebra: commutator norms, the
Weyl relation, perturbed dynamics, and finite-volume convergence can all be
measured directly here and compared against the closed-form layer.

Conventions match the algebra layer: W(f) = exp(i sum_x Re f(x) q_x +
Im f(x) p_x), H = sum_x p_x^2 + omega^2 q_x^2 + sum_x lambda (q_x -
q_{x+1})^2 with periodic identification, so a 2-site ring carries the
(0,1) bond twice.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonic import Field, HarmonicParameters, SingularModeError, gamma
from .lattice import DomainError, GeometryMismatchError, LatticeGeometry
from .perturbations import PerturbationFamily

__all__ = [
    "TruncationLeakageError",
    "FockConfig",
    "DenseOperator",
    "SiteOperators",
    "build_site_operators",
    "build_hamiltonian",
    "hamiltonian_spectrum",
    "weyl_matrix",
    "heisenberg_evolve",
    "restricted_norm",
    "perturbation_matrix",
    "perturbed_evolve",
    "commutator_oracle",
    "volume_compare",
    "diagonalization_defect",
]

MAX_DIMENSION = 250_000
LEAKAGE_LIMIT = 1e-6


class TruncationLeakageError(ArithmeticError):
    """A Weyl matrix pushed too much vacuum weight against the cutoff."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


@dataclass(frozen=True)
class FockConfig:
    """Truncated periodic chain: ``sites`` oscillators, numbers <= ``cutoff``."""

    sites: int
    cutoff: int
    params: HarmonicParameters

    def __post_init__(self):
        if not 1 <= self.sites <= 3:
            raise DomainError("the oracle handles 1 to 3 sites")
        if self.cutoff < 6:
            raise DomainError("cutoff below 6 leaves no room for leakage accounting")
        if self.params.dimension != 1:
            raise DomainError("the oracle chain is one-dimensional")
        if self.dimension > MAX_DIMENSION:
            raise DomainError(
                f"matrix dimension {self.dimension} exceeds the desk-scale "
                f"guard {MAX_DIMENSION}"
            )

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.sites


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense matrix observable on the truncated product space."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError("operator entries must form a square matrix")
        if not np.all(np.isfinite(entries.real)) or (
            np.iscomplexobj(entries) and not np.all(np.isfinite(entries.imag))
        ):
            raise DomainError("operator entries must be finite")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, dim: int) -> "DenseOperator":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "DenseOperator":
        return DenseOperator(self.entries.conj().T)

    def norm(self) -> float:
        return _spectral_norm(self.entries)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.entries + other.entries)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.entries - other.entries)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.entries @ other.entries)

    def scaled(self, factor: complex) -> "DenseOperator":
        return DenseOperator(factor * self.entries)


def _spectral_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm; large matrices go through one Hermitian solve."""
    if matrix.shape[0] <= 512:
        return float(np.linalg.norm(matrix, 2))
    gram = matrix.conj().T @ matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0))


def _occupation_grid(sites: int, cutoff: int) -> np.ndarray:
    """Total boson number of each product basis state (site 0 leftmost)."""
    occupation = np.zeros(1)
    for _ in range(sites):
        occupation = (occupation[:, None] + np.arange(cutoff + 1)[None, :]).ravel()
    return occupation


def restricted_norm(config: FockConfig, operator: DenseOperator, occupation_cap: int = 8) -> float:
    """Operator norm on the subspace with total occupation <= occupation_cap.

    Any comparison between a truncated operator and its untruncated ideal
    is only meaningful well below the cutoff.  The corruption is not
    confined to the edge: the free propagator of a mode with dispersion g
    couples occupations two quanta apart with strength |g^2 - 1|/(g^2 + 1)
    per pair, so cutoff damage reaches an occupation-K state at strength
    roughly that ratio to the power (reach - K)/2.  Shrinking the cap
    therefore buys exponential accuracy, while the exact algebra values
    being probed (Weyl operators with small labels) are already fully
    represented on a handful of quanta.  The default cap of 8 keeps the
    truncated identity's norm 1 - O(1e-10) for labels up to norm 1.
    """
    if operator.dim != config.dimension:
        raise DomainError("operator dimension does not match the configuration")
    if not 0 <= occupation_cap <= config.sites * config.cutoff:
        raise DomainError("occupation cap must lie between 0 and the total occupancy")
    keep = _occupation_grid(config.sites, config.cutoff) <= occupation_cap
    return _spectral_norm(operator.entries[np.ix_(keep, keep)])


def _site_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-site ladder a, position q = (a + a^T)/sqrt 2, momentum p = -i(a - a^T)/sqrt 2."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    for i in range(cutoff):
        a[i, i + 1] = math.sqrt(i + 1.0)
    return a, (a + a.T) / math.sqrt(2.0), (a - a.T) * (-1j / math.sqrt(2.0))


def _embed(factor: np.ndarray, site: int, sites: int, cutoff: int) -> np.ndarray:
    """Tensor a single-site matrix into position ``site`` (site 0 leftmost)."""
    out = np.array([[1.0]])
    eye = np.eye(cutoff + 1)
    for position in range(sites):
        out = np.kron(out, factor if position == site else eye)
    return out


@dataclass(frozen=True)
class SiteOperators:
    q: DenseOperator
    p: DenseOperator
    a: DenseOperator
    a_dag: DenseOperator


def build_site_operators(config: FockConfig) -> tuple[SiteOperators, ...]:
    """Embedded position, momentum, and ladder matrices for every site."""
    a, q_site, p_site = _site_matrices(config.cutoff)
    out = []
    for site in range(config.sites):
        out.append(
            SiteOperators(
                q=DenseOperator(_embed(q_site, site, config.sites, config.cutoff)),
                p=DenseOperator(_embed(p_site, site, config.sites, config.cutoff)),
                a=DenseOperator(_embed(a, site, config.sites, config.cutoff)),
                a_dag=DenseOperator(_embed(a.T, site, config.sites, config.cutoff)),
            )
        )
    return tuple(out)


def build_hamiltonian(config: FockConfig) -> DenseOperator:
    """Periodic-chain Hamiltonian as an exactly symmetric real matrix.

    Single-site pieces and bond squares are assembled from symmetric or
    antisymmetric real factors whose products are symmetric entry for
    entry, so the Hermiticity defect is exactly zero rather than roundoff.
    """
    n, cutoff = config.sites, config.cutoff
    omega, lam = config.params.omega, config.params.couplings[0]
    a, q_site, _ = _site_matrices(cutoff)
    # p^2 = -(a - a^T)^2 / 2 stays real; the antisymmetric factor squares
    # to an exactly symmetric matrix.
    anti = a - a.T
    p_sq_site = -0.5 * (anti @ anti)
    h_site = p_sq_site + omega**2 * (q_site @ q_site)

    total = np.zeros((config.dimension, config.dimension))
    for site in range(n):
        total += _embed(h_site, site, n, cutoff)
    if n > 1 and lam != 0.0:
        q_embedded = [_embed(q_site, site, n, cutoff) for site in range(n)]
        for site in range(n):
            diff = q_embedded[site] - q_embedded[(site + 1) % n]
            total += lam * (diff @ diff)
    return DenseOperator(total)


@lru_cache(maxsize=4)
def _hamiltonian_eigh(config: FockConfig):
    h = build_hamiltonian(config).entries
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs


def hamiltonian_spectrum(config: FockConfig, count: int = 8) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the truncated Hamiltonian."""
    evals, _ = _hamiltonian_eigh(config)
    return np.array(evals[:count])


def _site_amplitudes(config: FockConfig, f: Field) -> list[complex]:
    """Match a label's geometry to the chain and read per-site amplitudes."""
    geometry = f.geometry
    if geometry.dimension != 1:
        raise GeometryMismatchError("oracle labels must live on a one-dimensional lattice")
    amplitudes = [0j] * config.sites
    if geometry.is_torus:
        if geometry.extent != config.sites:
            raise GeometryMismatchError(
                f"torus extent {geometry.extent} does not match {config.sites} sites"
            )
        for site, value in f.items_sorted():
            amplitudes[site[0] % config.sites] += value
    else:
        for site, value in f.items_sorted():
            if not 0 <= site[0] < config.sites:
                raise DomainError(f"label site {site} outside the chain 0..{config.sites - 1}")
            amplitudes[site[0]] = value
    return amplitudes


def weyl_matrix(config: FockConfig, f: Field) -> DenseOperator:
    """Matrix Weyl operator exp(i sum_x Re f(x) q_x + Im f(x) p_x).

    Per-site generators commute, so the exponential factorizes into a
    tensor product of single-site exponentials, each from a Hermitian
    eigendecomposition.  Truncation adequacy is checked by the vacuum
    leakage past number cutoff - 5 and rejected above 1e-6.
    """
    amplitudes = _site_amplitudes(config, f)
    cutoff = config.cutoff
    _, q_site, p_site = _site_matrices(cutoff)

    full = np.array([[1.0]], dtype=complex)
    vacuum_columns = []
    for amp in amplitudes:
        if amp == 0:
            factor = np.eye(cutoff + 1, dtype=complex)
        else:
            generator = amp.real * q_site + amp.imag * p_site
            evals, evecs = np.linalg.eigh(generator)
            factor = (evecs * np.exp(1j * evals)) @ evecs.conj().T
        vacuum_columns.append(factor[:, 0])
        full = np.kron(full, factor)

    moved = np.array([[1.0]], dtype=complex)
    for column in vacuum_columns:
        moved = np.kron(moved, column.reshape(-1, 1))
    past = _occupation_grid(config.sites, cutoff) > cutoff - 5
    leakage = float(np.linalg.norm(moved.ravel()[past]))
    if leakage > LEAKAGE_LIMIT:
        raise TruncationLeakageError(
            f"vacuum leakage {leakage:.3e} past the cutoff exceeds {LEAKAGE_LIMIT:.0e}; "
            "raise the cutoff or shrink the label",
            leakage,
        )
    return DenseOperator(full)


def _conjugate(evals: np.ndarray, evecs: np.ndarray, t: float, matrix: np.ndarray) -> np.ndarray:
    """e^{itH} matrix e^{-itH} in the eigenbasis of H."""
    propagator = (evecs * np.exp(1j * t * evals)) @ evecs.conj().T
    moved = propagator @ matrix
    moved = moved @ propagator.conj().T
    return moved


def heisenberg_evolve(config: FockConfig, operator: DenseOperator, t: float) -> DenseOperator:
    """Free Heisenberg evolution by unitary conjugation."""
    if operator.dim != config.dimension:
        raise DomainError("operator dimension does not match the configuration")
    evals, evecs = _hamiltonian_eigh(config)
    return DenseOperator(_conjugate(evals, evecs, float(t), operator.entries))


def perturbation_matrix(config: FockConfig, family: PerturbationFamily) -> DenseOperator:
    """Assemble sum over measures of w (W(z delta_X) + W(-z delta_X)).

    Representative atoms contribute w (W + W^dag), which is Hermitian entry
    for entry; a self-mirrored zero atom contributes its weight once.  When
    every label z is real, W = e^{i z q} is symmetric and the sum equals its
    real part, so the matrix is returned real (and exactly symmetric, since
    Re(W_ij + conj W_ji) = Re W_ij + Re W_ji); H + P and everything built
    from it then stay in real arithmetic.
    """
    total = np.zeros((config.dimension, config.dimension), dtype=complex)
    geometry = family.geometry
    for measure in family.measures:
        for z, weight in measure.atoms:
            if all(value == 0 for value in z):
                total += weight * np.eye(config.dimension)
                continue
            field = Field(geometry, dict(zip(measure.sites, z)))
            w_matrix = weyl_matrix(config, field).entries
            total += weight * (w_matrix + w_matrix.conj().T)
    real = all(v.imag == 0 for m in family.measures for z, _ in m.atoms for v in z)
    # copy, so that a cached P does not keep the complex buffer alive
    return DenseOperator(total.real.copy() if real else total)


@lru_cache(maxsize=4)
def _perturbed_eigh(config: FockConfig, family: PerturbationFamily):
    """Eigendecomposition of H + P, cached together with P itself."""
    p = perturbation_matrix(config, family).entries
    evals, evecs = np.linalg.eigh(build_hamiltonian(config).entries + p)
    return evals, evecs, p


def _perturbed_conjugate(
    config: FockConfig, family: PerturbationFamily, entries: np.ndarray, t: float
) -> np.ndarray:
    if not family.measures:
        evals, evecs = _hamiltonian_eigh(config)
    else:
        evals, evecs, _ = _perturbed_eigh(config, family)
    return _conjugate(evals, evecs, t, entries)


def _bracket(q: np.ndarray, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q X M^* - M X Q^*.

    Real Q and M (real labels) act on the real and imaginary parts of X,
    stacked into one 2n x n real matrix, as real GEMMs: half the flops of
    complex products.  Complex Q and M multiply X directly.
    """
    if np.iscomplexobj(q):
        return q @ x @ m.conj().T - m @ x @ q.conj().T
    n = x.shape[0]
    parts = np.vstack((x.real, x.imag))
    out = q @ (parts @ m.T).reshape(2, n, n) - m @ (parts @ q.T).reshape(2, n, n)
    return out[0] + 1j * out[1]


# Top two trapezoid rungs of recent perturbed_evolve inputs, most recent
# last: key -> (steps, S_{steps/2}, S_steps).  Sized like the eigh caches;
# an entry holds two n x n complex sums plus the operator's bytes in its key.
_RUNG_CACHE_SIZE = 4
_rungs: OrderedDict = OrderedDict()


def _trapezoid_rungs(key, steps: int, t: float, node) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums S_{steps/2} and S_steps of ``node`` over [0, t].

    S_q is the q-interval trapezoid sum without its factor t/q (endpoint
    weights 1/2).  The ladder starts at the odd part q0 of ``steps`` and
    doubles, S_{2q} = S_q + (the new odd nodes), so every node is evaluated
    once.  The cache keeps the top two rungs per key; a later call whose
    step count is the cached top rung times a power of two continues from
    it, and any other call starts again at q0.  Both walks perform the same
    operations in the same order, so a warm result equals a cold one bit for
    bit.
    """
    entry = _rungs.get(key)
    if entry is not None and steps % entry[0] == 0 and (steps // entry[0]).bit_count() == 1:
        rung, coarse, fine = entry
    else:
        rung = steps
        while rung % 2 == 0:
            rung //= 2
        nodes = np.linspace(0.0, t, rung + 1)
        fine = 0.5 * (node(nodes[0]) + node(nodes[-1]))
        for s in nodes[1:-1]:
            fine += node(s)
    while rung < steps:
        rung *= 2
        step = t / rung
        added = node(step)
        for k in range(3, rung, 2):
            added += node(k * step)
        coarse, fine = fine, fine + added
    _rungs[key] = (rung, coarse, fine)
    _rungs.move_to_end(key)
    if len(_rungs) > _RUNG_CACHE_SIZE:
        _rungs.popitem(last=False)
    return coarse, fine


def perturbed_evolve(
    config: FockConfig,
    family: PerturbationFamily,
    operator: DenseOperator,
    t: float,
    quad_steps: int = 32,
):
    """Exact evolution under H + P, plus the integral-equation residual.

    Returns (evolved operator, residual): the evolved operator comes from
    the eigendecomposition of the perturbed Hamiltonian, and the residual
    is the norm of

        alpha_t^P(A) - alpha_t(A) - i int_0^t alpha_s^P([P, alpha_{t-s}(A)]) ds

    with the integral evaluated by composite Simpson quadrature on
    ``quad_steps`` intervals.  The residual is pure quadrature error (the
    identity is exact on the truncated space), so it shrinks at order >= 2
    as ``quad_steps`` doubles.

    The quadrature runs in the two eigenbases, H = V_h L_h V_h^* and
    H + P = V_p L_p V_p^*.  With A_h = V_h^* A V_h, M = V_p^* V_h,
    Q = V_p^* P V_h and the free phase X = D A_h D^*, D = diag(e^{i(t-s)
    L_h}), the bracket read in the P-eigenbasis is Q X M^* - M X Q^*, four
    products per node, real GEMMs on Re X and Im X when P is real;
    alpha_s^P is then the entrywise phase e^{is(l_p,i - l_p,j)}, and the
    weighted sum is rotated back by V_p once.

    Simpson on q steps is (4 T_q - T_{q/2}) / 3, with the trapezoid sums T
    taken from a ladder of nested grids q0, 2 q0, ..., q (q0 the odd part
    of q) that evaluates each node once.  The top two rungs are cached per
    (config, family, t, operator bytes, shape, dtype); the key holds the
    bytes themselves, so operators share an entry only when they are equal
    bit for bit.  The usual ladder of calls 16, 32, 64 on one input thus
    evaluates 65 nodes instead of 115.  A call is computed the same way
    whether or not an earlier one was cached, so its result does not depend
    on the call history, bit for bit.
    """
    if operator.dim != config.dimension:
        raise DomainError("operator dimension does not match the configuration")
    if type(quad_steps) is not int and not isinstance(quad_steps, np.integer):
        raise DomainError(f"quad_steps must be an integer, got {quad_steps!r}")
    steps = int(quad_steps)
    if steps < 2 or steps % 2 != 0:
        raise DomainError("Simpson quadrature needs an even, positive step count")
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if not family.measures:
        evolved = heisenberg_evolve(config, operator, t)
        return evolved, 0.0

    evals_h, evecs_h = _hamiltonian_eigh(config)
    evals_p, evecs_p, p_entries = _perturbed_eigh(config, family)
    a_entries = operator.entries

    evolved = _conjugate(evals_p, evecs_p, t, a_entries)
    free = _conjugate(evals_h, evecs_h, t, a_entries)

    back_p = evecs_p.conj().T
    a_h = evecs_h.conj().T @ a_entries @ evecs_h
    overlap = back_p @ evecs_h
    p_cross = back_p @ p_entries @ evecs_h

    def node(s):
        free_phase = np.exp(1j * (t - s) * evals_h)
        bracket = _bracket(p_cross, overlap, free_phase[:, None] * a_h * free_phase.conj())
        phase = np.exp(1j * s * evals_p)
        return phase[:, None] * bracket * phase.conj()

    key = (config, family, t, a_entries.tobytes(), a_entries.shape, a_entries.dtype.str)
    coarse, fine = _trapezoid_rungs(key, steps, t, node)
    integral = (2.0 * fine - coarse) * (2.0 * t / (3.0 * steps))
    integral = evecs_p @ integral @ back_p

    residual = _spectral_norm(evolved - free - 1j * integral)
    return DenseOperator(evolved), float(residual)


def commutator_oracle(config: FockConfig, f: Field, g: Field, t: float) -> float:
    """Norm of [tau_t(W(f)), W(g)] measured directly on matrices.

    The norm is taken on the low-occupation subspace K (total occupation
    <= 8, see :func:`restricted_norm`), which is what converges to the
    exact-algebra value as the cutoff grows.  Only the rows and columns
    that block reads are computed.  With U = e^{itH} = V diag(phi) V^T from
    the Hamiltonian eigenbasis and moved = U W(f) U^*,

        [moved, W(g)]_KK = moved[K,:] W(g)[:,K] - W(g)[K,:] moved[:,K],

    where moved[K,:] = U[K,:] W(f) U^* and moved[:,K] = U W(f) U[K,:]^*.
    Every product carries |K| rows or columns, so after the cached ``eigh``
    the cost is O(|K| n^2) rather than O(n^3).
    """
    evals, evecs = _hamiltonian_eigh(config)
    w_f = weyl_matrix(config, f).entries
    w_g = weyl_matrix(config, g).entries
    cap = min(8, config.sites * config.cutoff)
    keep = np.flatnonzero(_occupation_grid(config.sites, config.cutoff) <= cap)

    phases = np.exp(1j * float(t) * evals)
    u_rows = (evecs[keep, :] * phases) @ evecs.T
    rows = ((u_rows @ w_f) @ evecs * phases.conj()) @ evecs.T
    columns = evecs @ (phases[:, None] * (evecs.T @ (w_f @ u_rows.conj().T)))
    block = rows @ w_g[:, keep] - w_g[keep, :] @ columns
    return _spectral_norm(block)


def volume_compare(
    config_small: FockConfig,
    config_large: FockConfig,
    family: PerturbationFamily | None,
    operator: DenseOperator,
    t_grid,
) -> float:
    """Max difference norm between small- and large-volume evolutions.

    The observable lives on the small volume and is identity-tensored into
    the large one (small sites first).  The perturbation family is
    restricted to whatever fits in each volume; both volumes share the
    cutoff so the embeddings agree.
    """
    if config_small.sites > config_large.sites:
        raise DomainError("the small volume must embed in the large one")
    if config_small.cutoff != config_large.cutoff:
        raise DomainError("volume comparison needs a common per-site cutoff")
    if config_small.params != config_large.params:
        raise DomainError("volume comparison needs common model parameters")
    if operator.dim != config_small.dimension:
        raise DomainError("observable must live on the small volume")
    times = [float(t) for t in t_grid]
    if not times:
        raise DomainError("t_grid must hold at least one time")
    if not all(math.isfinite(t) for t in times):
        raise DomainError(f"t_grid must hold finite times, got {times!r}")

    extra = config_large.sites - config_small.sites
    pad = np.eye((config_small.cutoff + 1) ** extra)
    embedded = np.kron(operator.entries, pad)

    small_sites = {(s,) for s in range(config_small.sites)}
    large_sites = {(s,) for s in range(config_large.sites)}
    if family is None:
        family = PerturbationFamily.empty(LatticeGeometry.infinite(1))
    family_small = family.restricted([s for s in family.volume if s in small_sites])
    family_large = family.restricted([s for s in family.volume if s in large_sites])

    worst = 0.0
    for t in times:
        small_t = _perturbed_conjugate(config_small, family_small, operator.entries, t)
        difference = np.kron(small_t, pad)
        difference -= _perturbed_conjugate(config_large, family_large, embedded, t)
        worst = max(worst, _spectral_norm(difference))
    return worst


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
    site_ops = build_site_operators(config)
    dim = config.dimension

    check = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        k = 2.0 * math.pi * j / n
        g = gamma(config.params, (k,))
        q_k = np.zeros((dim, dim), dtype=complex)
        p_k = np.zeros((dim, dim), dtype=complex)
        for x in range(n):
            phase = np.exp(-1j * k * x) / math.sqrt(n)
            q_k += phase * site_ops[x].q.entries
            p_k += phase * site_ops[x].p.entries
        b_k = (math.sqrt(g) * q_k + 1j / math.sqrt(g) * p_k) / math.sqrt(2.0)
        check += g * (2.0 * (b_k.conj().T @ b_k) + np.eye(dim))

    h = build_hamiltonian(config).entries
    keep = _occupation_grid(n, cutoff) <= cutoff - 2
    defect = (h - check)[np.ix_(keep, keep)]
    return _spectral_norm(defect)
