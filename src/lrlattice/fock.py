"""Brute-force oracle on truncated multi-site Fock spaces.

Operators are dense matrices: 1 to 3 oscillators, each truncated to boson
numbers <= N, a periodic chain Hamiltonian, Weyl operators built as exact
matrix exponentials, and Heisenberg / perturbed (Dyson) evolution by
Hermitian eigendecomposition.  H and the perturbation add each term as a
block on the sites it touches; the commutator oracle forms only the
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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonic import Field, HarmonicParameters, _check_time
from .lattice import DomainError, GeometryMismatchError, LatticeGeometry, _is_int
from .perturbations import PerturbationFamily

__all__ = [
    "TruncationLeakageError",
    "FockConfig",
    "DenseOperator",
    "build_hamiltonian",
    "weyl_matrix",
    "heisenberg_evolve",
    "restricted_norm",
    "perturbation_matrix",
    "perturbed_evolve",
    "commutator_oracle",
    "volume_compare",
]

MAX_DIMENSION = 250_000
LEAKAGE_LIMIT = 1e-6
OCCUPATION_CAP = 8

# Entries in one block of columns: _spectral_norm forms M^* M a block of rows
# at a time and volume_compare its difference a block of columns at a time
# (at least one column), 4 MB of complex entries.
_BLOCK_ENTRIES = 2**18


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
        if not _is_int(self.sites) or not 1 <= self.sites <= 3:
            raise DomainError(f"sites must be an integer from 1 to 3, got {self.sites!r}")
        if not _is_int(self.cutoff) or self.cutoff < 6:
            # below 6 there is no room for the leakage check past cutoff - 5
            raise DomainError(f"cutoff must be an integer of at least 6, got {self.cutoff!r}")
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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return _spectral_norm(self.entries)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.entries - other.entries)


def _column_blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``width`` columns, each of at most _BLOCK_ENTRIES entries over ``rows`` rows."""
    step = max(_BLOCK_ENTRIES // max(rows, 1), 1)
    return [slice(start, start + step) for start in range(0, width, step)]


def _spectral_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm, the root of the top eigenvalue of M^* M: one Hermitian solve, as fast
    as an SVD at the 45 x 45 block and faster above.

    Rows J of M^* M are M[:, J]^* M, written into one preallocated Gram matrix, so the
    conjugate of only one block of columns is held at a time: M, M^* M and one block, not
    a full conjugate copy of M.  A matrix of at most _BLOCK_ENTRIES entries is one block,
    the single product M^* M.  A temporary M is freed before eigvalsh.
    """
    width = matrix.shape[1]
    gram = np.empty((width, width), dtype=matrix.dtype)
    for columns in _column_blocks(*matrix.shape):
        np.matmul(matrix[:, columns].conj().T, matrix, out=gram[columns])
    del matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0))


def _occupation_grid(sites: int, cutoff: int) -> np.ndarray:
    """Total boson number of each product basis state (site 0 leftmost)."""
    occupation = np.zeros(1)
    for _ in range(sites):
        occupation = (occupation[:, None] + np.arange(cutoff + 1)[None, :]).ravel()
    return occupation


def restricted_norm(
    config: FockConfig, operator: DenseOperator, occupation_cap: int = OCCUPATION_CAP
) -> float:
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
    if not _is_int(occupation_cap) or not 0 <= occupation_cap <= config.sites * config.cutoff:
        raise DomainError(
            f"occupation cap must be an integer in [0, total occupancy], got {occupation_cap!r}"
        )
    keep = _occupation_grid(config.sites, config.cutoff) <= occupation_cap
    return _spectral_norm(operator.entries[np.ix_(keep, keep)])


def _site_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-site ladder a, position q = (a + a^T)/sqrt 2, momentum p = -i(a - a^T)/sqrt 2."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    for i in range(cutoff):
        a[i, i + 1] = math.sqrt(i + 1.0)
    return a, (a + a.T) / math.sqrt(2.0), (a - a.T) * (-1j / math.sqrt(2.0))


def _add_local(total: np.ndarray, block: np.ndarray, sites, config: FockConfig) -> None:
    """total += block (x) identity, the block on ``sites`` in its own factor order: through
    a view, only entries where the other sites agree get the block's entry, as np.kron."""
    n, d = config.sites, config.cutoff + 1
    rest = [site for site in range(n) if site not in sites]
    axes = [a for site in rest for a in (site, n + site)] + [*sites] + [n + site for site in sites]
    view = total.reshape((d,) * 2 * n).transpose(axes)
    paired = "".join(2 * chr(ord("a") + k) for k in range(len(rest)))
    np.einsum(f"{paired}...->{paired[::2]}...", view)[...] += block.reshape((d,) * 2 * len(sites))


def build_hamiltonian(config: FockConfig) -> DenseOperator:
    """Periodic-chain Hamiltonian as an exactly symmetric real matrix.

    Single-site pieces and bond squares are assembled from symmetric or
    antisymmetric real factors whose products are symmetric entry for
    entry, so the Hermiticity defect is exactly zero rather than roundoff.

    Terms go in site-locally: lam D^2, D = q (x) 1 - 1 (x) q, is one GEMM on two sites, added
    on each bond (s, s + 1 mod n), twice on (0, 1) for 2 sites (-D -D forms the products of D D;
    2 lam D^2 would round otherwise).  On 3 sites it moves entries by < eps max|H|.
    """
    n, cutoff = config.sites, config.cutoff
    omega, lam = config.params.omega, config.params.couplings[0]
    a, q_site, _ = _site_matrices(cutoff)
    # p^2 = -(a - a^T)^2 / 2 stays real: the antisymmetric factor squares exactly symmetric
    anti = a - a.T
    h_site = -0.5 * (anti @ anti) + omega**2 * (q_site @ q_site)

    total = np.zeros((config.dimension, config.dimension))
    for site in range(n):
        _add_local(total, h_site, (site,), config)
    if n > 1 and lam != 0.0:
        eye = np.eye(cutoff + 1)
        diff = np.kron(q_site, eye) - np.kron(eye, q_site)
        square = diff @ diff
        square *= lam
        for site in range(n):
            # the 2-site ring's (1, 0) is (0, 1) again: a swapped square sums in another order
            _add_local(total, square, (site, (site + 1) % n) if n > 2 else (0, 1), config)
    return DenseOperator(total)


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


def _kron_rows(factors: list[np.ndarray], keep) -> np.ndarray:
    """Rows ``keep`` of kron(factors[0], factors[1], ...), no other row formed.  Each
    entry is the left-to-right complex product ((1 f_0) f_1) ... that np.kron forms."""
    digits = np.unravel_index(keep, tuple(len(factor) for factor in factors)) if factors else ()
    rows = np.ones((len(keep), 1), dtype=complex)
    for factor, digit in zip(factors, digits):
        rows = (rows[:, :, None] * factor[digit, None, :]).reshape(len(rows), -1)
    return rows


def _weyl_factors(config: FockConfig, f: Field) -> list[np.ndarray]:
    """Single-site factors of W(f), site 0 first, after the vacuum leakage check.

    Per-site generators commute, so the exponential factorizes into a
    tensor product of single-site exponentials, each from a Hermitian
    eigendecomposition.  Truncation adequacy is checked on the vacuum
    column of the product: its weight past number cutoff - 5 is rejected
    above 1e-6.
    """
    cutoff = config.cutoff
    _, q_site, p_site = _site_matrices(cutoff)
    factors = []
    for amp in _site_amplitudes(config, f):
        if amp == 0:
            factors.append(np.eye(cutoff + 1, dtype=complex))
        else:
            generator = amp.real * q_site + amp.imag * p_site
            evals, evecs = np.linalg.eigh(generator)
            factors.append((evecs * np.exp(1j * evals)) @ evecs.conj().T)

    vacuum = _kron_rows([factor.T for factor in factors], [0])[0]
    past = _occupation_grid(config.sites, cutoff) > cutoff - 5
    leakage = float(np.linalg.norm(vacuum[past]))
    if leakage > LEAKAGE_LIMIT:
        raise TruncationLeakageError(
            f"vacuum leakage {leakage:.3e} past the cutoff exceeds {LEAKAGE_LIMIT:.0e}; "
            "raise the cutoff or shrink the label",
            leakage,
        )
    return factors


def weyl_matrix(config: FockConfig, f: Field) -> DenseOperator:
    """Matrix Weyl operator exp(i sum_x Re f(x) q_x + Im f(x) p_x), the kron of its site
    factors (:func:`_weyl_factors`); TruncationLeakageError past 1e-6 vacuum leakage."""
    return DenseOperator(_kron_rows(_weyl_factors(config, f), np.arange(config.dimension)))


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right; a real left times a complex right is one real GEMM on the
    float64 view of right's C-contiguous copy, half the flops of a complex one."""
    if np.iscomplexobj(left) or not np.iscomplexobj(right):
        return left @ right
    return (left @ np.ascontiguousarray(right).view(np.float64)).view(np.complex128)


def _rotate(left: np.ndarray, matrix: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ matrix @ right, with matrix @ right = (right^T @ matrix^T)^T."""
    return _product(left, _product(right.T, matrix.T).T)


def _phased(evals: np.ndarray, t: float, matrix: np.ndarray) -> np.ndarray:
    """Phi o matrix, Phi_ij = e^{it(l_i - l_j)}: e^{itH} . e^{-itH} in the eigenbasis of H."""
    phase = np.exp(1j * t * evals)
    out = phase[:, None] * matrix
    out *= phase.conj()
    return out


def _conjugate(evals: np.ndarray, evecs: np.ndarray, t: float, matrix: np.ndarray) -> np.ndarray:
    """e^{itH} matrix e^{-itH} = V (Phi o (V^* matrix V)) V^*, with no propagator
    formed; real eigenvectors (real labels) apply as real GEMMs."""
    back = evecs.conj().T
    return _rotate(evecs, _phased(evals, t, _rotate(back, matrix, evecs)), back)


def heisenberg_evolve(config: FockConfig, operator: DenseOperator, t: float) -> DenseOperator:
    """Free Heisenberg evolution by unitary conjugation."""
    if operator.dim != config.dimension:
        raise DomainError("operator dimension does not match the configuration")
    evals, evecs = _eigh(config)
    return DenseOperator(_conjugate(evals, evecs, float(t), operator.entries))


def perturbation_matrix(config: FockConfig, family: PerturbationFamily) -> DenseOperator:
    """Assemble sum over measures of w (W(z delta_X) + W(-z delta_X)).

    Representative atoms contribute w (W + W^dag), which is Hermitian entry
    for entry; a self-mirrored zero atom contributes its weight once.  When
    every label z is real, W = e^{i z q} is symmetric and the sum equals its
    real part, so the matrix is accumulated and returned real (and exactly
    symmetric, since Re(W_ij + conj W_ji) = Re W_ij + Re W_ji); H + P and
    everything built from it then stay in real arithmetic.  Each W is formed
    on the sites its atom touches, with the entries of the n x n W.
    """
    real = all(v.imag == 0 for m in family.measures for z, _ in m.atoms for v in z)
    total = np.zeros((config.dimension, config.dimension), dtype=float if real else complex)
    geometry = family.geometry
    for measure in family.measures:
        for z, weight in measure.atoms:
            field = Field(geometry, dict(zip(measure.sites, z)))
            factors = _weyl_factors(config, field)
            sites = [s for s, amp in enumerate(_site_amplitudes(config, field)) if amp != 0]
            w = _kron_rows([factors[s] for s in sites], np.arange(len(factors[0]) ** len(sites)))
            w = w.real if real else w
            # a self-mirrored zero atom (W = 1) contributes its weight once
            _add_local(total, weight * (w + w.conj().T if any(z) else w), sites, config)
    return DenseOperator(total)


@lru_cache(maxsize=2)
def _eigh(config: FockConfig, family: PerturbationFamily | None = None):
    """(evals, evecs) of H, or of H + P for a ``family`` with measures (P is added in place
    when real).  Two entries hold one request: H and H + P, or volume_compare's volumes."""
    h = build_hamiltonian(config).entries
    if family is not None:
        p = perturbation_matrix(config, family).entries
        h = np.add(h, p, out=h if p.dtype == h.dtype else None)
        del p  # freed before eigh copies H + P
    return np.linalg.eigh(h)


def _bracket(q: np.ndarray, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q X M^* - M X Q^*, in real GEMMs when Q and M are real (real labels)."""
    return _rotate(q, x, m.conj().T) - _rotate(m, x, q.conj().T)


# Top two trapezoid rungs of the latest perturbed_evolve input: key ->
# (steps, S_{steps/2}, S_steps).  One entry, two n x n complex sums plus the
# operator's bytes in its key; a ladder of calls reuses it.
_rungs: dict = {}


def _trapezoid_rungs(key, steps: int, t: float, node) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums S_{steps/2} and S_steps of ``node`` over [0, t].

    S_q is the q-interval trapezoid sum without its factor t/q (endpoint
    weights 1/2).  The ladder starts at the odd part q0 of ``steps`` and
    doubles, S_{2q} = S_q + (the new odd nodes), so every node is evaluated
    once.  The cache keeps the top two rungs of the latest key; a later call
    on that key whose step count is the cached top rung times a power of two
    continues from it, and any other call starts again at q0.  Both walks
    perform the same operations in the same order, so a warm result equals a
    cold one bit for bit.
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
    _rungs.clear()
    _rungs[key] = (rung, coarse, fine)
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
    products per node, real GEMMs on X's float64 view when P is real;
    alpha_s^P is then the entrywise phase e^{is(l_p,i - l_p,j)}.  The norm
    is unitarily invariant, so the residual is read in that basis too:
    alpha_t^P(A) is the phase of A_p = V_p^* A V_p, alpha_t(A) is M X M^* at s = 0.

    Simpson on q steps is (4 T_q - T_{q/2}) / 3, with the trapezoid sums T
    taken from a ladder of nested grids q0, 2 q0, ..., q (q0 the odd part
    of q) that evaluates each node once.  The top two rungs of the latest
    input are cached under (config, family, t, operator bytes, shape,
    dtype); the key holds the bytes themselves, so operators share an entry
    only when they are equal bit for bit.  The usual ladder of calls 16, 32,
    64 on one input thus evaluates 65 nodes instead of 115.  A call is
    computed the same way whether or not an earlier one was cached, so its
    result does not depend on the call history, bit for bit.
    """
    if operator.dim != config.dimension:
        raise DomainError("operator dimension does not match the configuration")
    if not _is_int(quad_steps):
        raise DomainError(f"quad_steps must be an integer, got {quad_steps!r}")
    steps = int(quad_steps)
    if steps < 2 or steps % 2 != 0:
        raise DomainError("Simpson quadrature needs an even, positive step count")
    t = float(t)
    _check_time(t)
    if not family.measures:
        evolved = heisenberg_evolve(config, operator, t)
        return evolved, 0.0

    evals_h, evecs_h = _eigh(config)
    evals_p, evecs_p = _eigh(config, family)
    a_entries = operator.entries

    back_p = evecs_p.conj().T
    a_p = _rotate(back_p, a_entries, evecs_p)
    a_h = _rotate(evecs_h.conj().T, a_entries, evecs_h)
    overlap = back_p @ evecs_h
    p_cross = back_p @ perturbation_matrix(config, family).entries @ evecs_h

    def node(s):
        return _phased(evals_p, s, _bracket(p_cross, overlap, _phased(evals_h, t - s, a_h)))

    key = (config, family, t, a_entries.tobytes(), a_entries.shape, a_entries.dtype.str)
    coarse, fine = _trapezoid_rungs(key, steps, t, node)
    integral = (2.0 * fine - coarse) * (2.0 * t / (3.0 * steps))

    evolved = _phased(evals_p, t, a_p)
    free = _rotate(overlap, _phased(evals_h, t, a_h), overlap.conj().T)
    residual = _spectral_norm(evolved - free - 1j * integral)
    return DenseOperator(_rotate(evecs_p, evolved, back_p)), float(residual)


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
    the cost is O(|K| n^2) rather than O(n^3).  W(g) is formed on K only
    (:func:`_kron_rows`), and V is cast to complex once for the five mixed
    products instead of once per product; the bits are the same.
    """
    evals, evecs = _eigh(config)
    w_f = weyl_matrix(config, f).entries
    cap = min(OCCUPATION_CAP, config.sites * config.cutoff)
    keep = np.flatnonzero(_occupation_grid(config.sites, config.cutoff) <= cap)
    g_factors = _weyl_factors(config, g)
    g_rows = _kron_rows(g_factors, keep)
    g_columns = np.ascontiguousarray(_kron_rows([factor.T for factor in g_factors], keep).T)

    vecs = evecs.astype(complex)
    phases = np.exp(1j * float(t) * evals)
    u_rows = (evecs[keep, :] * phases) @ vecs.T
    rows = ((u_rows @ w_f) @ vecs * phases.conj()) @ vecs.T
    columns = vecs @ (phases[:, None] * (vecs.T @ (w_f @ u_rows.conj().T)))
    block = rows @ g_columns - g_rows @ columns
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

    The norm is unitarily invariant, so it is taken in the eigenbasis V of
    the large volume: ||V^* (S_t (x) I) V - Phi o V^* (A (x) I) V|| with S_t
    the small-volume evolution of A.  (M (x) I) V[:, J] is M times V[:, J]
    reshaped to (n_small, pad |J|); no n x n embedding or propagator is formed.
    The difference is written into one n x n buffer a block J of columns at a
    time (:data:`_BLOCK_ENTRIES` entries), so besides V the call holds that
    buffer, the Gram matrix of its norm and a few blocks.  At n = 1331 that
    peaks at 2.15 n^2 16 B on cached eigenvectors and at 2.66 with the large
    volume's eigh.
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

    if family is None:
        family = PerturbationFamily.empty(LatticeGeometry.infinite(1))

    def dynamics(config: FockConfig):
        chain = {(s,) for s in range(config.sites)}
        part = family.restricted([s for s in family.volume if s in chain])
        # without measures, H under the one key every reader of H uses
        return _eigh(config, part) if part.measures else _eigh(config)

    evals_small, evecs_small = dynamics(config_small)
    evals, evecs = dynamics(config_large)
    n = config_large.dimension

    def lifted(small: np.ndarray, columns: slice) -> np.ndarray:
        # Columns J of V^* (Y (x) I) V.  V^* X as conj(V^T conj(X)), conjugating in place:
        # no conjugate copy of V.  Negation commutes with rounding, so a real V keeps the
        # bits of V^T X.
        block = evecs[:, columns]
        moved = (small @ block.reshape(len(small), -1)).reshape(block.shape)
        moved = _product(evecs.T, np.conjugate(moved, out=moved))
        return np.conjugate(moved, out=moved)

    def difference(t: float) -> np.ndarray:
        # conj(Phi) on S_t's side, applied in place with _phased's operands in _phased's order
        small_t = _conjugate(evals_small, evecs_small, t, operator.entries)
        phase = np.exp(1j * -t * evals)
        back = phase.conj()
        out = np.empty((n, n), dtype=complex)
        for columns in _column_blocks(n, n):
            moved = lifted(small_t, columns)
            np.multiply(phase[:, None], moved, out=moved)
            moved *= back[columns]
            np.subtract(moved, lifted(operator.entries, columns), out=out[:, columns])
        return out

    return max(_spectral_norm(difference(t)) for t in times)
