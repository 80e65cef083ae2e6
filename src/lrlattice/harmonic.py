"""Harmonic lattice dynamics: dispersion, kernels, and exact propagators.

The model on Z^d (or its torus quotient) is the quadratic Hamiltonian with
on-site frequency ``omega`` and nearest-neighbour couplings ``lambda_j``
along each axis.  Its one-particle dispersion is

    gamma(k)^2 = omega^2 + 4 * sum_j lambda_j * sin^2(k_j / 2),

and the Heisenberg evolution of a Weyl label f decomposes into three real
convolution kernels (m = -1, 0, 1) given by Brillouin-zone integrals of
gamma^m * exp(i (k.x - 2 gamma t)).  This module evaluates those kernels by
midpoint quadrature on a uniform grid offset by half a cell (so the k = 0
singularity of the massless chain is never a node), applies the propagator
either by certified finite convolution on Z^d or exactly on a torus via the
discrete Fourier transform, and certifies truncation windows with explicit
exponential envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .lattice import (
    DomainError,
    GeometryMismatchError,
    LatticeGeometry,
    Site,
    _ball_array,
    _site_keys,
    _torus_sites,
    ball_sites,
    ordered_sum,
    shell_count,
)

__all__ = [
    "HarmonicParameters",
    "Field",
    "QuadratureSpec",
    "Kernel",
    "SingularModeError",
    "ZeroModeError",
    "QuadratureConvergenceError",
    "WindowCertificationError",
    "gamma",
    "bogoliubov_multipliers",
    "compute_kernel",
    "apply_propagator_torus",
    "apply_propagator_convolution",
    "symplectic_form",
    "kernel_envelope",
    "envelope_speed",
    "envelope_prefactor",
    "certified_window",
    "MU_GRID",
]

# Default grid of exponential envelope rates used when optimizing truncation
# windows and decay certificates.
MU_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


class SingularModeError(ArithmeticError):
    """The dispersion vanishes at the requested mode (omega = 0 at k = 0)."""


class ZeroModeError(ValueError):
    """A massless torus operation needs a zero-mean position part.

    With omega = 0 the k = 0 Bogoliubov multipliers diverge; fields whose
    real (position) part has nonzero lattice mean fall outside the domain
    on which the quasi-free machinery is defined.
    """


class QuadratureConvergenceError(RuntimeError):
    """Grid doubling did not reach the requested quadrature tolerance."""

    def __init__(self, message: str, best: "Kernel | None" = None, achieved: float = math.inf):
        super().__init__(message)
        self.best = best
        self.achieved = achieved


class WindowCertificationError(ValueError):
    """A requested truncation window is too small for the tolerance."""

    def __init__(self, message: str, minimal_window: int):
        super().__init__(message)
        self.minimal_window = minimal_window


@dataclass(frozen=True)
class HarmonicParameters:
    """On-site frequency and per-axis couplings of the quadratic model."""

    omega: float
    couplings: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))
        if not all(map(math.isfinite, (self.omega, *self.couplings))):
            raise DomainError("omega and the couplings must be finite")
        if self.omega < 0:
            raise DomainError("omega must be nonnegative")
        if len(self.couplings) < 1:
            raise DomainError("at least one coupling axis is required")
        if any(c < 0 for c in self.couplings):
            raise DomainError("couplings must be nonnegative")
        if self.max_frequency <= 0:
            raise DomainError("omega and the couplings cannot all vanish")

    @property
    def dimension(self) -> int:
        return len(self.couplings)

    @property
    def max_frequency(self) -> float:
        """Top of the dispersion band, sqrt(omega^2 + 4 sum_j lambda_j)."""
        return math.sqrt(self.omega**2 + 4.0 * sum(self.couplings))

    @property
    def is_massless(self) -> bool:
        return self.omega == 0.0


def gamma(params: HarmonicParameters, k) -> float:
    """Dispersion at wave vector ``k`` (a sequence of d angles)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (params.dimension,):
        raise DomainError(f"wave vector must have {params.dimension} components")
    s = sum(4.0 * lam * math.sin(kj / 2.0) ** 2 for lam, kj in zip(params.couplings, k))
    return math.sqrt(params.omega**2 + s)


def _gamma_grid(params: HarmonicParameters, axes: list[np.ndarray]) -> np.ndarray:
    """Dispersion on the tensor grid spanned by per-axis node arrays."""
    d = params.dimension
    total = np.zeros(tuple(len(ax) for ax in axes))
    for j, ax in enumerate(axes):
        contrib = 4.0 * params.couplings[j] * np.sin(ax / 2.0) ** 2
        shape = [1] * d
        shape[j] = len(ax)
        total = total + contrib.reshape(shape)
    return np.sqrt(params.omega**2 + total)


def bogoliubov_multipliers(params: HarmonicParameters, k) -> tuple[float, float]:
    """The pair (gamma^-1/2 + gamma^1/2, gamma^-1/2 - gamma^1/2) at ``k``.

    Raises :class:`SingularModeError` where the dispersion vanishes.  The
    pair satisfies (plus^2 - minus^2) / 4 = 1 identically.
    """
    g = gamma(params, k)
    if g == 0.0:
        raise SingularModeError("dispersion vanishes at k = 0 for a massless chain")
    root = math.sqrt(g)
    return (1.0 / root + root, 1.0 / root - root)


class Field:
    """Finitely supported complex label on a lattice geometry.

    The real part of a field plays the role of a position test function and
    the imaginary part of a momentum test function.  A field stores its
    support as an int64 site array of shape (k, d) in the canonical
    (l1 shell, lexicographic) order of ``site_sort_key``, next to a
    complex128 array of the k values.  Entries exactly equal to zero are
    dropped, so supports stay finite and comparisons clean, and no value
    carries a negative zero.  Duplicate sites in a mapping passed to the
    constructor accumulate in the mapping's order.
    """

    __slots__ = ("geometry", "_sites", "_values")

    def __init__(self, geometry: LatticeGeometry, entries: Mapping[Site, complex] | None = None):
        data: dict[Site, complex] = {}
        if entries:
            for site, val in entries.items():
                site = geometry.site(site)
                val = complex(val)
                if val != 0:
                    data[site] = data.get(site, 0.0) + val
                    if data[site] == 0:
                        del data[site]
        sites = np.array(list(data), dtype=np.int64).reshape(len(data), geometry.dimension)
        values = np.array(list(data.values()), dtype=complex)
        if len(data) > 1:
            order = np.argsort(_site_keys(sites), kind="stable")
            sites, values = sites[order], values[order]
        self.geometry, self._sites, self._values = geometry, sites, values

    @classmethod
    def _from_arrays(cls, geometry: LatticeGeometry, sites: np.ndarray, values) -> "Field":
        """Field on valid, distinct sites in canonical order; exact zeros are dropped."""
        # Adding 0.0 turns negative zeros positive, as the scalar constructor does.
        values = np.asarray(values, dtype=complex) + 0.0
        keep = values != 0
        if not keep.all():
            sites, values = sites[keep], values[keep]
        field = cls.__new__(cls)
        field.geometry, field._sites, field._values = geometry, sites, values
        return field

    @classmethod
    def zero(cls, geometry: LatticeGeometry) -> "Field":
        return cls(geometry, {})

    @classmethod
    def delta(cls, geometry: LatticeGeometry, site, amplitude: complex = 1.0) -> "Field":
        return cls(geometry, {geometry.site(site): complex(amplitude)})

    @classmethod
    def from_dense(cls, geometry: LatticeGeometry, dense: np.ndarray) -> "Field":
        if not geometry.is_torus:
            raise GeometryMismatchError("dense arrays correspond to torus geometries")
        n = geometry.extent
        if dense.shape != (n,) * geometry.dimension:
            raise DomainError(f"dense array must have shape {(n,) * geometry.dimension}")
        # Coordinate c in (-L, L] sits at array index c mod 2L, so index i
        # stands for coordinate i when i <= L and for i - 2L otherwise.
        sites = _torus_sites(geometry.dimension, geometry.half_side)
        return cls._from_arrays(geometry, sites, dense[tuple((sites % n).T)])

    def to_dense(self) -> np.ndarray:
        if not self.geometry.is_torus:
            raise GeometryMismatchError("only torus fields have a dense representation")
        n = self.geometry.extent
        out = np.zeros((n,) * self.geometry.dimension, dtype=complex)
        out[tuple((self._sites % n).T)] = self._values
        return out

    @property
    def entries(self) -> dict[Site, complex]:
        return dict(self.items_sorted())

    def value(self, site) -> complex:
        return complex(self._values_at(np.array([self.geometry.site(site)]))[0])

    def _values_at(self, sites: np.ndarray) -> np.ndarray:
        """Values at the rows of a site array, zero off the support."""
        union, mine, at = _union_rows(self._sites, sites)
        values = np.zeros(len(union), dtype=complex)
        values[mine] = self._values
        return values[at]

    def support(self) -> tuple[Site, ...]:
        return tuple(map(tuple, self._sites.tolist()))

    def items_sorted(self):
        return zip(self.support(), self._values.tolist())

    def is_zero(self) -> bool:
        return len(self._values) == 0

    def support_radius(self) -> int:
        return int(np.abs(self._sites).sum(axis=1).max(initial=0))

    def _aligned(self, other: "Field"):
        """The union of both supports, with each field's values on it (zero off support)."""
        if self.geometry != other.geometry:
            raise GeometryMismatchError("fields live on different geometries")
        sites, mine, theirs = _union_rows(self._sites, other._sites)
        f = np.zeros(len(sites), dtype=complex)
        g = np.zeros(len(sites), dtype=complex)
        f[mine] = self._values
        g[theirs] = other._values
        return sites, f, g

    def __add__(self, other: "Field") -> "Field":
        sites, f, g = self._aligned(other)
        return Field._from_arrays(self.geometry, sites, f + g)

    def __sub__(self, other: "Field") -> "Field":
        return self + (-other)

    def __neg__(self) -> "Field":
        return Field._from_arrays(self.geometry, self._sites, -self._values)

    def __mul__(self, scalar: complex) -> "Field":
        # Python's scalar * value, written out in real parts: numpy's complex
        # multiply fuses the products and rounds differently.
        s = complex(scalar)
        re, im = self._values.real, self._values.imag
        product = np.empty_like(self._values)
        product.real = s.real * re - s.imag * im
        product.imag = s.real * im + s.imag * re
        return Field._from_arrays(self.geometry, self._sites, product)

    __rmul__ = __mul__

    def conjugate(self) -> "Field":
        return Field._from_arrays(self.geometry, self._sites, self._values.conj())

    def _moduli(self) -> list[float]:
        # np.hypot rounds like Python's abs(complex); np.abs on complex
        # arrays does not.
        return np.hypot(self._values.real, self._values.imag).tolist()

    def norm_l1(self) -> float:
        return ordered_sum(self._moduli())

    def norm_l2(self) -> float:
        return math.sqrt(ordered_sum(m**2 for m in self._moduli()))

    def inner(self, other: "Field") -> complex:
        """Inner product, antilinear in self; each part is an exactly rounded sum."""
        _, f, g = self._aligned(other)
        both = (f != 0) & (g != 0)
        fr, fi, gr, gi = f.real[both], f.imag[both], g.real[both], g.imag[both]
        # Python's f.conjugate() * g per site, in real parts as in __mul__.
        return complex(
            ordered_sum((fr * gr + fi * gi).tolist()), ordered_sum((fr * gi - fi * gr).tolist())
        )

    def max_abs_diff(self, other: "Field") -> float:
        _, f, g = self._aligned(other)
        diff = f - g
        return float(np.hypot(diff.real, diff.imag).max(initial=0.0))

    def mean_real(self) -> float:
        return float(ordered_sum(self._values.real.tolist()))

    def __repr__(self):
        n = len(self._values)
        return f"Field(dim={self.geometry.dimension}, support={n})"


def _union_rows(a_sites, b_sites):
    """Canonical union of two site arrays, and the union row of each input row."""
    both = np.concatenate([a_sites, b_sites])
    keys = _site_keys(both)
    # A stable sort merges the two already sorted runs in linear time.
    order = np.argsort(keys, kind="stable")
    first = np.diff(keys[order], prepend=-1) != 0
    rows = np.empty(len(keys), dtype=np.intp)
    rows[order] = np.cumsum(first) - 1
    return both[order[first]], rows[: len(a_sites)], rows[len(a_sites):]


def symplectic_form(f: Field, g: Field) -> float:
    """Imaginary part of the (antilinear-in-first) inner product."""
    if f.geometry != g.geometry:
        raise GeometryMismatchError("fields live on different geometries")
    return float(f.inner(g).imag)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls Brillouin-zone quadrature refinement.

    ``points_per_axis`` is the starting grid (kept even so the half-cell
    offset never lands on k = 0); grids double until two successive ones
    agree to ``refinement_tolerance`` in the max norm over the window.
    """

    points_per_axis: int = 64
    refinement_tolerance: float = 1e-10
    max_refinements: int = 6

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise DomainError("points_per_axis must be at least 8")
        if not self.refinement_tolerance > 0:
            raise DomainError("refinement tolerance must be positive")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be at least 1")


@dataclass(frozen=True)
class Kernel:
    """Sampled propagation kernel on the l1 ball |x| <= window_radius.

    Treat instances as immutable: ``samples`` is shared by cached lookups.
    """

    m: int
    t: float
    window_radius: int
    sites: tuple[Site, ...]
    samples: np.ndarray
    points_per_axis: int
    est_quadrature_error: float

    def value(self, site) -> float:
        site = (site,) if isinstance(site, int) else tuple(int(c) for c in site)
        idx = self._index().get(site)
        if idx is None:
            raise DomainError(f"site {site} outside kernel window {self.window_radius}")
        return float(self.samples[idx])

    def _index(self) -> dict[Site, int]:
        cached = getattr(self, "_site_index", None)
        if cached is None:
            cached = {s: i for i, s in enumerate(self.sites)}
            object.__setattr__(self, "_site_index", cached)
        return cached

    def radii(self) -> np.ndarray:
        return np.array([sum(abs(c) for c in s) for s in self.sites], dtype=np.int64)


def _offset_axis(points: int) -> np.ndarray:
    h = 2.0 * np.pi / points
    return -np.pi + h * (np.arange(points) + 0.5)


def _kernel_samples(
    params: HarmonicParameters, m: int, t: float, sites: np.ndarray, points: int
) -> np.ndarray:
    """Midpoint-rule kernel values at integer sites, via one FFT.

    On the offset grid the quadrature sum is a phase-corrected inverse DFT,
    so all sites in the box (-points/2, points/2)^d come out of a single
    transform.  For m = -1 only the imaginary part is kept, which is the
    member that stays bounded at a massless conical point.
    """
    d = params.dimension
    axes = [_offset_axis(points)] * d
    gam = _gamma_grid(params, axes)
    if m == 0:
        pref = 1.0
    elif m == 1:
        pref = gam
    elif m == -1:
        pref = 1.0 / gam
    else:
        raise DomainError("kernel index m must be -1, 0, or 1")
    grid = pref * np.exp(-2j * gam * t)
    transform = np.fft.ifftn(grid)

    vals = transform[tuple(sites[:, j] % points for j in range(d))]
    base = np.exp(1j * (np.pi / points - np.pi))
    phase = np.ones(len(sites), dtype=complex)
    for j in range(d):
        phase = phase * base ** sites[:, j]
    vals = vals * phase
    return np.real(vals) if m == 0 else np.imag(vals)


def compute_kernel(
    params: HarmonicParameters,
    m: int,
    t: float,
    window_radius: int,
    quad: QuadratureSpec | None = None,
) -> Kernel:
    """Evaluate one propagation kernel on |x| <= window_radius.

    The Brillouin-zone integral is approximated by the midpoint rule on an
    even grid offset by half a cell; the grid doubles until two successive
    resolutions agree to the quadrature tolerance, and that final difference is
    recorded as the quadrature error estimate.
    """
    if window_radius < 0:
        raise DomainError("window_radius must be nonnegative")
    quad = quad or QuadratureSpec()
    d = params.dimension
    sites = ball_sites(d, window_radius)
    sites_arr = _ball_array(d, window_radius)

    # Keep the full tensor grid under ~16M nodes so refinement cannot
    # exhaust memory; the cap is generous for d <= 2 and modest for d = 3.
    max_points = max(int(round((2**24) ** (1.0 / d))), 16)

    points = quad.points_per_axis
    if points % 2:
        points += 1
    while points < 2 * (window_radius + 1):
        points *= 2

    prev = _kernel_samples(params, m, t, sites_arr, points)
    achieved = math.inf
    refinements = 0
    while refinements < quad.max_refinements and 2 * points <= max_points:
        points *= 2
        refinements += 1
        cur = _kernel_samples(params, m, t, sites_arr, points)
        achieved = float(np.max(np.abs(cur - prev)))
        prev = cur
        if achieved <= quad.refinement_tolerance:
            break
    kernel = Kernel(
        m=m,
        t=float(t),
        window_radius=window_radius,
        sites=sites,
        samples=prev,
        points_per_axis=points,
        est_quadrature_error=achieved,
    )
    if achieved <= quad.refinement_tolerance:
        return kernel
    raise QuadratureConvergenceError(
        f"kernel quadrature reached {achieved:.3e} at {points} points per axis, "
        f"tolerance is {quad.refinement_tolerance:.3e}",
        best=kernel,
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# Exponential envelopes and certified truncation windows.


def envelope_speed(params: HarmonicParameters, mu: float) -> float:
    """Envelope propagation speed c * max(2 / mu, e^(mu/2 + 1))."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    c = params.max_frequency
    return c * max(2.0 / mu, math.exp(mu / 2.0 + 1.0))


def envelope_prefactor(params: HarmonicParameters, mu: float) -> float:
    """Combined kernel prefactor 1 + 2 e^(mu/2) c + 2 / c."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    c = params.max_frequency
    return 1.0 + 2.0 * math.exp(mu / 2.0) * c + 2.0 / c


def kernel_envelope(params: HarmonicParameters, m: int, mu: float, radius, t: float):
    """Pointwise envelope coef_m * exp(-mu (|x| - speed |t|)) for kernel m."""
    c = params.max_frequency
    if m == 0:
        coef = 1.0
    elif m == 1:
        coef = c * math.exp(mu / 2.0)
    elif m == -1:
        coef = 1.0 / c
    else:
        raise DomainError("kernel index m must be -1, 0, or 1")
    radius = np.asarray(radius, dtype=float)
    out = coef * np.exp(-mu * (radius - envelope_speed(params, mu) * abs(t)))
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=4096)
def _exp_shell_tail(dimension: int, mu: float, window: int) -> float:
    """Upper bound on sum_{r > window} shell_count(d, r) exp(-mu r)."""
    total = 0.0
    r = window + 1
    term = shell_count(dimension, r) * math.exp(-mu * r)
    while term > 0.0:
        total += term
        nxt = shell_count(dimension, r + 1) * math.exp(-mu * (r + 1))
        ratio = nxt / term
        if ratio < 1.0 and nxt < 1e-18 * max(total, 1e-300):
            # Shell counts grow polynomially, so once the ratio dips below
            # one it stays there and a geometric remainder is an upper bound.
            total += nxt / (1.0 - ratio)
            break
        if r - window > 100_000:
            raise DomainError("shell tail did not stabilize; mu too small")
        r += 1
        term = nxt
    return total


def _truncation_tail(params: HarmonicParameters, t: float, window: int, mu: float) -> float:
    # l1 mass of all three kernels outside the window, by the exponential
    # envelope: (1 + 1/c + c e^(mu/2)) e^(mu v |t|) sum_{r>W} N_d(r) e^(-mu r).
    c = params.max_frequency
    coef = 1.0 + 1.0 / c + c * math.exp(mu / 2.0)
    grow = mu * envelope_speed(params, mu) * abs(t)
    if grow > 700:
        return math.inf
    return coef * math.exp(grow) * _exp_shell_tail(params.dimension, mu, window)


def certified_window(
    params: HarmonicParameters,
    t: float,
    tolerance: float,
    l1_norm: float = 1.0,
    max_window: int = 4096,
) -> int:
    """Smallest truncation radius whose envelope tail is below tolerance.

    The certificate guarantees that dropping all kernel mass outside the
    returned l1 ball changes the propagated field by at most ``tolerance``
    in l1 norm, for inputs of the given l1 size.  The envelope rate is
    optimized over :data:`MU_GRID`.
    """
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    budget = tolerance / max(l1_norm, 1e-300)
    best = None
    for mu in MU_GRID:
        if _truncation_tail(params, t, max_window, mu) > budget:
            continue
        lo, hi = 0, max_window
        # The tail decreases in the window, so bisect for the smallest
        # admissible radius under this envelope rate.
        while lo < hi:
            mid = (lo + hi) // 2
            if _truncation_tail(params, t, mid, mu) <= budget:
                hi = mid
            else:
                lo = mid + 1
        if best is None or lo < best:
            best = lo
    if best is None:
        raise WindowCertificationError(
            f"no window up to {max_window} certifies tolerance {tolerance:.3e} at t = {t}",
            minimal_window=max_window + 1,
        )
    return best


# ---------------------------------------------------------------------------
# Propagators.


def _propagator_symbols(gam: np.ndarray, t: float, massless: bool):
    """Fourier symbols (A, B) with T_t f = A fhat + B conj(f)hat.

    A = cos(2 gamma t) + (i/2)(gamma^-1 + gamma) sin(2 gamma t) and
    B = (i/2)(gamma^-1 - gamma) sin(2 gamma t); at a massless zero mode the
    removable limit sin(2 gamma t) / gamma -> 2 t is substituted.
    """
    cos = np.cos(2.0 * gam * t)
    sin = np.sin(2.0 * gam * t)
    if massless:
        ratio = np.empty_like(gam)
        nz = gam > 0
        ratio[nz] = sin[nz] / gam[nz]
        ratio[~nz] = 2.0 * t
    else:
        ratio = sin / gam
    a = cos + 0.5j * (ratio + gam * sin)
    b = 0.5j * (ratio - gam * sin)
    return a, b


def _torus_gamma(params: HarmonicParameters, geometry: LatticeGeometry) -> np.ndarray:
    n = geometry.extent
    axis = 2.0 * np.pi * np.fft.fftfreq(n)
    return _gamma_grid(params, [axis] * params.dimension)


def _check_torus_setup(field: Field, params: HarmonicParameters) -> LatticeGeometry:
    geometry = field.geometry
    if not geometry.is_torus:
        raise GeometryMismatchError("torus propagator needs a torus geometry")
    if geometry.dimension != params.dimension:
        raise GeometryMismatchError("field and parameters disagree on dimension")
    return geometry


def _reject_nonzero_mean(field: Field):
    """Zero-mode test of massless propagation and states, on the exactly rounded mean."""
    mean = abs(field.mean_real())
    if mean > 1e-12 * max(field.norm_l1(), 1e-300):
        raise ZeroModeError(
            "massless models need the position part to have zero lattice mean; "
            f"got mean magnitude {mean:.3e}"
        )


def _evolve_bogoliubov(dense: np.ndarray, gam: np.ndarray, t: float) -> np.ndarray:
    # Composition (U + V) M_t (U* - V*) with U, V the multiplier /
    # conjugation maps built from the Bogoliubov pair.  Valid for omega > 0
    # where both multipliers are finite on every mode.
    root = np.sqrt(gam)
    plus = 1.0 / root + root
    minus = 1.0 / root - root

    def mult(vec, sym):
        return np.fft.ifftn(sym * np.fft.fftn(vec))

    inner = -0.5j * mult(dense, plus) - 0.5j * mult(np.conj(dense), minus)
    rotated = mult(inner, np.exp(2j * gam * t))
    return 0.5j * mult(rotated, plus) + 0.5j * mult(np.conj(rotated), minus)


def _evolve_multiplier(dense: np.ndarray, gam: np.ndarray, t: float, massless: bool) -> np.ndarray:
    a, b = _propagator_symbols(gam, t, massless)
    out = np.fft.ifftn(a * np.fft.fftn(dense))
    out += np.fft.ifftn(b * np.fft.fftn(np.conj(dense)))
    return out


def apply_propagator_torus(field: Field, params: HarmonicParameters, t: float) -> Field:
    """Evolve a torus label exactly (to roundoff) through the DFT.

    For omega > 0 this is the literal composition of the Bogoliubov
    multiplier maps with the phase multiplier exp(2 i gamma t).  For a
    massless chain the equivalent two-symbol form is used with the
    removable k = 0 limit; the position part must then have zero mean.
    """
    geometry = _check_torus_setup(field, params)
    if field.is_zero():
        return field
    dense = field.to_dense()
    gam = _torus_gamma(params, geometry)
    if params.is_massless:
        _reject_nonzero_mean(field)
        out = _evolve_multiplier(dense, gam, t, massless=True)
    else:
        out = _evolve_bogoliubov(dense, gam, t)
    return Field.from_dense(geometry, out)


def _assemble_kernel_box(kernel: Kernel, radius: int) -> np.ndarray:
    d = len(kernel.sites[0])
    box = np.zeros((2 * radius + 1,) * d, dtype=float)
    box[tuple((_ball_array(d, radius) + radius).T)] = kernel.samples
    return box


def apply_propagator_convolution(
    field: Field,
    params: HarmonicParameters,
    t: float,
    tolerance: float = 1e-10,
    window: int | None = None,
    quad: QuadratureSpec | None = None,
) -> Field:
    """Evolve a finitely supported label on Z^d by certified convolution.

    The three kernels are combined as

        T_t f = f * (H0 - (i/2)(Hm + Hp)) + conj(f) * ((i/2)(Hp - Hm)),

    truncated to an l1 ball whose radius is certified against the
    exponential envelopes so the total error stays below ``tolerance`` in
    l1 norm.  Passing ``window`` overrides the radius; a window smaller
    than the certified one raises :class:`WindowCertificationError` whose
    ``minimal_window`` attribute names the smallest admissible radius.
    """
    geometry = field.geometry
    if geometry.is_torus:
        raise GeometryMismatchError("convolution propagator acts on the infinite lattice")
    if geometry.dimension != params.dimension:
        raise GeometryMismatchError("field and parameters disagree on dimension")
    if field.is_zero():
        return field

    l1 = field.norm_l1()
    minimal = certified_window(params, t, tolerance / 2.0, l1)
    if window is None:
        window = minimal
    elif window < minimal:
        raise WindowCertificationError(
            f"window {window} is below the certified radius {minimal} "
            f"for tolerance {tolerance:.3e} at t = {t}",
            minimal_window=minimal,
        )

    spread = field.support_radius()
    out_radius = window + spread
    ker_radius = window + 2 * spread

    quad = quad or QuadratureSpec()
    ker_tol = min(quad.refinement_tolerance, tolerance / (6.0 * max(l1, 1.0)))
    quad = QuadratureSpec(
        points_per_axis=quad.points_per_axis,
        refinement_tolerance=ker_tol,
        max_refinements=quad.max_refinements,
    )
    kernels = {m: compute_kernel(params, m, t, ker_radius, quad) for m in (-1, 0, 1)}
    box0 = _assemble_kernel_box(kernels[0], ker_radius)
    boxm = _assemble_kernel_box(kernels[-1], ker_radius)
    boxp = _assemble_kernel_box(kernels[1], ker_radius)
    # Symbols as in the module docstring: the kernels are real and even.
    ker_a = box0 - 0.5j * (boxm + boxp)
    ker_b = 0.5j * (boxp - boxm)

    d = params.dimension
    out_shape = (2 * out_radius + 1,) * d
    out = np.zeros(out_shape, dtype=complex)
    for site, val in field.items_sorted():
        offset = tuple(ker_radius - out_radius - c for c in site)
        sl = tuple(slice(o, o + 2 * out_radius + 1) for o in offset)
        out += val * ker_a[sl]
        out += val.conjugate() * ker_b[sl]

    sites = _ball_array(d, out_radius)
    return Field._from_arrays(geometry, sites, out[tuple((sites + out_radius).T)])
