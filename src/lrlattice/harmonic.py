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
    ball_sites,
    ordered_sum,
    shell_count,
    site_sort_key,
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
    the imaginary part of a momentum test function.  Entries exactly equal
    to zero are dropped so supports stay finite and comparisons clean.
    """

    __slots__ = ("geometry", "_entries")

    def __init__(self, geometry: LatticeGeometry, entries: Mapping[Site, complex] | None = None):
        self.geometry = geometry
        data: dict[Site, complex] = {}
        if entries:
            for site, val in entries.items():
                site = geometry.site(site)
                val = complex(val)
                if val != 0:
                    data[site] = data.get(site, 0.0) + val
                    if data[site] == 0:
                        del data[site]
        self._entries = data

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
        L = geometry.half_side
        entries = {}
        for idx in np.ndindex(*dense.shape):
            val = complex(dense[idx])
            if val != 0:
                # Array index i in [0, 2L) stands for coordinate i when
                # i <= L and for i - 2L otherwise, keeping sites in (-L, L].
                site = tuple(i if i <= L else i - n for i in idx)
                entries[site] = val
        return cls(geometry, entries)

    def to_dense(self) -> np.ndarray:
        if not self.geometry.is_torus:
            raise GeometryMismatchError("only torus fields have a dense representation")
        n = self.geometry.extent
        out = np.zeros((n,) * self.geometry.dimension, dtype=complex)
        for site, val in self._entries.items():
            out[tuple(c % n for c in site)] = val
        return out

    @property
    def entries(self) -> dict[Site, complex]:
        return dict(self._entries)

    def value(self, site) -> complex:
        return self._entries.get(self.geometry.site(site), 0.0 + 0.0j)

    def support(self) -> tuple[Site, ...]:
        return tuple(sorted(self._entries, key=site_sort_key))

    def items_sorted(self):
        for site in self.support():
            yield site, self._entries[site]

    def is_zero(self) -> bool:
        return not self._entries

    def support_radius(self) -> int:
        if not self._entries:
            return 0
        return max(sum(abs(c) for c in site) for site in self._entries)

    def _check_same_geometry(self, other: "Field"):
        if self.geometry != other.geometry:
            raise GeometryMismatchError("fields live on different geometries")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_geometry(other)
        merged = dict(self._entries)
        for site, val in other._entries.items():
            merged[site] = merged.get(site, 0.0) + val
        return Field(self.geometry, merged)

    def __sub__(self, other: "Field") -> "Field":
        return self + (-other)

    def __neg__(self) -> "Field":
        return Field(self.geometry, {s: -v for s, v in self._entries.items()})

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.geometry, {s: scalar * v for s, v in self._entries.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "Field":
        return Field(self.geometry, {s: v.conjugate() for s, v in self._entries.items()})

    def norm_l1(self) -> float:
        return ordered_sum(abs(v) for _, v in self.items_sorted())

    def norm_l2(self) -> float:
        return math.sqrt(ordered_sum(abs(v) ** 2 for _, v in self.items_sorted()))

    def inner(self, other: "Field") -> complex:
        """Inner product, antilinear in self."""
        self._check_same_geometry(other)
        small, big = self._entries, other._entries
        if len(big) < len(small):
            return sum(big[s].conjugate() * small[s] for s in big if s in small).conjugate()
        return sum(small[s].conjugate() * big[s] for s in small if s in big)

    def max_abs_diff(self, other: "Field") -> float:
        self._check_same_geometry(other)
        sites = set(self._entries) | set(other._entries)
        if not sites:
            return 0.0
        return max(abs(self._entries.get(s, 0.0) - other._entries.get(s, 0.0)) for s in sites)

    def mean_real(self) -> float:
        return float(ordered_sum(v.real for _, v in self.items_sorted()))

    def __repr__(self):
        n = len(self._entries)
        return f"Field(dim={self.geometry.dimension}, support={n})"


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
    sites_arr = np.asarray(sites, dtype=np.int64).reshape(len(sites), d)

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
    mean = abs(field.mean_real())
    if mean > 1e-12 * max(field.norm_l1(), 1e-300):
        raise ZeroModeError(
            "massless evolution requires the position part to have zero lattice mean; "
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
    box = np.zeros((2 * radius + 1,) * len(kernel.sites[0]), dtype=float)
    idx = np.asarray(kernel.sites, dtype=np.int64) + radius
    box[tuple(idx[:, j] for j in range(idx.shape[1]))] = kernel.samples
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

    entries = {}
    for site in ball_sites(d, out_radius):
        idx = tuple(c + out_radius for c in site)
        v = complex(out[idx])
        if v != 0:
            entries[site] = v
    return Field(geometry, entries)
