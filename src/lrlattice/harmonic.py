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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .lattice import (
    DomainError,
    GeometryMismatchError,
    LatticeGeometry,
    Site,
    _coordinates,
    _is_int,
    _site_keys,
    _torus_sites,
    ball_sites,
    shell_count,
)

__all__ = [
    "HarmonicParameters",
    "Field",
    "QuadratureSpec",
    "Kernel",
    "SingularModeError",
    "QuadratureConvergenceError",
    "WindowCertificationError",
    "gamma",
    "bogoliubov_multipliers",
    "compute_kernel",
    "compute_kernels",
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

# Grid doublings a kernel quadrature may take past its starting grid.
MAX_REFINEMENTS = 6

# Quadrature nodes sampled at once: a larger grid is walked in slabs of
# axis-0 indices, each holding about this many nodes (at least one row).
SLAB_NODES = 2**16

# Grid nodes in one stack of requests sampled together, and window-box sites
# in one run of requests whose kernels are held at once.  Stacking saves
# per-call overhead, which only grids of a few thousand nodes notice; larger
# stacks and runs would only raise a batch's peak memory.
_STACK_NODES = 2**13


class SingularModeError(ArithmeticError):
    """The dispersion vanishes at the requested mode (omega = 0 at k = 0)."""


class QuadratureConvergenceError(RuntimeError):
    """Grid doubling did not reach the requested quadrature tolerance."""

    def __init__(
        self,
        message: str,
        best: "Kernel | None" = None,
        kernels: "dict[int, Kernel] | None" = None,
    ):
        super().__init__(message)
        self.best = best
        # Every kernel of a compute_kernels call at its best grid, converged or not.
        self.kernels = kernels or {}


class WindowCertificationError(ValueError):
    """No truncation window up to the search limit certifies the tolerance."""

    def __init__(self, message: str, minimal_window: int):
        super().__init__(message)
        self.minimal_window = minimal_window


def _check_time(t: float):
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")


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
        total += contrib.reshape(shape)
    total += params.omega**2
    return np.sqrt(total, out=total)


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
        return math.fsum(self._moduli())

    def norm_l2(self) -> float:
        return math.sqrt(math.fsum(m**2 for m in self._moduli()))

    def inner(self, other: "Field") -> complex:
        """Inner product, antilinear in self; each part is an exactly rounded sum."""
        _, f, g = self._aligned(other)
        return _exact_inner(f, g)

    def max_abs_diff(self, other: "Field") -> float:
        _, f, g = self._aligned(other)
        diff = f - g
        return float(np.hypot(diff.real, diff.imag).max(initial=0.0))

    def __repr__(self):
        n = len(self._values)
        return f"Field(dim={self.geometry.dimension}, support={n})"


def _exact_inner(f: np.ndarray, g: np.ndarray) -> complex:
    """sum conj(f) g over the entries where both are nonzero, each part exactly rounded."""
    both = (f != 0) & (g != 0)
    fr, fi, gr, gi = f.real[both], f.imag[both], g.real[both], g.imag[both]
    # Python's f.conjugate() * g per site, in real parts as in Field.__mul__.
    return complex(
        math.fsum((fr * gr + fi * gi).tolist()), math.fsum((fr * gi - fi * gr).tolist())
    )


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
    return float(f.inner(g).imag)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls Brillouin-zone quadrature refinement.

    ``points_per_axis`` is the starting grid (kept even so the half-cell
    offset never lands on k = 0); grids double, at most
    :data:`MAX_REFINEMENTS` times, until two successive ones agree to
    ``refinement_tolerance`` in the max norm over the window.
    """

    points_per_axis: int = 64
    refinement_tolerance: float = 1e-10

    def __post_init__(self):
        if not _is_int(self.points_per_axis) or self.points_per_axis < 8:
            raise DomainError(
                f"points_per_axis must be an integer of at least 8, got {self.points_per_axis!r}"
            )
        if not self.refinement_tolerance > 0:
            raise DomainError("refinement tolerance must be positive")


@dataclass(frozen=True, eq=False)
class Kernel:
    """Sampled propagation kernel on the l1 ball |x| <= window_radius.

    ``sites`` is the window's shared read-only ``ball_sites`` array.  Two
    kernels are equal only if they are the same object.
    """

    m: int
    t: float
    window_radius: int
    sites: np.ndarray  # ball_sites(d, window_radius)
    samples: np.ndarray
    points_per_axis: int
    est_quadrature_error: float

    def value(self, site) -> float:
        site = _coordinates(site)
        if len(site) != self.sites.shape[1] or sum(map(abs, site)) > self.window_radius:
            raise DomainError(f"site {site} outside kernel window {self.window_radius}")
        return float(self.samples[np.flatnonzero((self.sites == site).all(axis=1))[0]])

    def radii(self) -> np.ndarray:
        return np.abs(self.sites).sum(axis=1)


def _offset_axis(points: int) -> np.ndarray:
    h = 2.0 * np.pi / points
    return -np.pi + h * (np.arange(points) + 0.5)


def _kernel_samples(
    params: HarmonicParameters, times, sites: np.ndarray, points: int, ms: Sequence[int]
) -> dict[int, np.ndarray]:
    """Midpoint-rule values of the kernels ``ms`` at integer sites, on one grid, per time.

    Each kernel comes back as a (len(times), len(sites)) array.  On the
    offset grid the quadrature sum is a phase-corrected inverse DFT, so all
    sites in the box (-points/2, points/2)^d come out of one inverse
    transform per kernel and time, taken axis by axis from the last, as
    ``ifftn`` does.  The times are stacked on a leading axis, and the grid
    is walked in slabs of axis-0 indices of about :data:`SLAB_NODES` nodes
    over the stack (a chain is one slab).  In each slab gamma and the
    phases exp(-2 i gamma t) are built once: m = 1 goes first, then m = -1
    (which turns gamma into 1 / gamma), and m = 0 transforms the phase
    itself.  After each of axes d-1, ..., 1 only the residues -R..R (mod
    points) are kept, R the largest |x_j| among the sites, and axis 0 is
    transformed once every slab is in.  Each line meets the same input in
    the same axis order, so every sample equals the full ``ifftn`` of its
    time's grid bit for bit.  For m = -1 only the imaginary part is kept,
    which is the member that stays bounded at a massless conical point.
    """
    d = params.dimension
    axis = _offset_axis(points)
    times = np.reshape(np.asarray(times, dtype=float), (-1,) + (1,) * d)
    radius = int(np.abs(sites[:, 1:]).max(initial=0))
    kept = np.arange(-radius, radius + 1)
    index = (slice(None), sites[:, 0] % points, *(sites[:, j] + radius for j in range(1, d)))
    base = np.exp(1j * (np.pi / points - np.pi))
    shift = np.ones(len(sites), dtype=complex)
    for j in range(d):
        shift = shift * base ** sites[:, j]

    def finish(grid, m):
        vals = np.fft.ifft(grid, axis=1, out=grid)[index] * shift
        return np.real(vals) if m == 0 else np.imag(vals)

    order = [m for m in (1, -1, 0) if m in ms]
    # A chain has nothing to prune, so it is one slab.  With one slab each
    # kernel finishes at once; otherwise its pruned slabs gather in a
    # (T, points, K, ..., K) buffer, K = 2R + 1.
    stack = len(times) * points ** (d - 1)
    slabs = range(0, points, max(SLAB_NODES // stack, 1) if d > 1 else points)
    shape = (len(times), points) + (len(kept),) * (d - 1)
    pruned = {} if len(slabs) == 1 else {m: np.empty(shape, dtype=complex) for m in order}
    out = {}
    for lo in slabs:
        rows = slice(lo, lo + slabs.step)
        gam = _gamma_grid(params, [axis[rows]] + [axis] * (d - 1))
        # One (T, slab) buffer, as a single time's slab has one.
        phase = np.empty((len(times),) + gam.shape, dtype=complex)
        np.multiply(-2j, gam, out=phase)
        np.multiply(phase, times, out=phase)
        np.exp(phase, out=phase)
        # The last kernel may overwrite the phase; earlier ones need a copy.
        work = np.empty_like(phase) if len(order) > 1 else phase
        for m in order:
            if m == 0:
                grid = phase
            else:
                if m == -1:
                    np.divide(1.0, gam, out=gam)
                grid = phase if m == order[-1] else work
                np.multiply(gam, phase, out=grid)
            for a in range(d, 1, -1):
                np.fft.ifft(grid, axis=a, out=grid)
                dest = pruned[m][:, rows] if pruned and a == 2 else None
                grid = np.take(grid, kept, axis=a, out=dest, mode="wrap")
            if not pruned:
                out[m] = finish(grid, m)
        # Free this slab before the next one is built.
        del gam, phase, work, grid
    for m, grid in pruned.items():
        out[m] = finish(grid, m)
    return out


class _Ladder:
    """One (t, window_radius, quad) request's grid doublings, each kernel stopping on its own.

    Construction raises what ``compute_kernels`` raises before sampling.
    """

    def __init__(self, params, t, window_radius, quad, ms):
        _check_time(t)
        if not ms:
            raise DomainError("compute_kernels needs at least one kernel index")
        if any(m not in (-1, 0, 1) for m in ms):
            raise DomainError("kernel index m must be -1, 0, or 1")
        if not _is_int(window_radius) or window_radius < 0:
            raise DomainError(f"window radius must be a nonnegative integer, got {window_radius!r}")
        quad = quad or QuadratureSpec()
        # Keep the full tensor grid under ~16M nodes, which bounds the time a
        # quadrature can take (memory stays at a slab); the cap is generous
        # for d <= 2 and modest for d = 3.
        max_points = max(int(round((2**24) ** (1.0 / params.dimension))), 16)
        points = quad.points_per_axis
        if points % 2:
            points += 1
        while points < 2 * (window_radius + 1):
            points *= 2
        # Without one refinement there is no error estimate, so fail before
        # sampling.
        if 2 * points > max_points:
            raise QuadratureConvergenceError(
                f"kernel window {window_radius} needs a starting grid of {points} points "
                f"per axis, and no refinement fits under the cap of {max_points}"
            )
        self.sites = ball_sites(params.dimension, window_radius)
        self.t, self.window_radius, self.ms = t, window_radius, ms
        self.tol = quad.refinement_tolerance
        self.points, self.max_points, self.refinements = points, max_points, 0
        # The kernels still refining; the first grid samples them all.
        self.active = [m for m in (1, -1, 0) if m in ms]
        self.samples, self.stopped, self.achieved = {}, {}, dict.fromkeys(self.active, math.inf)

    def take(self, samples: dict[int, np.ndarray]) -> bool:
        """Record this grid's samples of the active kernels; True if a finer grid follows."""
        for m, cur in samples.items():
            if m in self.samples:
                self.achieved[m] = float(np.max(np.abs(cur - self.samples[m])))
            self.samples[m], self.stopped[m] = cur, self.points
        self.active = [m for m in self.active if not self.achieved[m] <= self.tol]
        more = self.refinements < MAX_REFINEMENTS and 2 * self.points <= self.max_points
        if self.active and more:
            self.points *= 2
            self.refinements += 1
            return True
        return False

    def outcome(self):
        kernels = {
            m: Kernel(
                m, float(self.t), self.window_radius, self.sites, self.samples[m],
                points_per_axis=self.stopped[m], est_quadrature_error=self.achieved[m],
            )
            for m in self.ms
        }
        for kernel in kernels.values():
            if not kernel.est_quadrature_error <= self.tol:
                return QuadratureConvergenceError(
                    f"kernel quadrature reached {kernel.est_quadrature_error:.3e} at "
                    f"{kernel.points_per_axis} points per axis, tolerance is {self.tol:.3e}",
                    best=kernel,
                    kernels=kernels,
                )
        return kernels


def _kernel_batch(params: HarmonicParameters, requests, ms: Sequence[int] = (-1, 0, 1)):
    """Yield the outcome of ``compute_kernels`` for each (t, window_radius, quad) request, in order.

    Every request refines as it would alone: its own starting grid, cap,
    :data:`MAX_REFINEMENTS` and per-kernel stopping rule.  Requests go in
    runs whose windows' boxes hold about ``_STACK_NODES`` sites together,
    so the kernels held at once do not grow with the batch.  At each grid
    level the requests of a run still refining there go through one
    :func:`_kernel_samples` pass on the widest window's sites (a smaller
    window's ``ball_sites`` are a prefix of them), in stacks of at most
    ``_STACK_NODES`` grid nodes; a larger grid goes alone.  An outcome is
    the kernels dict, or the error that the request raises alone (with
    ``best`` and ``kernels``), yielded rather than raised.
    """
    d = params.dimension
    requests = list(requests)
    boxes = [
        min((2 * w + 1) ** d, _STACK_NODES) if _is_int(w) and w >= 0 else 0 for _, w, _ in requests
    ]
    runs = (total // _STACK_NODES for total in itertools.accumulate(boxes))
    for _, run in itertools.groupby(zip(runs, requests), key=lambda pair: pair[0]):
        outcomes = []
        for _, (t, window_radius, quad) in run:
            try:
                outcomes.append(_Ladder(params, t, window_radius, quad, ms))
            except (DomainError, QuadratureConvergenceError) as err:
                outcomes.append(err)
        climbing = [ladder for ladder in outcomes if isinstance(ladder, _Ladder)]
        while climbing:
            points = min(ladder.points for ladder in climbing)
            level = [ladder for ladder in climbing if ladder.points == points]
            size = max(_STACK_NODES // points**d, 1)
            for lo in range(0, len(level), size):
                stack = level[lo : lo + size]
                sites = max((ladder.sites for ladder in stack), key=len)
                wanted = {m for ladder in stack for m in ladder.active}
                got = _kernel_samples(params, [ladder.t for ladder in stack], sites, points, wanted)
                for row, ladder in enumerate(stack):
                    n = len(ladder.sites)
                    if not ladder.take({m: got[m][row, :n] for m in ladder.active}):
                        climbing.remove(ladder)
        yield from (out.outcome() if isinstance(out, _Ladder) else out for out in outcomes)


def compute_kernels(
    params: HarmonicParameters,
    t: float,
    window_radius: int,
    quad: QuadratureSpec | None = None,
    ms: Sequence[int] = (-1, 0, 1),
) -> dict[int, Kernel]:
    """Evaluate the propagation kernels ``ms`` on |x| <= window_radius.

    The Brillouin-zone integral is approximated by the midpoint rule on an
    even grid offset by half a cell; the grid doubles until two successive
    resolutions agree to the quadrature tolerance, and that final difference is
    recorded as the quadrature error estimate.  Each kernel stops refining on
    its own, exactly where a single-kernel computation would; the kernels
    still refining share each grid level.  If a kernel does not converge,
    :class:`QuadratureConvergenceError` names the first such one in ``ms``
    order and carries every kernel's best grid in ``kernels``.
    """
    (outcome,) = _kernel_batch(params, [(t, window_radius, quad)], ms)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def compute_kernel(
    params: HarmonicParameters,
    m: int,
    t: float,
    window_radius: int,
    quad: QuadratureSpec | None = None,
) -> Kernel:
    """Evaluate one propagation kernel on |x| <= window_radius (see :func:`compute_kernels`)."""
    return compute_kernels(params, t, window_radius, quad, ms=(m,))[m]


# ---------------------------------------------------------------------------
# Exponential envelopes and certified truncation windows.


def _check_rate(mu: float):
    if not 0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu!r}")


def envelope_speed(params: HarmonicParameters, mu: float) -> float:
    """Envelope propagation speed c * max(2 / mu, e^(mu/2 + 1))."""
    _check_rate(mu)
    c = params.max_frequency
    return c * max(2.0 / mu, math.exp(mu / 2.0 + 1.0))


def envelope_prefactor(params: HarmonicParameters, mu: float) -> float:
    """Combined kernel prefactor 1 + 2 e^(mu/2) c + 2 / c."""
    _check_rate(mu)
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


def _truncation_tails(params: HarmonicParameters, t: float, mu: float):
    # window -> the kernels' l1 mass outside it, (1 + 1/c + c e^(mu/2)) e^(mu v |t|)
    # sum_{r>W} N_d(r) e^(-mu r), factor formed once; past e^700 inf (inf * 0 is nan).
    grow = mu * envelope_speed(params, mu) * abs(t)
    if grow > 700:
        return lambda window: math.inf
    c = params.max_frequency
    factor = (1.0 + 1.0 / c + c * math.exp(mu / 2.0)) * math.exp(grow)
    return lambda window: factor * _exp_shell_tail(params.dimension, mu, window)


def certified_window(
    params: HarmonicParameters,
    t: float,
    tolerance: float,
    l1_norm: float = 1.0,
) -> int:
    """Smallest truncation radius whose envelope tail is below tolerance.

    The certificate guarantees that dropping all kernel mass outside the
    returned l1 ball changes the propagated field by at most ``tolerance``
    in l1 norm, for inputs of the given l1 size.  The envelope rate is
    optimized over :data:`MU_GRID`, and radii up to 4096 are searched.
    """
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    _check_time(t)
    max_window = 4096
    budget = tolerance / max(l1_norm, 1e-300)
    best = None
    for mu in MU_GRID:
        tail = _truncation_tails(params, t, mu)
        if tail(max_window) > budget:
            continue
        lo, hi = 0, max_window
        # The tail decreases in the window, so bisect for the smallest
        # admissible radius under this envelope rate.
        while lo < hi:
            mid = (lo + hi) // 2
            if tail(mid) <= budget:
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


def _propagator_symbols(gam: np.ndarray, t):
    """Fourier symbols (A, B) with T_t f = A fhat + B conj(f)hat.

    A = cos(2 gamma t) + (i/2)(gamma^-1 + gamma) sin(2 gamma t) and
    B = (i/2)(gamma^-1 - gamma) sin(2 gamma t); at a massless zero mode the
    removable limit sin(2 gamma t) / gamma -> 2 t is substituted.  ``t`` is a
    time or an array of times that broadcasts against ``gam``.
    """
    cos = np.cos(2.0 * gam * t)
    sin = np.sin(2.0 * gam * t)
    ratio = np.divide(sin, gam, out=np.broadcast_to(2.0 * t, sin.shape).copy(), where=gam > 0)
    a = cos + 0.5j * (ratio + gam * sin)
    b = 0.5j * (ratio - gam * sin)
    return a, b


def _torus_gamma(params: HarmonicParameters, geometry: LatticeGeometry) -> np.ndarray:
    n = geometry.extent
    axis = 2.0 * np.pi * np.fft.fftfreq(n)
    return _gamma_grid(params, [axis] * params.dimension)


def _fftn(x: np.ndarray, d: int) -> np.ndarray:
    # Over the last d axes, so a stack of labels goes at once.  On a chain, fft gives
    # fftn's bits without fftn's costly axis bookkeeping.
    return np.fft.fft(x) if d == 1 else np.fft.fftn(x, axes=range(-d, 0))


def _ifftn(x: np.ndarray, d: int) -> np.ndarray:
    return np.fft.ifft(x) if d == 1 else np.fft.ifftn(x, axes=range(-d, 0))


def _symbol_product(gam: np.ndarray):
    # (sym, hat) -> sym * hat, rounded per slice as sym * fftn(x) rounds on one label: numpy
    # multiplies a temporary of 256 KB or more in place, swapping the operands when the
    # temporary is the right one, and a swapped complex product rounds differently.
    swapped = 16 * gam.size >= 2**18
    return (lambda sym, hat: np.multiply(hat, sym)) if swapped else np.multiply


# Each flow forms its t-independent transforms once and maps a (T, 1, ...) array of times
# to the (T, ...) stack of evolved labels, with the bits of one label evolved per time.
def _evolve_bogoliubov(dense: np.ndarray, gam: np.ndarray):
    # Composition (U + V) M_t (U* - V*) with U, V the multiplier /
    # conjugation maps built from the Bogoliubov pair.  Valid for omega > 0
    # where both multipliers are finite on every mode.
    d, product = gam.ndim, _symbol_product(gam)
    root = np.sqrt(gam)
    plus = 1.0 / root + root
    minus = 1.0 / root - root

    def mult(vec, sym):
        return _ifftn(product(sym, _fftn(vec, d)), d)

    inner_hat = _fftn(-0.5j * mult(dense, plus) - 0.5j * mult(np.conj(dense), minus), d)

    def evolve(t):
        rotated = _ifftn(product(np.exp(2j * gam * t), inner_hat), d)
        return 0.5j * mult(rotated, plus) + 0.5j * mult(np.conj(rotated), minus)

    return evolve


def _evolve_multiplier(dense: np.ndarray, gam: np.ndarray):
    d, product = gam.ndim, _symbol_product(gam)
    dense_hat, conj_hat = _fftn(dense, d), _fftn(np.conj(dense), d)

    def evolve(t):
        a, b = _propagator_symbols(gam, t)
        out = _ifftn(product(a, dense_hat), d)
        out += _ifftn(product(b, conj_hat), d)
        return out

    return evolve


def _torus_flow(dense: np.ndarray, params: HarmonicParameters, gam: np.ndarray):
    """times -> the (T, ...) stack of T_t of a dense torus label (times unchecked)."""
    evolve = (_evolve_multiplier if params.is_massless else _evolve_bogoliubov)(dense, gam)
    return lambda times: evolve(np.reshape(times, (-1,) + (1,) * gam.ndim))


def apply_propagator_torus(field: Field, params: HarmonicParameters, t: float) -> Field:
    """Evolve a torus label exactly (to roundoff) through the DFT.

    For omega > 0 this is the literal composition of the Bogoliubov
    multiplier maps with the phase multiplier exp(2 i gamma t).  For a
    massless model the equivalent two-symbol form is used with the
    removable k = 0 limit, so every label evolves: at k = 0 the position
    part u0 stays and the momentum part moves to v0 + 2 t u0.
    """
    geometry = field.geometry
    if geometry.dimension != params.dimension:
        raise GeometryMismatchError("field and parameters disagree on dimension")
    _check_time(t)
    flow = _torus_flow(field.to_dense(), params, _torus_gamma(params, geometry))
    return Field.from_dense(geometry, flow((t,))[0])


def _ball_rows(radius: int, sites: np.ndarray) -> np.ndarray:
    """Row of each site in ``ball_sites(d, radius)``; every site must lie in the ball."""
    ball = ball_sites(sites.shape[1], radius)
    box = np.empty((2 * radius + 1,) * sites.shape[1], dtype=np.intp)
    box[tuple((ball + radius).T)] = np.arange(len(ball))
    return box[tuple((sites + radius).T)]


def _propagated_at(params: HarmonicParameters, requests):
    """Values of T_t f for a batch of (field, t, tolerance, sites) requests, in order.

    Yields one (sites, values) pair per request; ``sites`` None stands for
    the certified output ball.  The three kernels, all from one
    :func:`_kernel_batch`, are combined as

        T_t f = f * (H0 - (i/2)(Hm + Hp)) + conj(f) * ((i/2)(Hp - Hm)),

    truncated to an l1 ball whose radius is certified against the
    exponential envelopes so the total error stays below ``tolerance`` in
    l1 norm.  Every window is certified on the first ``next``; a failed
    request raises its error when its turn comes.
    """
    plans, failed = [], None
    for field, t, tolerance, sites in requests:
        try:
            l1 = field.norm_l1()
            window = certified_window(params, t, tolerance / 2.0, l1)
        except (DomainError, WindowCertificationError) as err:
            failed = err
            break
        spread = field.support_radius()
        ker_tol = min(QuadratureSpec.refinement_tolerance, tolerance / (6.0 * max(l1, 1.0)))
        quad = QuadratureSpec(refinement_tolerance=ker_tol)
        plans.append((field, t, window + 2 * spread, quad, window + spread, sites))
    outcomes = _kernel_batch(params, [(t, radius, quad) for _, t, radius, quad, *_ in plans])
    for field, _, ker_radius, _, out_radius, sites in plans:
        # The kernels go straight into the sum, so none outlives its request.
        yield _convolved(field, next(outcomes), ker_radius, out_radius, sites)
    if failed is not None:
        raise failed


def _convolved(field: Field, kernels, ker_radius: int, out_radius: int, sites):
    """(sites, T_t f there) from one request's kernels, or raise its quadrature error.

    Off the output ball a value is 0; on it, the label's terms are summed
    in its site order, f's before conj(f)'s, as a sum over the whole ball
    would, and the value is the one the evolved ``Field`` holds.
    """
    if isinstance(kernels, Exception):
        raise kernels
    d = field.geometry.dimension
    if sites is None:
        sites = ball_sites(d, out_radius)
    inside = np.abs(sites).sum(axis=1) <= out_radius
    # Every offset x - s lies within the kernel window, since |s| <= spread.
    offsets = sites[inside] - field._sites[:, None]
    rows = _ball_rows(ker_radius, offsets.reshape(-1, d)).reshape(offsets.shape[:2])
    h0, hm, hp = (kernels[m].samples[rows] for m in (0, -1, 1))
    # Symbols as in _propagated_at: the kernels are real and even.
    terms_a = np.multiply(field._values[:, None], h0 - 0.5j * (hm + hp))
    terms_b = np.multiply(field._values.conj()[:, None], 0.5j * (hp - hm))
    acc = np.zeros(offsets.shape[1], dtype=complex)
    for a, b in zip(terms_a, terms_b):
        acc += a
        acc += b
    # acc starts at +0.0, so no part of it is a negative zero, as in a Field.
    values = np.zeros(len(sites), dtype=complex)
    values[inside] = acc
    return sites, values


def apply_propagator_convolution(
    field: Field,
    params: HarmonicParameters,
    t: float,
    tolerance: float = 1e-10,
) -> Field:
    """Evolve a finitely supported label on Z^d by certified convolution.

    The result lives on the certified output ball; see :func:`_propagated_at`
    for the kernels, the window and the order of summation.
    """
    geometry = field.geometry
    if geometry.is_torus:
        raise GeometryMismatchError("convolution propagator acts on the infinite lattice")
    if geometry.dimension != params.dimension:
        raise GeometryMismatchError("field and parameters disagree on dimension")
    if field.is_zero():
        return field
    ((sites, values),) = _propagated_at(params, [(field, t, tolerance, None)])
    return Field._from_arrays(geometry, sites, values)
