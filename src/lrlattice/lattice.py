"""Lattice geometry, decay profiles, and summability constants.

Sites live either on the infinite lattice Z^d or on a periodic torus with
sites (-L, L]^d per axis; distances are l1, with the quotient metric on the
torus.  The weight family

    F_a(r) = exp(-a r) * (1 + r)^-(d + eps)

controls every spatial estimate in the package.  This module computes its
uniform norm and convolution constant together with rigorous tail bounds,
using exact per-shell site counts so the reported values are reproducible
to the last bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "GeometryMismatchError",
    "LatticeGeometry",
    "DecayProfile",
    "UniformNorm",
    "ConvolutionConstant",
    "uniform_norm",
    "convolution_constant",
    "shell_count",
    "ball_sites",
    "site_sort_key",
]

Site = tuple[int, ...]


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class GeometryMismatchError(ValueError):
    """Two objects that must share a lattice geometry do not."""


def _is_int(x) -> bool:
    """A Python or numpy integer; booleans, floats and integral floats are not."""
    return type(x) is int or isinstance(x, np.integer)


def _coordinates(x) -> Site:
    """``x`` (an integer or a sequence of integers) as a tuple of ints.

    Booleans, floats and anything else raise DomainError instead of being
    truncated to a neighbouring site.
    """
    coords = x if type(x) is tuple else tuple(x) if isinstance(x, Iterable) else (x,)
    for c in coords:
        if not _is_int(c):
            raise DomainError(f"a site must be an integer or a sequence of integers, got {x!r}")
    return tuple(map(int, coords))


@dataclass(frozen=True)
class LatticeGeometry:
    """Z^d or the torus (-L, L]^d with the l1 (quotient) metric.

    ``half_side`` set means torus mode with ``2 * half_side`` sites per
    axis.  ``window_radius`` is bookkeeping for the infinite mode: the
    radius inside which scans and truncated fields are expected to live.
    Nothing reads it, so it takes no part in equality: fields on two
    windows of Z^d share one geometry.
    """

    dimension: int
    half_side: int | None = None
    window_radius: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not _is_int(self.dimension) or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        for name in ("half_side", "window_radius"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 1):
                raise DomainError(f"{name} must be a positive integer or None, got {value!r}")

    @classmethod
    def infinite(cls, dimension: int, window_radius: int | None = None) -> "LatticeGeometry":
        return cls(dimension=dimension, half_side=None, window_radius=window_radius)

    @classmethod
    def torus(cls, dimension: int, half_side: int) -> "LatticeGeometry":
        return cls(dimension=dimension, half_side=half_side)

    @property
    def is_torus(self) -> bool:
        return self.half_side is not None

    @property
    def extent(self) -> int:
        """Sites per axis on a torus."""
        if self.half_side is None:
            raise DomainError("extent is only defined for torus geometries")
        return 2 * self.half_side

    def site(self, x) -> Site:
        """Normalize ``x`` to a coordinate tuple and validate it."""
        x = _coordinates(x)
        if len(x) != self.dimension:
            raise DomainError(
                f"site {x} has {len(x)} coordinates, geometry is {self.dimension}-dimensional"
            )
        if self.half_side is not None:
            L = self.half_side
            for c in x:
                if not (-L < c <= L):
                    raise DomainError(f"coordinate {c} outside torus range (-{L}, {L}]")
        return x

    def distance(self, x, y) -> int:
        """l1 distance between two sites (quotient metric on a torus)."""
        x = self.site(x)
        y = self.site(y)
        if self.half_side is None:
            return sum(abs(a - b) for a, b in zip(x, y))
        n = 2 * self.half_side
        total = 0
        for a, b in zip(x, y):
            delta = abs(a - b)
            total += min(delta, n - delta)
        return total

    def sites(self) -> np.ndarray:
        """All torus sites as a read-only (n, d) int64 array, in (shell, lexicographic) order."""
        if self.half_side is None:
            raise DomainError("site enumeration is only defined for torus geometries")
        return _torus_sites(self.dimension, self.half_side)


def site_sort_key(x: Site):
    return (sum(abs(c) for c in x), x)


def _site_keys(sites: np.ndarray) -> np.ndarray:
    """int64 keys that order the rows of an (n, d) site array as ``site_sort_key`` does.

    The l1 radius and the coordinates are packed into one mixed-radix
    integer; coordinates too large to pack are ranked by a lexicographic
    sort instead.  Equal rows get equal keys.
    """
    d = sites.shape[1]
    radii = np.abs(sites).sum(axis=1)
    bound = int(np.abs(sites).max(initial=0))
    radix = 2 * bound + 1
    if (d * bound + 1) * radix**d < 2**63:
        keys = radii
        for j in range(d):
            keys = keys * radix + (sites[:, j] + bound)
        return keys
    order = np.lexsort((*sites.T[::-1], radii))
    ordered = sites[order]
    keys = np.empty(len(sites), dtype=np.int64)
    keys[order] = np.cumsum(np.any(np.diff(ordered, axis=0, prepend=ordered[:1]) != 0, axis=1))
    return keys


def _sorted_cube(dimension: int, lo: int, hi: int) -> np.ndarray:
    """All sites of [lo, hi]^d as an (n, d) array, ordered as ``site_sort_key`` does."""
    axis = np.arange(lo, hi + 1)
    cube = np.stack(np.meshgrid(*(axis,) * dimension, indexing="ij"), axis=-1)
    cube = cube.reshape(-1, dimension)
    return cube[np.argsort(_site_keys(cube), kind="stable")]


@lru_cache(maxsize=8)
def _torus_sites(dimension: int, half_side: int) -> np.ndarray:
    """Read-only array of the torus sites (-L, L]^d, in :meth:`LatticeGeometry.sites` order."""
    sites = _sorted_cube(dimension, 1 - half_side, half_side)
    sites.flags.writeable = False
    return sites


@lru_cache(maxsize=1 << 16, typed=True)
def shell_count(dimension: int, radius: int) -> int:
    """Number of points of Z^d at exact l1 distance ``radius`` from 0."""
    if not _is_int(dimension) or dimension < 1:
        raise DomainError(f"dimension must be a positive integer, got {dimension!r}")
    if not _is_int(radius) or radius < 0:
        raise DomainError(f"radius must be a nonnegative integer, got {radius!r}")
    if radius == 0:
        return 1
    total = 0
    for k in range(1, min(dimension, radius) + 1):
        total += (2**k) * math.comb(dimension, k) * math.comb(radius - 1, k - 1)
    return total


# typed: 2.0 and True equal the cached keys 2 and 1, and must still be rejected.
@lru_cache(maxsize=32, typed=True)
def ball_sites(dimension: int, radius: int) -> np.ndarray:
    """Sites of the l1 ball of given radius as a read-only (n, d) int64 array,
    in (shell, lexicographic) order."""
    if not _is_int(dimension) or dimension < 1:
        raise DomainError(f"dimension must be a positive integer, got {dimension!r}")
    if not _is_int(radius) or radius < 0:
        raise DomainError(f"radius must be a nonnegative integer, got {radius!r}")
    cube = _sorted_cube(dimension, -radius, radius)
    sites = cube[np.abs(cube).sum(axis=1) <= radius]
    sites.flags.writeable = False
    return sites


@dataclass(frozen=True)
class DecayProfile:
    """Weight family F_a(r) = exp(-a r) (1 + r)^-(d + eps).

    ``epsilon`` must be positive so that the a = 0 member is summable over
    Z^d; ``rate`` is the exponential decay rate a >= 0 per unit distance.
    """

    dimension: int
    epsilon: float = 1.0
    rate: float = 0.0

    def __post_init__(self):
        if not _is_int(self.dimension) or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not 0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 <= self.rate < math.inf:
            raise DomainError(f"decay rate must be nonnegative and finite, got {self.rate!r}")

    @property
    def power(self) -> float:
        return self.dimension + self.epsilon

    def value(self, r):
        # Scalars take the array loops too: numpy's 0-d exp and power round differently.
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        if np.any(flat < 0):
            raise DomainError("distance must be nonnegative")
        out = np.exp(-self.rate * flat) * (1.0 + flat) ** (-self.power)
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)


class UniformNorm(NamedTuple):
    value: float
    tail_bound: float


def _shell_weight_envelope(dimension: int) -> float:
    # shell_count(d, r) <= env * (1 + r)^(d - 1), from C(r-1, k-1) <= r^(k-1)/(k-1)!
    return float(
        sum(2**k * math.comb(dimension, k) / math.factorial(k - 1) for k in range(1, dimension + 1))
    )


def uniform_norm(profile: DecayProfile, window: int) -> UniformNorm:
    """Partial sum of sup_x sum_y F_a(d(x, y)) over Z^d with a rigorous tail.

    The value is the exactly rounded lattice sum over the l1 ball of the
    given radius (via per-shell counts); the tail bound dominates everything
    outside the ball by an integral comparison, so

        value <= ||F_a|| <= value + tail_bound.
    """
    if not _is_int(window) or window < 0:
        raise DomainError(f"window must be a nonnegative integer, got {window!r}")
    d, a = profile.dimension, profile.rate
    if shell_count(d, window) >= 2**52:
        raise DomainError(f"a shell of radius {window} in Z^{d} holds too many sites to sum exactly")
    chain = counts = np.where(np.arange(window + 1), 2, 1)  # Z's sites per l1 distance
    for _ in range(d - 1):
        counts = np.convolve(counts, chain)[: window + 1]
    value = _counted_sum(counts, profile.value(np.arange(window + 1.0)))
    env = _shell_weight_envelope(d)
    eps = profile.epsilon
    w1 = 1.0 + window
    tail = env * w1 ** (-eps) / eps
    if a > 0:
        tail = min(tail, env * w1 ** (-(1.0 + eps)) * math.exp(-a * window) / a)
    return UniformNorm(value=value, tail_bound=tail)


class ConvolutionConstant(NamedTuple):
    value: float
    window: int
    half_window_value: float
    converged: bool
    worst_separation: Site


def _counted_sum(counts: np.ndarray, values: np.ndarray) -> float:
    """Exactly rounded sum of counts[i] * values[i] for integer counts below 2**52.

    Values split into their top 26 significand bits and an exact remainder and counts
    into 26-bit halves, so every product is exact: one fsum returns the float that
    fsum over the multiset holding values[i] counts[i] times returns."""
    keep = counts != 0
    counts, values = counts[keep], values[keep]
    high = (values.view(np.int64) & -(1 << 27)).view(float)
    halves = (counts >> 26 << 26, counts & ((1 << 26) - 1))
    terms = np.concatenate([c * v for c in halves for v in (high, values - high)])
    return math.fsum(terms[terms != 0].tolist())


def _convolution_value(profile: DecayProfile, window: int) -> tuple[float, Site]:
    d = profile.dimension
    pts = ball_sites(d, 2 * window)
    width = 3 * window + 1
    table = profile.value(np.arange(width, dtype=float))
    if table[window] == 0:
        raise DomainError(f"F_a underflows to 0 at the window radius {window}")
    # Cell |z| * width + |s - z| of the joint distance counts holds F(|z|) F(|s - z|).
    products = np.outer(table[: 2 * window + 1], table).ravel()
    rows = np.abs(pts).sum(axis=1) * width
    columns = [np.ascontiguousarray(pts[:, j]) for j in range(d)]
    # Lattice symmetries (sign flips, axis permutations) leave the
    # convolution sum invariant, so separations with sorted nonnegative
    # coordinates cover every case.
    seps = ball_sites(d, window)
    seps = seps[(seps >= 0).all(axis=1) & (seps[:, :-1] >= seps[:, 1:]).all(axis=1)]
    if d == 1:
        # On a chain a cell holds at most two sites, so an fsum per separation over the
        # gathered products beats binning them; both sums are exact.
        sums = map(math.fsum, products[rows + np.abs(columns[0] - seps)].tolist())
    else:
        bins = (rows + sum(np.abs(col - c) for col, c in zip(columns, s)) for s in seps.tolist())
        sums = (_counted_sum(np.bincount(b, minlength=products.size), products) for b in bins)
    best = -math.inf
    best_sep: Site = (0,) * d
    for s, total in zip(seps.tolist(), sums):
        ratio = total / table[sum(s)]
        if ratio > best:
            best = ratio
            best_sep = tuple(s)
    return best, best_sep


def convolution_constant(profile: DecayProfile, window: int) -> ConvolutionConstant:
    """Empirical convolution constant of the decay profile.

    Maximizes sum_z F_a(|z|) F_a(|s - z|) / F_a(|s|) over separations
    |s| <= window, with z running over the ball of radius 2 * window.  The
    result is compared against the half-window computation; ``converged``
    reports whether the two agree to 1e-3 relative.  A profile with
    F_a(window) == 0 in floating point is refused with a DomainError,
    because the ratios at the outer separations would be 0 / 0.
    """
    if not _is_int(window) or window < 2:
        raise DomainError(f"window must be an integer of at least 2, got {window!r}")
    value, worst = _convolution_value(profile, window)
    half_value, _ = _convolution_value(profile, window // 2)
    converged = abs(value - half_value) <= 1e-3 * abs(value)
    return ConvolutionConstant(
        value=value,
        window=window,
        half_window_value=half_value,
        converged=converged,
        worst_separation=worst,
    )
