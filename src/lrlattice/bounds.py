"""Propagation bounds: kernel envelope checks, certified constants, cone scans.

The exponential envelopes of the three propagation kernels imply a
commutator bound of Lieb-Robinson type,

    |sigma(T_t f, g)| <= c_a exp(v_a |t|) sum_xy |f(x)||g(y)| F_a(d(x,y)),

once the pure-exponential envelope rate mu is traded for the decay profile
F_a.  This module verifies the envelopes pointwise on computed kernels,
derives concrete (c_a, v_a) certificates, scans commutator norms over a
space-time grid, and fits an empirical front velocity to compare against
the certified one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harmonic import (
    MU_GRID,
    Field,
    HarmonicParameters,
    Kernel,
    QuadratureConvergenceError,
    QuadratureSpec,
    apply_propagator_convolution,
    compute_kernel,
    envelope_prefactor,
    envelope_speed,
    kernel_envelope,
    symplectic_form,
)
from .lattice import (
    DecayProfile,
    DomainError,
    GeometryMismatchError,
    LatticeGeometry,
    _ball_array,
    ball_sites,
    ordered_sum,
)

__all__ = [
    "RATIO_FLOOR",
    "DecayCertificate",
    "ConeScan",
    "KernelBoundReport",
    "VelocityFit",
    "verify_kernel_bounds",
    "derive_constants",
    "pair_sum",
    "harmonic_bound_rhs",
    "cone_scan",
    "estimate_velocity",
    "spot_check_certificate",
]

# Allowance added to envelope denominators: quadrature noise makes computed
# kernel values meaningless below this floor, so ratios are taken against
# RHS + allowance rather than the bare RHS.
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class DecayCertificate:
    """Concrete constants for the decay-profile form of the bound.

    ``a0`` is the ceiling on the exponential rate a under the default
    envelope-rate policy (mu drawn from MU_GRID); ``a1`` is the analogous
    ceiling for perturbation pair moments, a modelling hypothesis supplied
    by the caller (default a0) rather than derived.
    """

    a: float
    mu: float
    velocity_bound: float
    prefactor: float
    c_a: float
    v_a: float
    a0: float
    a1: float

    def as_report(self) -> dict:
        return {
            "a": self.a,
            "mu": self.mu,
            "velocity_bound": self.velocity_bound,
            "prefactor": self.prefactor,
            "c_a": self.c_a,
            "v_a": self.v_a,
            "a0": self.a0,
            "a1": self.a1,
        }


class KernelBoundReport(NamedTuple):
    max_ratio: float
    worst_point: dict


class VelocityFit(NamedTuple):
    v_emp: float
    fit_residual: float


@lru_cache(maxsize=256)
def _kernel_best(
    params: HarmonicParameters, m: int, t: float, window: int, quad: QuadratureSpec
) -> Kernel:
    """Kernel computation that keeps the best grid when refinement stalls.

    Verification wants whatever accuracy is attainable, with the achieved
    quadrature error folded into the comparison allowance, rather than a
    hard failure; massless models in d >= 2 converge only algebraically
    and routinely land here.
    """
    try:
        return compute_kernel(params, m, t, window, quad)
    except QuadratureConvergenceError as err:
        if err.best is None:
            raise
        return err.best


def verify_kernel_bounds(
    params: HarmonicParameters,
    mu: float,
    t_grid,
    window: int,
    quad: QuadratureSpec | None = None,
) -> KernelBoundReport:
    """Check the exponential envelopes on every computed kernel sample.

    For each m, t, and |x| <= window the ratio |H_t^(m)(x)| / (envelope +
    allowance) is formed, where the allowance is the kernel's estimated
    quadrature error (floored at RATIO_FLOOR); far outside the cone the
    envelope drops below floating-point noise and the bare ratio would be
    meaningless.  The verification passes when the maximum ratio stays
    below 1 + 1e-9.
    """
    if not mu > 0:
        raise DomainError("mu must be positive")
    quad = quad or QuadratureSpec()
    max_ratio = -math.inf
    worst: dict = {}
    for t in t_grid:
        t = float(t)
        for m in (-1, 0, 1):
            kernel = _kernel_best(params, m, t, window, quad)
            allowance = max(kernel.est_quadrature_error, RATIO_FLOOR)
            rhs = kernel_envelope(params, m, mu, kernel.radii(), t)
            ratios = np.abs(kernel.samples) / (rhs + allowance)
            idx = int(np.argmax(ratios))
            if float(ratios[idx]) > max_ratio:
                max_ratio = float(ratios[idx])
                worst = {
                    "m": m,
                    "t": t,
                    "x": kernel.sites[idx],
                    "value": float(kernel.samples[idx]),
                    "envelope": float(np.atleast_1d(rhs)[idx]),
                    "allowance": allowance,
                }
    return KernelBoundReport(max_ratio, worst)


def _profile_conversion(power: float, eta: float) -> float:
    """sup over r >= 0 of (1+r)^power exp(-eta r), maximized continuously."""
    if power <= eta:
        return 1.0
    return (power / eta) ** power * math.exp(eta - power)


def derive_constants(
    params: HarmonicParameters,
    a: float,
    profile: DecayProfile,
    mu: float | None = None,
    eta: float = 1.0,
    a1: float | None = None,
) -> DecayCertificate:
    """Trade the exponential envelope for profile decay: concrete (c_a, v_a).

    With mu = a + eta the pure exponential exp(-mu r) is dominated by
    F_a(r) times the polynomial supremum sup_r (1+r)^(d+eps) exp(-eta r),
    so c_a = prefactor(mu) * that supremum and v_a = mu * speed(mu).  The
    rate ceiling a0 reflects the largest a servable from MU_GRID with the
    chosen eta.
    """
    if not a > 0:
        raise DomainError("a must be positive")
    if abs(profile.rate - a) > 1e-12 * max(a, 1.0):
        raise DomainError(f"profile rate {profile.rate} does not match a = {a}")
    if profile.dimension != params.dimension:
        raise GeometryMismatchError("profile and parameters disagree on dimension")
    if mu is None:
        if not eta > 0:
            raise DomainError("eta must be positive")
        mu = a + eta
    if not mu > a:
        raise DomainError(
            f"mu = {mu} must exceed a = {a}: the envelope exp(-mu r) can only "
            "dominate exp(-a r) times a polynomial if mu - a > 0"
        )
    slack = mu - a
    conversion = _profile_conversion(profile.power, slack)
    prefactor = envelope_prefactor(params, mu)
    speed = envelope_speed(params, mu)
    ceiling = max(MU_GRID) - eta if eta < max(MU_GRID) else 0.0
    return DecayCertificate(
        a=float(a),
        mu=float(mu),
        velocity_bound=speed,
        prefactor=prefactor,
        c_a=prefactor * conversion,
        v_a=mu * speed,
        a0=ceiling,
        a1=float(a1) if a1 is not None else ceiling,
    )


def pair_sum(f: Field, g: Field, profile: DecayProfile) -> float:
    """Double sum of |f(x)| |g(y)| F_a(d(x,y)) over the two supports."""
    if f.geometry != g.geometry:
        raise GeometryMismatchError("fields live on different geometries")
    if f.geometry.dimension != profile.dimension:
        raise GeometryMismatchError("profile dimension does not match the fields")
    geometry = f.geometry
    terms = []
    for x, fx in f.items_sorted():
        for y, gy in g.items_sorted():
            terms.append(abs(fx) * abs(gy) * profile.value(geometry.distance(x, y)))
    return ordered_sum(terms)


def harmonic_bound_rhs(
    f: Field, g: Field, t: float, cert: DecayCertificate, profile: DecayProfile
) -> float:
    """RHS of the unperturbed commutator bound, c_a e^{v_a |t|} * pair sum."""
    return cert.c_a * math.exp(cert.v_a * abs(t)) * pair_sum(f, g, profile)


@dataclass(frozen=True)
class ConeScan:
    """Commutator norms of evolved W(delta_0) against single-site probes.

    values[i, j] is the larger of the two commutator norms obtained by
    probing with delta_x and i*delta_x at site j and time t_grid[i]; both
    phases of the evolved label are exercised that way.
    """

    params: HarmonicParameters
    sites: tuple
    t_grid: tuple
    values: np.ndarray
    threshold: float

    @property
    def radii(self) -> np.ndarray:
        """The l1 radius of each probe site, in the order of ``sites``."""
        return np.abs(np.array(self.sites)).sum(axis=1)

    def shell_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Radii 0..max and the per-shell maxima for each time slice."""
        radii = self.radii
        r_max = int(radii.max())
        out = np.zeros((len(self.t_grid), r_max + 1))
        for r in range(r_max + 1):
            cols = radii == r
            out[:, r] = self.values[:, cols].max(axis=1)
        return np.arange(r_max + 1), out


def cone_scan(
    params: HarmonicParameters,
    x_max: int,
    t_grid,
    threshold: float = 0.1,
    tolerance: float = 1e-10,
) -> ConeScan:
    """Scan commutator norms over |x| <= x_max and the given times.

    One propagator application per time slice suffices: with f = delta_0
    the two probe pairings read off the real and (negated) imaginary part
    of the evolved label at the probe site, and the commutator norm is
    |1 - exp(i sigma)| for each.
    """
    if x_max < 1:
        raise DomainError("x_max must be at least 1")
    if not 0.0 < threshold < 2.0:
        raise DomainError("threshold must lie strictly between 0 and 2")
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise DomainError("the time grid must hold at least one time")
    d = params.dimension
    geometry = LatticeGeometry.infinite(d, window_radius=x_max)
    sites = ball_sites(d, x_max)
    probes = _ball_array(d, x_max)

    def one_slice(t: float) -> np.ndarray:
        moved = apply_propagator_convolution(
            Field.delta(geometry, (0,) * d), params, t, tolerance=tolerance
        )
        val = moved._values_at(probes)
        against_real = 1.0 - np.exp(-1.0j * val.imag)
        against_imag = 1.0 - np.exp(1.0j * val.real)
        # np.hypot rounds like the scalar abs(); np.abs on complex arrays does not.
        return np.maximum(
            np.hypot(against_real.real, against_real.imag),
            np.hypot(against_imag.real, against_imag.imag),
        )

    # Slices are independent and collected in input order, so the result
    # does not depend on the thread count.
    with ThreadPoolExecutor(max_workers=min(len(t_grid), os.cpu_count() or 1)) as pool:
        rows = list(pool.map(one_slice, t_grid))
    return ConeScan(
        params=params,
        sites=sites,
        t_grid=t_grid,
        values=np.vstack(rows),
        threshold=threshold,
    )


def estimate_velocity(scan: ConeScan, threshold: float | None = None) -> VelocityFit:
    """Least-squares front velocity from threshold crossings of the scan.

    The front at each time is the first radius past which every shell
    maximum stays below the threshold.  Commutator values oscillate through
    incidental dips inside the cone, so the outermost crossing is the one
    that tracks the propagation front; it also errs toward larger fronts,
    which overestimates the velocity and keeps the comparison against the
    certified bound conservative.  Slices with no value above the threshold
    carry no front, and slices still above it at the scan edge are cut off;
    both are skipped.
    """
    theta = scan.threshold if threshold is None else float(threshold)
    if not 0.0 < theta < 2.0:
        raise DomainError("threshold must lie strictly between 0 and 2")
    radii, shells = scan.shell_values()
    times, fronts = [], []
    for i, t in enumerate(scan.t_grid):
        above = np.nonzero(shells[i] >= theta)[0]
        if len(above) == 0 or above[-1] == len(radii) - 1:
            continue
        times.append(t)
        fronts.append(float(radii[above[-1]] + 1))
    if len(times) < 3:
        raise DomainError(
            f"velocity fit needs at least 3 time slices with threshold crossings, got {len(times)}"
        )
    coeffs, residuals, *_ = np.polyfit(times, fronts, 1, full=True)
    rss = float(residuals[0]) if len(residuals) else 0.0
    return VelocityFit(float(coeffs[0]), math.sqrt(rss / len(times)))


def spot_check_certificate(
    params: HarmonicParameters,
    cert: DecayCertificate,
    profile: DecayProfile,
    trials: int = 100,
    support_radius: int = 4,
    t_max: float = 1.0,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> float:
    """Largest ratio |sigma(T_t f, g)| / certified RHS over random triples.

    Labels are complex fields on small windows of the infinite lattice;
    values at or below 1 confirm the certificate on the sample.
    """
    rng = np.random.default_rng(seed)
    d = params.dimension
    geometry = LatticeGeometry.infinite(d, window_radius=support_radius)
    sites = ball_sites(d, support_radius)
    worst = 0.0
    for _ in range(trials):
        t = float(rng.uniform(-t_max, t_max))
        f = _random_field(rng, geometry, sites)
        g = _random_field(rng, geometry, sites)
        moved = apply_propagator_convolution(f, params, t, tolerance=tolerance)
        lhs = abs(symplectic_form(moved, g))
        rhs = harmonic_bound_rhs(f, g, t, cert, profile)
        worst = max(worst, lhs / rhs)
    return worst


def _random_field(rng, geometry, sites) -> Field:
    picks = rng.choice(len(sites), size=min(3, len(sites)), replace=False)
    entries = {}
    for idx in picks:
        entries[sites[int(idx)]] = complex(rng.normal(), rng.normal())
    return Field(geometry, entries)
