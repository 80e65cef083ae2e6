"""Weyl operators as phase-tagged labels, and the quasi-free vacuum state.

A Weyl operator never becomes a matrix here: the pair (phase, label) is the
algebra element, multiplied through the canonical relation

    W(f) W(g) = exp(-i sigma(f, g) / 2) W(f + g),

which keeps products exact at any lattice size.  The vacuum functional of
the harmonic model evaluates on a torus through the Bogoliubov multipliers,

    rho(W(f)) = exp(-||(gamma^-1/2 Re f^, gamma^1/2 Im f^)||^2 / 4),

where hats are discrete Fourier transforms.  On a massless torus the k = 0
multiplier diverges and only labels with zero-mean position part are in the
form domain; callers may opt into the extended convention rho = 0 outside
it instead of receiving an error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .harmonic import (
    Field,
    HarmonicParameters,
    ZeroModeError,
    _reject_nonzero_mean,
    _torus_gamma,
    apply_propagator_convolution,
    apply_propagator_torus,
    symplectic_form,
)
from .lattice import DomainError, GeometryMismatchError, LatticeGeometry

__all__ = [
    "WeylOperator",
    "QuasiFreeState",
    "multiply",
    "adjoint",
    "free_evolve",
    "commutator_norm",
    "state_eval",
    "three_point",
    "three_point_continuity",
    "smeared_norm_sq",
]


@dataclass(frozen=True)
class WeylOperator:
    """Phase-tagged Weyl label; phase is renormalized to unit modulus."""

    label: Field
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        mag = abs(self.phase)
        if mag == 0.0:
            raise DomainError("Weyl phase must be nonzero")
        if mag != 1.0:
            object.__setattr__(self, "phase", self.phase / mag)

    @classmethod
    def identity(cls, geometry: LatticeGeometry) -> "WeylOperator":
        return cls(Field.zero(geometry))

    @property
    def geometry(self) -> LatticeGeometry:
        return self.label.geometry

    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        return multiply(self, other)


def multiply(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Product through the Weyl relation; the labels simply add."""
    if a.geometry != b.geometry:
        raise GeometryMismatchError("Weyl operators live on different geometries")
    twist = cmath.exp(-0.5j * symplectic_form(a.label, b.label))
    return WeylOperator(a.label + b.label, a.phase * b.phase * twist)


def adjoint(a: WeylOperator) -> WeylOperator:
    return WeylOperator(-a.label, a.phase.conjugate())


def free_evolve(
    a: WeylOperator, params: HarmonicParameters, t: float, tolerance: float = 1e-10
) -> WeylOperator:
    """Heisenberg evolution: the label moves by the symplectic propagator."""
    return WeylOperator(_propagate(a.label, params, t, tolerance), a.phase)


def _propagate(f: Field, params: HarmonicParameters, t: float, tolerance: float) -> Field:
    if f.geometry.is_torus:
        return apply_propagator_torus(f, params, t)
    return apply_propagator_convolution(f, params, t, tolerance=tolerance)


def commutator_norm(
    f: Field, g: Field, params: HarmonicParameters, t: float, tolerance: float = 1e-10
) -> float:
    """Exact norm of [evolved W(f), W(g)]: |1 - exp(i sigma(T_t f, g))|.

    Unitarity of Weyl operators makes the scalar factor the whole norm, so
    the value always lies in [0, 2] and is dominated by |sigma(T_t f, g)|.
    """
    moved = _propagate(f, params, t, tolerance)
    return abs(1.0 - cmath.exp(1.0j * symplectic_form(moved, g)))


@dataclass(frozen=True)
class QuasiFreeState:
    """Vacuum functional of the harmonic model on a torus."""

    params: HarmonicParameters
    geometry: LatticeGeometry

    def __post_init__(self):
        if not self.geometry.is_torus:
            raise GeometryMismatchError("quasi-free state evaluation needs a torus")
        if self.geometry.dimension != self.params.dimension:
            raise GeometryMismatchError("state geometry and parameters disagree on dimension")


def smeared_norm_sq(state: QuasiFreeState, f: Field, zero_convention: bool = False) -> float:
    """The quadratic form ||(U* - V*) f||^2 driving the Gaussian weight.

    In Fourier variables the cross terms between position and momentum
    parts cancel exactly, leaving sum_k |u^|^2 / gamma + gamma |v^|^2 over
    the torus modes (unitary transform normalization).  At omega = 0 the
    k = 0 position term is 0/0; labels must have zero-mean real part, for
    which the term vanishes, and others are rejected (or, with
    ``zero_convention``, mapped to +inf so the state evaluates to 0).
    """
    if f.geometry != state.geometry:
        raise GeometryMismatchError("label does not live on the state's torus")
    if f.is_zero():
        return 0.0
    dense = f.to_dense()
    gam = _torus_gamma(state.params, state.geometry)
    u_hat = np.fft.fftn(dense.real)
    v_hat = np.fft.fftn(dense.imag)
    total_sites = dense.size

    if state.params.is_massless:
        try:
            _reject_nonzero_mean(f)
        except ZeroModeError:
            if zero_convention:
                return math.inf
            raise
        live = gam > 0
        position = float(np.sum(np.abs(u_hat[live]) ** 2 / gam[live]))
    else:
        position = float(np.sum(np.abs(u_hat) ** 2 / gam))
    momentum = float(np.sum(gam * np.abs(v_hat) ** 2))
    return (position + momentum) / total_sites


def state_eval(state: QuasiFreeState, a: WeylOperator, zero_convention: bool = False) -> complex:
    """Vacuum expectation phase * exp(-||(U*-V*) label||^2 / 4)."""
    form = smeared_norm_sq(state, a.label, zero_convention)
    if math.isinf(form):
        return 0.0 + 0.0j
    return a.phase * math.exp(-0.25 * form)


def three_point(
    state: QuasiFreeState,
    g1: Field,
    f: Field,
    g2: Field,
    t: float,
    zero_convention: bool = False,
) -> complex:
    """Correlation rho(W(g1) tau_t(W(f)) W(g2)) via the Weyl relations.

    The product reduces to a single Weyl operator with an explicit phase,
    so the value is two symplectic phases times the Gaussian weight of the
    summed label g1 + T_t f + g2.
    """
    for label in (g1, f, g2):
        if label.geometry != state.geometry:
            raise GeometryMismatchError("labels do not live on the state's torus")
    moved = apply_propagator_torus(f, state.params, t)
    form = smeared_norm_sq(state, g1 + g2 + moved, zero_convention)
    if math.isinf(form):
        return 0.0 + 0.0j
    phase = cmath.exp(0.5j * symplectic_form(g1, g2))
    phase *= cmath.exp(0.5j * symplectic_form(moved, g2 - g1))
    return phase * math.exp(-0.25 * form)


def three_point_continuity(
    state: QuasiFreeState, g1: Field, f: Field, g2: Field, t_grid
) -> tuple[tuple[complex, ...], float]:
    """Three-point values on a time grid and their modulus of continuity.

    The modulus is the largest jump between neighbouring grid values; under
    grid refinement it decays linearly in the step for omega > 0, which is
    the measurable form of weak continuity of the dynamics.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if len(t_grid) < 2:
        raise DomainError("continuity scan needs at least two grid points")
    values = tuple(three_point(state, g1, f, g2, t) for t in t_grid)
    modulus = max(abs(values[i + 1] - values[i]) for i in range(len(values) - 1))
    return values, modulus
