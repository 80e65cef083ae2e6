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
    _check_time,
    _exact_inner,
    _fftn,
    _torus_flow,
    _torus_gamma,
    apply_propagator_convolution,
    apply_propagator_torus,
    symplectic_form,
)
from .lattice import DomainError, GeometryMismatchError, LatticeGeometry

# Torus nodes evolved at once: a time grid goes in chunks of at most this many (and at least
# one time); larger stacks ran slower than one time at a time (d = 2 at half-side 64-80).
FLOW_NODES = 2**13

__all__ = [
    "ZeroModeError",
    "WeylOperator",
    "QuasiFreeState",
    "multiply",
    "adjoint",
    "commutator_norm",
    "state_eval",
    "three_point",
    "three_point_continuity",
    "smeared_norm_sq",
]


class ZeroModeError(ValueError):
    """A massless vacuum form needs a zero-mean position part.

    With omega = 0 the k = 0 position term of the Gaussian weight is 0/0;
    labels whose real (position) part has nonzero lattice mean fall outside
    the domain of the quasi-free state.  The dynamics accepts every label.
    """


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

    @property
    def geometry(self) -> LatticeGeometry:
        return self.label.geometry


def multiply(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Product through the Weyl relation; the labels simply add."""
    twist = cmath.exp(-0.5j * symplectic_form(a.label, b.label))
    return WeylOperator(a.label + b.label, a.phase * b.phase * twist)


def adjoint(a: WeylOperator) -> WeylOperator:
    return WeylOperator(-a.label, a.phase.conjugate())


def commutator_norm(f: Field, g: Field, params: HarmonicParameters, t: float) -> float:
    """Exact norm of [evolved W(f), W(g)]: |1 - exp(i sigma(T_t f, g))|.

    Unitarity of Weyl operators makes the scalar factor the whole norm, so
    the value always lies in [0, 2] and is dominated by |sigma(T_t f, g)|.
    """
    if f.geometry.is_torus:
        moved = apply_propagator_torus(f, params, t)
    else:
        moved = apply_propagator_convolution(f, params, t)
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
        if self.params.is_massless and not all(self.params.couplings):
            raise DomainError("a massless state needs every coupling positive")


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
    dense = f.to_dense()
    if _outside_domain(state, dense, zero_convention):
        return math.inf
    return _dense_forms(dense[np.newaxis], _torus_gamma(state.params, f.geometry)).item()


def _outside_domain(state, dense: np.ndarray, zero_convention: bool) -> bool:
    """The massless zero-mode test, on the exactly rounded sum of the position part."""
    if not state.params.is_massless:
        return False
    mean = abs(math.fsum(dense.real.ravel().tolist()))
    if mean <= 1e-12 * max(math.fsum(np.hypot(dense.real, dense.imag).ravel().tolist()), 1e-300):
        return False
    if zero_convention:
        return True
    raise ZeroModeError(
        "massless models need the position part to have zero lattice mean; "
        f"got mean magnitude {mean:.3e}"
    )


def _dense_forms(stack: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """``smeared_norm_sq`` of each slice of a (T, ...) stack of dense labels in the form domain."""
    d, live, rows = gam.ndim, gam > 0, len(stack)
    u_hat = _fftn(stack.real, d).reshape(rows, -1).compress(live.ravel(), axis=1)
    v_hat = _fftn(stack.imag, d)
    # Sums along C-contiguous rows: the pairwise blocking np.sum takes over one label.
    position = np.sum(np.abs(u_hat) ** 2 / gam[live], axis=1)
    momentum = np.sum((gam * np.abs(v_hat) ** 2).reshape(rows, -1), axis=1)
    return (position + momentum) / gam.size


def state_eval(state: QuasiFreeState, a: WeylOperator, zero_convention: bool = False) -> complex:
    """Vacuum expectation phase * exp(-||(U*-V*) label||^2 / 4)."""
    form = smeared_norm_sq(state, a.label, zero_convention)
    if math.isinf(form):
        return 0.0 + 0.0j
    return a.phase * math.exp(-0.25 * form)


def _three_point_values(state, g1, f, g2, t_grid, zero_convention) -> list[complex]:
    """``three_point`` per time on dense torus arrays; the twist reads T_t f at g2 - g1."""
    if any(label.geometry != state.geometry for label in (g1, f, g2)):
        raise GeometryMismatchError("labels do not live on the state's torus")
    for t in t_grid:
        _check_time(t)
    # Dense sums and exact sums give the bits of the Field sums and symplectic_form.
    g1, f, g2 = g1.to_dense(), f.to_dense(), g2.to_dense()
    shift, diff = g1 + g2, g2 - g1
    # T_t keeps the position sum, so the total's zero-mode test holds at every t if at 0.
    if _outside_domain(state, shift + f, zero_convention):
        return [0.0 + 0.0j] * len(t_grid)
    at = np.nonzero(diff)
    phase = cmath.exp(0.5j * _exact_inner(g1, g2).imag)
    gam = _torus_gamma(state.params, state.geometry)
    flow = _torus_flow(f, state.params, gam)
    step = max(1, FLOW_NODES // f.size)
    values = []
    for start in range(0, len(t_grid), step):
        moved = flow(t_grid[start : start + step])
        for label, form in zip(moved, _dense_forms(shift + moved, gam).tolist()):
            if math.isinf(form):
                values.append(0.0 + 0.0j)
            else:
                twist = cmath.exp(0.5j * _exact_inner(label[at], diff[at]).imag)
                values.append(phase * twist * math.exp(-0.25 * form))
    return values


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
    return _three_point_values(state, g1, f, g2, (t,), zero_convention)[0]


def three_point_continuity(
    state: QuasiFreeState, g1: Field, f: Field, g2: Field, t_grid, zero_convention: bool = False
) -> tuple[tuple[complex, ...], float]:
    """Three-point values on a time grid and their modulus of continuity.

    The modulus is the largest jump between neighbouring grid values; under
    grid refinement it decays linearly in the step for omega > 0, which is
    the measurable form of weak continuity of the dynamics.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if len(t_grid) < 2:
        raise DomainError("continuity scan needs at least two grid points")
    values = tuple(_three_point_values(state, g1, f, g2, t_grid, zero_convention))
    modulus = max(abs(values[i + 1] - values[i]) for i in range(len(values) - 1))
    return values, modulus
