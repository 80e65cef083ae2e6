"""The propagators and vacuum form against a real-space normal-mode oracle.

``realspace`` diagonalizes the stiffness matrix of each torus or open box
with one ``eigh``; the library goes through the discrete Fourier transform
and its dispersion on a torus, and through Brillouin-zone kernels on Z^d.
The tori have anisotropic couplings and, for the massless case, labels
whose position part has zero lattice mean.  An open box [-L, L]^d differs
from Z^d only by its boundary, so it agrees with the convolution
propagator up to a tolerance that shrinks with L.
"""

import cmath

import numpy as np
import pytest
from realspace import NormalModes, box_stiffness, torus_stiffness

from lrlattice import (
    Field,
    HarmonicParameters,
    LatticeGeometry,
    QuasiFreeState,
    apply_propagator_convolution,
    apply_propagator_torus,
    ball_sites,
    commutator_norm,
    smeared_norm_sq,
)

TOL = 1e-14

TORI = [
    pytest.param(HarmonicParameters(0.5, (1.0,)), 6, id="d1"),
    pytest.param(HarmonicParameters(0.7, (1.0, 0.5)), 4, id="d2"),
    pytest.param(HarmonicParameters(1.3, (0.4, 1.0, 0.8)), 3, id="d3"),
    pytest.param(HarmonicParameters(0.0, (0.8, 1.3)), 4, id="d2-massless"),
]


def _setup(params, half_side):
    geometry = LatticeGeometry.torus(params.dimension, half_side=half_side)
    modes = NormalModes(torus_stiffness(params.omega, params.couplings, half_side))
    return geometry, modes


def _labels(params, geometry, seed):
    """A dense random label and a sparse one, both with unit l2 norm; on a
    massless torus their position parts have zero lattice mean."""
    rng = np.random.default_rng(seed)
    shape = (geometry.extent,) * params.dimension
    dense = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    sparse = np.zeros(shape, dtype=complex)
    sparse[(0,) * params.dimension] = 0.5 + 0.2j
    sparse[(1,) + (0,) * (params.dimension - 1)] = 0.1
    sparse[(-1,) * params.dimension] = -0.3j
    labels = []
    for label in (dense, sparse):
        if params.is_massless:
            label = label - label.real.mean()
        labels.append(label / np.linalg.norm(label))
    return labels


@pytest.mark.parametrize("params, half_side", TORI)
@pytest.mark.parametrize("t", [0.37, 1.9])
def test_propagator_matches_normal_modes(params, half_side, t):
    geometry, modes = _setup(params, half_side)
    for dense in _labels(params, geometry, seed=11):
        moved = apply_propagator_torus(Field.from_dense(geometry, dense), params, t)
        assert np.abs(moved.to_dense() - modes.evolve(dense, t)).max() <= TOL


@pytest.mark.parametrize("params, half_side", TORI)
def test_vacuum_form_matches_normal_modes(params, half_side):
    geometry, modes = _setup(params, half_side)
    state = QuasiFreeState(params, geometry)
    for dense in _labels(params, geometry, seed=12):
        expected = modes.vacuum_form(dense)
        value = smeared_norm_sq(state, Field.from_dense(geometry, dense))
        assert abs(value - expected) <= TOL * expected


# Z^d cases: parameters, time, and the l1 gap allowed against the open box
# of each half-side L.  Measured gaps fall faster than geometrically in L
# (d = 1 massless: 3.2e-3, 7.4e-6, 3.9e-9 and 7.4e-13 at L = 4, 6, 8, 10;
# d = 2: 5.3e-4, 3.6e-7 and 5.7e-11 at L = 4, 6, 8); each bound is 3-6
# times its worst measured gap.
CHAIN_GAPS = {4: 1e-2, 6: 3e-5, 8: 2e-8, 10: 3e-12}
PLANE_GAPS = {4: 2e-3, 6: 1.5e-6, 8: 3e-10}
BOXES = [
    pytest.param(HarmonicParameters(1.0, (1.0,)), 1.0, CHAIN_GAPS, id="d1"),
    pytest.param(HarmonicParameters(0.0, (1.0,)), 1.0, CHAIN_GAPS, id="d1-massless"),
    pytest.param(HarmonicParameters(1.0, (1.0, 1.0)), 0.75, PLANE_GAPS, id="d2"),
    pytest.param(HarmonicParameters(0.7, (1.0, 0.5)), 0.75, PLANE_GAPS, id="d2-anisotropic"),
]
# d = 3 at t = 0.5, measured gaps at L = 3, 4, 5: 1.7e-3, 3.9e-5 and 5.3e-7
# isotropic, 3.9e-4, 5.0e-6 and 4.1e-8 anisotropic.  Each convolution takes
# about a second, so only the propagator test runs them.
SPACE_BOXES = [
    pytest.param(
        HarmonicParameters(1.0, (1.0, 1.0, 1.0)), 0.5, {3: 6e-3, 4: 1.5e-4, 5: 2e-6}, id="d3"
    ),
    pytest.param(
        HarmonicParameters(1.3, (0.4, 1.0, 0.8)),
        0.5,
        {3: 1.5e-3, 4: 2e-5, 5: 1.5e-7},
        id="d3-anisotropic",
    ),
]


def _box_evolve(params, half_side, label: dict, t):
    """T_t of a label ({site: value}) on the open box: the box's sites and T_t f there."""
    d, L = params.dimension, half_side
    dense = np.zeros((2 * L + 1,) * d, dtype=complex)
    for site, value in label.items():
        dense[tuple(c + L for c in site)] = value
    moved = NormalModes(box_stiffness(params.omega, params.couplings, L)).evolve(dense, t)
    sites = ball_sites(d, d * L)
    sites = sites[np.all(np.abs(sites) <= L, axis=1)]
    return sites, moved[tuple((sites + L).T)]


@pytest.mark.parametrize("params, t, gaps", BOXES + SPACE_BOXES)
def test_convolution_propagator_matches_open_boxes(params, t, gaps):
    d = params.dimension
    label = {(0,) * d: 0.5 + 0.2j, (1,) + (0,) * (d - 1): -0.1j}
    f = Field(LatticeGeometry.infinite(d), label)
    moved = apply_propagator_convolution(f, params, t, tolerance=1e-13)
    for L, allowed in gaps.items():
        sites, boxed = _box_evolve(params, L, label, t)
        # The l1 gap over the box, plus the library's mass outside it.
        inside = moved._values_at(sites)
        gap = np.abs(inside - boxed).sum() + moved.norm_l1() - np.abs(inside).sum()
        assert gap <= allowed, L


@pytest.mark.parametrize("params, t, gaps", BOXES)
def test_commutator_norm_matches_open_boxes(params, t, gaps):
    d = params.dimension
    geometry = LatticeGeometry.infinite(d)
    f_label = {(0,) * d: 0.5 + 0.2j, (-1,) * d: 0.3}
    g_label = {(2,) + (0,) * (d - 1): -0.4 + 0.3j, (0,) * (d - 1) + (-1,): 0.2j}
    sites, boxed = _box_evolve(params, max(gaps), f_label, t)
    g = Field(geometry, g_label)
    sigma = float(np.sum(np.conj(boxed) * g._values_at(sites)).imag)
    expected = abs(1.0 - cmath.exp(1j * sigma))
    value = commutator_norm(Field(geometry, f_label), g, params, t)
    assert abs(value - expected) <= 1e-11
