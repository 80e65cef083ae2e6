"""The torus propagator and vacuum form against a real-space normal-mode oracle.

``realspace`` diagonalizes the stiffness matrix of each torus with one
``eigh``; the library goes through the discrete Fourier transform and its
dispersion.  The tori have anisotropic couplings and, for the massless case,
labels whose position part has zero lattice mean.
"""

import numpy as np
import pytest
from realspace import NormalModes, torus_stiffness

from lrlattice import (
    Field,
    HarmonicParameters,
    LatticeGeometry,
    QuasiFreeState,
    apply_propagator_torus,
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
