"""Real-space normal-mode oracle for the harmonic torus and the open box.

With H = p.p + q.K q, Hamilton's equations read dq/dt = 2p and
dp/dt = -2Kq, where K is the stiffness matrix of the lattice graph.  With
K = V diag(g^2) V^T, a Weyl label f = u + iv evolves as

    T_t f = V[(cos 2gt u^ - g sin 2gt v^) + i (sin 2gt / g u^ + cos 2gt v^)],

with u^ = V^T u and v^ = V^T v, and the vacuum form is u^.u^/g + g v^.v^.
Everything here is one ``eigh`` of K: no FFT, no Fourier symbol and no
quadrature, so it checks the library's torus propagator and state from
outside.  Dense arrays use the library's torus layout: index i along an
axis stands for the coordinate i mod 2L.  On the open box [-L, L]^d, index
i stands for the coordinate i - L.
"""

from __future__ import annotations

import numpy as np


def torus_stiffness(omega: float, couplings, half_side: int) -> np.ndarray:
    """K = omega^2 + sum_j lambda_j (2 - S_j - S_j^-1) on the torus (-L, L]^d.

    On a side of two sites S_j and S_j^-1 reach the same neighbour, so that
    bond is counted twice, as in the periodic Hamiltonian.
    """
    d, n = len(couplings), 2 * half_side
    index = np.arange(n**d).reshape((n,) * d)
    sites = index.ravel()
    stiffness = np.diag(np.full(n**d, omega**2 + 2.0 * sum(couplings)))
    for axis, lam in enumerate(couplings):
        neighbour = np.roll(index, -1, axis=axis).ravel()
        np.add.at(stiffness, (sites, neighbour), -lam)
        np.add.at(stiffness, (neighbour, sites), -lam)
    return stiffness


def box_stiffness(omega: float, couplings, half_side: int) -> np.ndarray:
    """K of the open box [-L, L]^d: omega^2 plus lambda_j (e_x - e_y)(e_x - e_y)^T
    for each bond x ~ y along axis j inside the box.

    Bonds that would leave the box are dropped, so a boundary site has fewer
    neighbours; as L grows the box dynamics near the origin approach Z^d.
    """
    d, n = len(couplings), 2 * half_side + 1
    index = np.arange(n**d).reshape((n,) * d)
    stiffness = np.diag(np.full(n**d, float(omega) ** 2))
    for axis, lam in enumerate(couplings):
        here = np.take(index, np.arange(n - 1), axis=axis).ravel()
        there = np.take(index, np.arange(1, n), axis=axis).ravel()
        stiffness[here, there] -= lam
        stiffness[there, here] -= lam
        stiffness[here, here] += lam
        stiffness[there, there] += lam
    return stiffness


class NormalModes:
    """The eigendecomposition of a stiffness matrix and the two formulas above."""

    def __init__(self, stiffness: np.ndarray):
        evals, self.vecs = np.linalg.eigh(stiffness)
        # A massless torus has one zero mode, whose eigenvalue is 0 up to roundoff.
        self.live = evals > 1e-12 * evals.max()
        self.g = np.sqrt(np.where(self.live, evals, 0.0))

    def _modes(self, dense: np.ndarray):
        return self.vecs.T @ dense.real.ravel(), self.vecs.T @ dense.imag.ravel()

    def evolve(self, dense: np.ndarray, t: float) -> np.ndarray:
        """T_t of a dense label; at a zero mode sin(2gt)/g is its limit 2t."""
        u, v = self._modes(dense)
        cos, sin = np.cos(2.0 * self.g * t), np.sin(2.0 * self.g * t)
        ratio = np.divide(sin, self.g, out=np.full_like(sin, 2.0 * t), where=self.live)
        real = self.vecs @ (cos * u - self.g * sin * v)
        imag = self.vecs @ (ratio * u + cos * v)
        return (real + 1j * imag).reshape(dense.shape)

    def vacuum_form(self, dense: np.ndarray) -> float:
        """u^.u^/g + g v^.v^, over the live modes for the position part."""
        u, v = self._modes(dense)
        live = self.live
        return float(np.sum(u[live] ** 2 / self.g[live]) + np.sum(self.g * v**2))
