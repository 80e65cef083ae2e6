"""Harmonic lattice dynamics with certified locality bounds.

Exact symplectic propagators for infinite and periodic oscillator
lattices, Weyl-algebra commutator norms in closed form, quasi-free state
functionals, decay-envelope certificates with derived velocity bounds,
anharmonic perturbation moments and volume-convergence tails, and a dense
truncated-Fock-space oracle that cross-checks all of it on 1 to 3 sites.

Each public name is declared once, in its module's ``__all__``; the package
re-exports the union of those lists.
"""

from . import bounds, fock, harmonic, lattice, perturbations, weyl
from .bounds import *
from .fock import *
from .harmonic import *
from .lattice import *
from .perturbations import *
from .weyl import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *lattice.__all__,
    *harmonic.__all__,
    *weyl.__all__,
    *bounds.__all__,
    *perturbations.__all__,
    *fock.__all__,
]
