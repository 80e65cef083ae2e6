"""Anharmonic perturbations as even atomic Weyl measures, and their bounds.

A perturbation term on a finite site set X is a weighted sum of Weyl
operators W(z . delta_X) over atoms (z, w); evenness (each atom paired with
its negation) makes every term self-adjoint.  The estimates downstream only
see the measures through three moment constants:

    kappa   -- largest on-site second moment,
    kappa_a -- largest pair moment relative to F_a(d(x1, x2)),
    M       -- largest first moment through a site,

which feed the perturbed commutator bound and the volume-convergence tail
for the thermodynamic limit.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import DecayCertificate, _growth, pair_sum
from .harmonic import Field
from .lattice import (
    DecayProfile,
    DomainError,
    GeometryMismatchError,
    LatticeGeometry,
    _counted_sum,
    _is_int,
    site_sort_key,
)

__all__ = [
    "MeasureParityError",
    "AtomicWeylMeasure",
    "PerturbationFamily",
    "PairMoment",
    "second_moment",
    "pair_moment",
    "first_moment",
    "perturbed_bound",
    "convergence_tail",
    "convergence_tail_sets",
    "load_family",
    "cosine_family",
]


class MeasureParityError(ValueError):
    """An explicitly supplied atom set breaks the evenness requirement."""


def _atom_key(z: tuple) -> tuple:
    return tuple((val.real, val.imag) for val in z)


@dataclass(frozen=True)
class AtomicWeylMeasure:
    """Even atomic measure on labels supported by a fixed site set.

    Only one representative of each {z, -z} pair is stored; iteration
    mirrors it back, so moment sums automatically count both signs.  A zero
    vector is its own mirror and is stored (and iterated) once.
    """

    sites: tuple
    atoms: tuple

    def __post_init__(self):
        sites = tuple(self.sites)
        if len(sites) == 0:
            raise DomainError("measure needs a nonempty site set")
        if len(set(sites)) != len(sites):
            raise DomainError("measure sites must be distinct")
        object.__setattr__(self, "sites", tuple(sorted(sites, key=site_sort_key)))

        classes: dict[tuple, dict[tuple, float]] = {}
        for z, weight in self.atoms:
            z = tuple(complex(v) for v in z)
            weight = float(weight)
            if len(z) != len(self.sites):
                raise DomainError(
                    f"atom vector length {len(z)} does not match {len(self.sites)} sites"
                )
            if not weight > 0:
                raise DomainError("atom weights must be positive")
            key, mirror_key = _atom_key(z), _atom_key(tuple(-v for v in z))
            rep = max(key, mirror_key)
            bucket = classes.setdefault(rep, {})
            bucket[key] = bucket.get(key, 0.0) + weight

        canonical = []
        for rep, bucket in sorted(classes.items()):
            mirror = _atom_key(tuple(-complex(re, im) for re, im in rep))
            w_rep = bucket.get(rep, 0.0)
            w_mirror = bucket.get(mirror, 0.0)
            if rep == mirror:
                canonical.append((tuple(complex(re, im) for re, im in rep), w_rep))
                continue
            if w_rep > 0 and w_mirror > 0 and not math.isclose(w_rep, w_mirror, rel_tol=1e-12):
                raise MeasureParityError(
                    f"atom {rep} carries weight {w_rep} but its mirror carries {w_mirror}"
                )
            weight = w_rep if w_rep > 0 else w_mirror
            canonical.append((tuple(complex(re, im) for re, im in rep), weight))
        object.__setattr__(self, "atoms", tuple(canonical))

    def iter_atoms(self):
        """Yield (z, weight) pairs with mirrors restored."""
        for z, weight in self.atoms:
            yield z, weight
            if any(v != 0 for v in z):
                yield tuple(-v for v in z), weight


@dataclass(frozen=True)
class PerturbationFamily:
    """Collection of measures over subsets of a finite volume."""

    geometry: LatticeGeometry
    volume: tuple
    measures: tuple

    def __post_init__(self):
        volume = tuple(sorted((self.geometry.site(s) for s in self.volume), key=site_sort_key))
        if len(set(volume)) != len(volume):
            raise DomainError("volume sites must be distinct")
        object.__setattr__(self, "volume", volume)
        vol = set(volume)
        for measure in self.measures:
            if not set(measure.sites) <= vol:
                raise DomainError(f"measure support {measure.sites} not contained in the volume")

    @classmethod
    def empty(cls, geometry: LatticeGeometry) -> "PerturbationFamily":
        return cls(geometry, (), ())

    def restricted(self, sites) -> "PerturbationFamily":
        """Sub-family of measures entirely supported inside ``sites``."""
        keep = set(self.geometry.site(s) for s in sites)
        if not keep <= set(self.volume):
            raise DomainError("restriction sites must lie inside the volume")
        chosen = tuple(m for m in self.measures if set(m.sites) <= keep)
        return PerturbationFamily(self.geometry, tuple(sorted(keep, key=site_sort_key)), chosen)


class PairMoment(NamedTuple):
    kappa_a: float
    worst_pair: tuple | None
    converged: bool


def second_moment(family: PerturbationFamily) -> float:
    """On-site second-moment constant kappa, the largest sum of |z|^2 w."""
    per_site: dict = {}
    for measure in family.measures:
        if len(measure.sites) != 1:
            raise DomainError(
                "second_moment is defined for on-site families; use pair_moment "
                "for multi-site supports"
            )
        site = measure.sites[0]
        total = math.fsum(abs(z[0]) ** 2 * w for z, w in measure.iter_atoms())
        per_site[site] = per_site.get(site, 0.0) + total
    return max(per_site.values(), default=0.0)


def _pair_numerators(family: PerturbationFamily) -> dict:
    sums: dict = {}
    for measure in family.measures:
        for z, w in measure.iter_atoms():
            for i, x1 in enumerate(measure.sites):
                for j, x2 in enumerate(measure.sites):
                    if site_sort_key(x1) > site_sort_key(x2):
                        continue
                    sums[(x1, x2)] = sums.get((x1, x2), 0.0) + abs(z[i]) * abs(z[j]) * w
    return sums


def pair_moment(family: PerturbationFamily, profile: DecayProfile, window: int) -> PairMoment:
    """Pair-moment constant kappa_a over site pairs separated by <= window.

    Both orderings of a pair give the same value, so only canonical pairs
    are scanned; the diagonal x1 = x2 is included and is where an on-site
    family attains its maximum (kappa / F_a(0) = kappa).  The convergence
    flag compares against the half-window supremum.
    """
    if not _is_int(window) or window < 0:
        raise DomainError(f"window must be a nonnegative integer, got {window!r}")
    if profile.dimension != family.geometry.dimension:
        raise GeometryMismatchError("profile dimension does not match the family geometry")
    numerators = _pair_numerators(family)
    best, best_half, worst = 0.0, 0.0, None
    for (x1, x2), numerator in sorted(numerators.items()):
        dist = family.geometry.distance(x1, x2)
        if dist > window:
            continue
        ratio = numerator / profile.value(dist)
        if ratio > best:
            best, worst = ratio, (x1, x2)
        if dist <= window // 2 and ratio > best_half:
            best_half = ratio
    converged = best > 0 and math.isclose(best, best_half, rel_tol=1e-9)
    return PairMoment(best, worst, converged)


def first_moment(family: PerturbationFamily) -> float:
    """First-moment constant M, the largest sum of |z_x| w through a site."""
    per_site: dict = {}
    for measure in family.measures:
        for i, site in enumerate(measure.sites):
            total = math.fsum(abs(z[i]) * w for z, w in measure.iter_atoms())
            per_site[site] = per_site.get(site, 0.0) + total
    return max(per_site.values(), default=0.0)


def _perturbed_rate(
    cert: DecayCertificate, kappa_a: float, conv_constant: float, onsite: bool
) -> float:
    if not (kappa_a >= 0 and conv_constant >= 0):
        raise DomainError("moment and convolution constants must be nonnegative")
    power = conv_constant if onsite else conv_constant**2
    return cert.v_a + cert.c_a * kappa_a * power


def perturbed_bound(
    f: Field,
    g: Field,
    t: float,
    cert: DecayCertificate,
    kappa_a: float,
    conv_constant: float,
    profile: DecayProfile,
    onsite: bool = False,
) -> float:
    """RHS of the anharmonic commutator bound.

    The perturbation only accelerates the exponential rate: the prefactor
    and the decay double sum are those of the harmonic bound, with the
    exponent v_a + c_a kappa_a C_a^2 (multi-site measures) or
    v_a + c_a kappa C_a (on-site measures, ``onsite=True``, passing kappa
    for ``kappa_a``).
    """
    rate = _perturbed_rate(cert, kappa_a, conv_constant, onsite)
    return cert.c_a * _growth(rate, t) * pair_sum(f, g, profile)


def _tail_value(
    f: Field,
    shell_counts,
    t: float,
    moment: float,
    cert: DecayCertificate,
    kappa_a: float,
    conv_constant: float,
    profile: DecayProfile,
    onsite: bool,
) -> float:
    """The tail bound; ``shell_counts[k]`` counts the shell sites per l1 distance from
    the k-th site of ``f.support()``."""
    if not moment >= 0:
        raise DomainError("first moment must be nonnegative")
    if profile.dimension != f.geometry.dimension:
        raise GeometryMismatchError("profile dimension does not match the label geometry")
    rate = _perturbed_rate(cert, kappa_a, conv_constant, onsite)
    terms = []
    for (_, fx), counts in zip(f.items_sorted(), shell_counts):
        values = profile.value(np.arange(len(counts), dtype=float))
        terms.append(abs(fx) * _counted_sum(counts, values))
    reach = math.fsum(terms)
    return moment * cert.c_a * abs(t) * _growth(rate, t) * reach


def _box_counts(x, half_side: int, outer: int) -> np.ndarray:
    """Sites of (-L, L]^d per l1 distance from x, for x and L inside the box ``outer``."""
    axis = np.arange(1 - half_side, half_side + 1)
    counts = np.ones(1, dtype=np.int64)
    for c in x:
        counts = np.convolve(counts, np.bincount(np.abs(axis - c), minlength=2 * outer))
    return counts


def convergence_tail(
    f: Field,
    inner: int,
    outer: int,
    t: float,
    moment: float,
    cert: DecayCertificate,
    kappa_a: float,
    conv_constant: float,
    profile: DecayProfile,
    onsite: bool = False,
) -> float:
    """Bound on the dynamics difference between nested cubic volumes.

    Evaluates M c_a |t| e^{rate |t|} sum_x |f(x)| sum_{y in shell} F_a(d(x,y))
    with the shell between the boxes of half-sides ``inner`` <= ``outer``.
    The label must be supported inside the inner box for the bound to mean
    anything.
    """
    if not (_is_int(inner) and _is_int(outer)) or not 1 <= inner <= outer:
        raise DomainError(
            f"half-sides must be integers with 1 <= inner <= outer, got {inner!r}, {outer!r}"
        )
    if f.geometry.is_torus:
        raise GeometryMismatchError("volume convergence is posed on the infinite lattice")
    for site in f.support():
        if not all(-inner < c <= inner for c in site):
            raise DomainError(f"label site {site} lies outside the inner box {inner}")
    # The shell is the box (-outer, outer]^d less the inner box inside it.
    counts = [_box_counts(x, outer, outer) - _box_counts(x, inner, outer) for x in f.support()]
    return _tail_value(f, counts, t, moment, cert, kappa_a, conv_constant, profile, onsite)


def convergence_tail_sets(
    f: Field,
    inner_sites,
    outer_sites,
    t: float,
    moment: float,
    cert: DecayCertificate,
    kappa_a: float,
    conv_constant: float,
    profile: DecayProfile,
    onsite: bool = False,
) -> float:
    """Same tail bound between two explicit site sets (inner inside outer)."""
    inner = set(map(f.geometry.site, inner_sites))
    outer = set(map(f.geometry.site, outer_sites))
    if not inner <= outer:
        raise DomainError("inner sites must be contained in the outer sites")
    if not set(f.support()) <= inner:
        raise DomainError("label must be supported inside the inner site set")
    shell = np.array(list(outer - inner), dtype=np.int64).reshape(-1, f.geometry.dimension)
    counts = [np.bincount(np.abs(shell - x).sum(axis=1)) for x in f.support()]
    return _tail_value(f, counts, t, moment, cert, kappa_a, conv_constant, profile, onsite)


# ---------------------------------------------------------------------------
# Family construction and JSON round-tripping.


def cosine_family(geometry: LatticeGeometry, sites, z: complex, weight: float = 1.0):
    """On-site cosine perturbations: one even atom pair per listed site.

    Each site carries w (W(z delta_x) + W(-z delta_x)) = 2 w cos(...), the
    standard bounded anharmonicity.
    """
    sites = tuple(geometry.site(s) for s in sites)
    measures = tuple(
        AtomicWeylMeasure(sites=(s,), atoms=(((complex(z),), float(weight)),)) for s in sites
    )
    return PerturbationFamily(geometry, sites, measures)


def _is_number(v) -> bool:
    """A finite JSON number; booleans, numeric strings, NaN, infinities and
    integers beyond the float range are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def load_family(source, geometry: LatticeGeometry) -> PerturbationFamily:
    """Read a perturbation family from a JSON file path or parsed list.

    Schema: [{"sites": [...], "atoms": [{"z": [[re, im], ...], "weight": w}]}]
    with one z entry per site.  Evenness is restored by mirroring; files
    that list both signs of an atom with unequal weights are rejected.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = source
    if not isinstance(data, list):
        raise DomainError("perturbation file must contain a JSON list of measures")

    measures = []
    volume: set = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise DomainError(f"measure {i} is not an object")
        unknown = set(entry) - {"sites", "atoms"}
        if unknown:
            raise DomainError(f"measure {i} has unknown keys: {sorted(unknown)}")
        if "sites" not in entry or "atoms" not in entry:
            raise DomainError(f"measure {i} needs both 'sites' and 'atoms'")
        sites = tuple(geometry.site(s) for s in entry["sites"])
        atoms = []
        for j, atom in enumerate(entry["atoms"]):
            if not isinstance(atom, dict) or set(atom) != {"z", "weight"}:
                raise DomainError(f"atom {j} of measure {i} must have exactly 'z' and 'weight'")
            zs = atom["z"]
            if not isinstance(zs, list) or len(zs) != len(sites):
                raise DomainError(f"atom {j} of measure {i} needs one z entry per site")
            vec = []
            for pair in zs:
                if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
                    raise DomainError(
                        f"z entries of measure {i} must be [re, im] pairs of finite numbers"
                    )
                vec.append(complex(float(pair[0]), float(pair[1])))
            if not _is_number(atom["weight"]):
                raise DomainError(f"weight of atom {j} of measure {i} must be a finite number")
            atoms.append((tuple(vec), float(atom["weight"])))
        measures.append(AtomicWeylMeasure(sites=sites, atoms=tuple(atoms)))
        volume.update(measures[-1].sites)

    return PerturbationFamily(
        geometry, tuple(sorted(volume, key=site_sort_key)), tuple(measures)
    )
