"""Distance-count sums against site-enumerating references, compared with ``==``.

The references list every site, apply F_a and ``math.fsum`` the terms, as
the library did before it summed over l1-distance counts.  Both sides are
exactly rounded sums of the same multiset of terms, so they must agree bit
for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lrlattice import (
    DecayProfile,
    Field,
    HarmonicParameters,
    LatticeGeometry,
    ball_sites,
    convergence_tail,
    convergence_tail_sets,
    derive_constants,
)
from lrlattice.lattice import _convolution_value, _counted_sum


def reference_tail(f, shell, t, moment, cert, kappa_a, conv, profile, onsite):
    if len(shell) == 0:
        return 0.0
    rate = cert.v_a + cert.c_a * kappa_a * (conv if onsite else conv**2)
    terms = []
    for x, fx in f.items_sorted():
        dists = np.abs(shell - np.asarray(x, dtype=np.int64)).sum(axis=1)
        terms.append(abs(fx) * float(math.fsum(profile.value(dists))))
    return moment * cert.c_a * abs(t) * math.exp(rate * abs(t)) * math.fsum(terms)


def reference_box_shell(d, inner, outer):
    """The sites of (-outer, outer]^d outside (-inner, inner]^d, as an (n, d) array."""
    axis = np.arange(1 - outer, outer + 1)
    box = np.stack(np.meshgrid(*(axis,) * d, indexing="ij"), axis=-1).reshape(-1, d)
    return box[~((box > -inner) & (box <= inner)).all(axis=1)]


def reference_convolution_value(profile, window):
    d = profile.dimension
    pts = ball_sites(d, 2 * window)
    radii = np.abs(pts).sum(axis=1)
    table = profile.value(np.arange(3 * window + 1, dtype=float))
    fz = table[radii]
    best, best_sep = -math.inf, (0,) * d
    seps = ball_sites(d, window)
    seps = seps[(seps >= 0).all(axis=1) & (seps[:, :-1] >= seps[:, 1:]).all(axis=1)]
    for s in seps.tolist():
        dist = np.abs(pts - np.asarray(s, dtype=np.int64)).sum(axis=1)
        ratio = math.fsum((fz * table[dist]).tolist()) / table[sum(s)]
        if ratio > best:
            best, best_sep = ratio, tuple(s)
    return best, best_sep


# Label sites inside box 2, (-2, 2]^d, with coordinates on both of its edges.
LABELS = {
    1: [{(0,): 0.5}, {(2,): 0.3 - 0.2j, (-1,): 0.1j}, {(0,): 0.4, (2,): -0.25j, (-1,): 1.5}],
    2: [
        {(2, -1): 0.5j},
        {(0, 0): 0.3, (-1, 2): 0.2 - 0.1j},
        {(0, 0): 1.0, (2, 2): 0.5j, (-1, 1): -0.3},
    ],
    3: [
        {(0, 0, 0): 0.7},
        {(2, -1, 0): 0.3j, (-1, 2, 2): 0.2},
        {(0, 0, 0): 0.5, (2, 2, -1): 0.1 + 0.4j, (1, -1, 2): -0.2},
    ],
}
BOXES = {1: (2, 3, 9, 40), 2: (2, 3, 7, 16), 3: (2, 3, 6, 9)}
# Adjacent indices, non-adjacent ones, and m == n.
INDEX_PAIRS = [(1, 0), (2, 1), (3, 2), (2, 0), (3, 0), (3, 1), (0, 0), (2, 2)]


def chain_setup(d, rate):
    profile = DecayProfile(d, epsilon=1.0, rate=rate)
    cert = derive_constants(HarmonicParameters(1.0, (1.0,) * d), rate, profile)
    return cert, profile


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("label", [0, 1, 2])
@pytest.mark.parametrize("onsite", [False, True])
def test_convergence_tail_matches_the_site_enumeration(d, label, onsite):
    cert, profile = chain_setup(d, 0.5 if onsite else 1.0)
    f = Field(LatticeGeometry.infinite(d), LABELS[d][label])
    boxes = BOXES[d]
    for n, m in INDEX_PAIRS:
        inner, outer = boxes[m], boxes[n]
        shell = reference_box_shell(d, inner, outer)
        args = (0.3, 0.4, cert, 0.08, 2.5, profile, onsite)
        assert convergence_tail(f, inner, outer, *args) == reference_tail(f, shell, *args), (n, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_convergence_tail_sets_matches_the_site_enumeration(d):
    cert, profile = chain_setup(d, 1.0)
    f = Field(LatticeGeometry.infinite(d), LABELS[d][2])
    rng = np.random.default_rng(d)
    outer = [tuple(x) for x in ball_sites(d, 6).tolist() if rng.random() < 0.6]
    inner = set(f.support()) | {x for x in outer if sum(map(abs, x)) <= 2}
    outer = sorted(set(outer) | inner)
    shell = np.array(sorted(set(outer) - inner), dtype=np.int64)
    for t in (0.0, 0.25, -1.5):
        args = (t, 0.4, cert, 0.08, 2.5, profile, False)
        assert convergence_tail_sets(f, inner, outer, *args) == reference_tail(f, shell, *args)
    # An empty shell sums to 0.0, as it did before.
    assert convergence_tail_sets(f, inner, inner, *args) == 0.0


@pytest.mark.parametrize("d, windows", [(1, range(2, 41)), (2, range(2, 13)), (3, range(2, 9))])
@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
def test_convolution_value_matches_the_site_enumeration(d, windows, rate, epsilon):
    profile = DecayProfile(d, epsilon=epsilon, rate=rate)
    for window in windows:
        assert _convolution_value(profile, window) == reference_convolution_value(profile, window)


def test_counted_sum_is_fsum_over_the_repeated_values():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        values = rng.random(n) * 10.0 ** rng.integers(-320, 3, n)
        values[rng.random(n) < 0.2] = 5e-324 * rng.integers(1, 2**20, n)[0]  # subnormal
        counts = rng.integers(0, 6, n)
        counts[rng.random(n) < 0.3] = 0
        expected = math.fsum(np.repeat(values, counts).tolist())
        assert _counted_sum(counts, values) == expected


@pytest.mark.parametrize("count", [2**26 - 1, 2**26, 2**26 + 1, 3 * 2**26 + 12345, 2**52 - 1])
def test_counted_sum_is_exact_on_both_sides_of_two_to_the_26(count):
    # Repeating a value 2**26 times does not fit in memory; the exactly rounded
    # sum, which fsum over the repeated values would return, is the rounded Fraction.
    rng = np.random.default_rng(count % 1000)
    values = np.concatenate([rng.random(5), [5e-324, 2.5e-310, 1.0 / 3.0, 0.1]])
    counts = np.array([count, 0, 7, count // 3, 1, count, 2**26 - 1, count, 3], dtype=np.int64)
    exact = sum(Fraction(int(c)) * Fraction(float(v)) for c, v in zip(counts, values))
    assert _counted_sum(counts, values) == float(exact)
