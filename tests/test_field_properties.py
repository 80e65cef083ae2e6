"""Property tests for the array-backed ``Field`` against a plain-dict reference.

The reference is the scalar semantics a label has always had: sites are
validated one by one, values accumulate per site in mapping order, exact
zeros are dropped, and every stored value is ``0.0 + value``, so no part is
a negative zero.  Values are compared bit for bit, signs of zero included.
"""

import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlattice import (
    DomainError,
    Field,
    GeometryMismatchError,
    LatticeGeometry,
    site_sort_key,
    symplectic_form,
)

# Derandomized and without an example database, so every run draws the
# same cases.
examples = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Small integers and halves make exact cancellation between labels common.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
VALUES = st.builds(complex, PARTS, PARTS)
SCALARS = st.one_of(
    st.integers(-3, 3),
    PARTS,
    VALUES,
)


@st.composite
def geometries(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return LatticeGeometry.torus(d, draw(st.integers(1, 4)))
    return LatticeGeometry.infinite(d)


def sites(geometry):
    if geometry.is_torus:
        coord = st.integers(1 - geometry.half_side, geometry.half_side)
    else:
        coord = st.integers(-6, 6)
    return st.tuples(*(coord,) * geometry.dimension)


def mappings(geometry, max_size=8):
    return st.dictionaries(sites(geometry), VALUES, max_size=max_size)


def reference(geometry, entries) -> dict:
    data = {}
    for site, val in entries.items():
        site = geometry.site(site)
        val = complex(val)
        if val != 0:
            data[site] = data.get(site, 0.0) + val
            if data[site] == 0:
                del data[site]
    return data


def mapped(geometry, entries, op) -> dict:
    """The reference label with ``op`` applied to each stored value."""
    return reference(geometry, {s: op(v) for s, v in reference(geometry, entries).items()})


def bits(entries: dict) -> dict:
    return {s: (v.real.hex(), v.imag.hex()) for s, v in entries.items()}


def assert_matches(field: Field, expected: dict):
    assert field.support() == tuple(sorted(expected, key=site_sort_key))
    assert bits(field.entries) == bits(expected)


@st.composite
def labelled(draw, count=2):
    # Later mappings reuse some sites of the first, so supports overlap.
    geometry = draw(geometries())
    first = draw(mappings(geometry))
    rest = []
    for _ in range(count - 1):
        shared = draw(st.lists(st.sampled_from(sorted(first)), unique=True)) if first else []
        rest.append({**{s: draw(VALUES) for s in shared}, **draw(mappings(geometry, 4))})
    return (geometry, first, *rest)


class RepeatedSites(Mapping):
    """A mapping whose items() may name one site several times, in order."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def items(self):
        return list(self.pairs)

    def __getitem__(self, site):
        return dict(self.pairs)[site]

    def __iter__(self):
        return iter(dict(self.pairs))

    def __len__(self):
        return len(self.pairs)


def random_label(seed, d=2, size=400):
    rng = np.random.default_rng(seed)
    geometry = LatticeGeometry.infinite(d)
    sites = map(tuple, rng.integers(-12, 13, size=(size, d)).tolist())
    values = rng.normal(size=(size, 2)) * 10.0 ** rng.integers(-3, 4, size=(size, 1))
    return geometry, {s: complex(*v) for s, v in zip(sites, values)}


class TestConstruction:
    @examples
    @given(labelled(count=1))
    def test_matches_the_dict_reference(self, drawn):
        geometry, entries = drawn
        field = Field(geometry, entries)
        assert_matches(field, reference(geometry, entries))
        assert field.is_zero() == (not reference(geometry, entries))

    @examples
    @given(labelled(count=1), st.data())
    def test_duplicate_sites_accumulate_in_mapping_order(self, drawn, data):
        geometry, entries = drawn
        # One site takes up to three values, such as ((0 + val) + x) + (-val),
        # whose sum depends on the order they are added in.
        pairs = []
        for site, val in entries.items():
            pairs.append((site, val))
            for _ in range(data.draw(st.integers(0, 2))):
                pairs.append((site, data.draw(st.one_of(VALUES, st.just(-val)))))
        repeated = RepeatedSites(pairs)
        assert_matches(Field(geometry, repeated), reference(geometry, repeated))

    @examples
    @given(labelled(count=1), st.data())
    def test_value_lookup(self, drawn, data):
        geometry, entries = drawn
        field = Field(geometry, entries)
        expected = reference(geometry, entries)
        for _ in range(4):
            site = data.draw(sites(geometry))
            got = field.value(site)
            want = expected.get(site, 0.0 + 0.0j)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @examples
    @given(labelled(count=1))
    def test_support_radius_and_norms(self, drawn):
        geometry, entries = drawn
        field = Field(geometry, entries)
        expected = reference(geometry, entries)
        ordered = sorted(expected, key=site_sort_key)
        assert field.support_radius() == max((sum(map(abs, s)) for s in ordered), default=0)
        assert field.norm_l1() == math.fsum(abs(expected[s]) for s in ordered)
        assert field.norm_l2() == math.sqrt(math.fsum(abs(expected[s]) ** 2 for s in ordered))

    def test_coordinates_too_large_to_pack_still_sort(self):
        geometry = LatticeGeometry.infinite(3)
        big = 10**15
        a = {(big, 0, -1): 1.0, (0, 0, 0): 2.0, (-big, 0, 1): 3.0, (0, big, 0): 4.0}
        f = Field(geometry, a)
        assert_matches(f, reference(geometry, a))
        total = f + Field(geometry, {(0, big, 0): -4.0, (1, 1, 1): 5.0})
        expected = {(big, 0, -1): 1.0, (0, 0, 0): 2.0, (-big, 0, 1): 3.0, (1, 1, 1): 5.0}
        assert_matches(total, reference(geometry, expected))
        assert total.value((-big, 0, 1)) == 3.0 and total.value((0, big, 0)) == 0.0


class TestAlgebra:
    @examples
    @given(labelled(count=2))
    def test_addition_and_subtraction(self, drawn):
        geometry, a, b = drawn
        ra, rb = reference(geometry, a), reference(geometry, b)
        f, g = Field(geometry, a), Field(geometry, b)
        merged = dict(ra)
        for site, val in rb.items():
            merged[site] = merged.get(site, 0.0) + val
        assert_matches(f + g, reference(geometry, merged))
        merged = dict(ra)
        for site, val in mapped(geometry, b, lambda v: -v).items():
            merged[site] = merged.get(site, 0.0) + val
        assert_matches(f - g, reference(geometry, merged))

    @examples
    @given(labelled(count=1))
    def test_a_label_minus_itself_is_zero(self, drawn):
        geometry, a = drawn
        f = Field(geometry, a)
        assert (f - f).is_zero()
        assert (f + (-f)).support() == ()

    @examples
    @given(labelled(count=1), SCALARS)
    def test_negation_scaling_and_conjugation(self, drawn, scalar):
        geometry, a = drawn
        f = Field(geometry, a)
        assert_matches(-f, mapped(geometry, a, lambda v: -v))
        assert_matches(f * scalar, mapped(geometry, a, lambda v: scalar * v))
        assert_matches(scalar * f, mapped(geometry, a, lambda v: scalar * v))
        assert_matches(f.conjugate(), mapped(geometry, a, lambda v: v.conjugate()))

    @pytest.mark.parametrize("scalar", [0.3 - 1.7j, -2.5 + 0.1j, 1e-3 + 4j, 0.75, -3])
    def test_scaling_rounds_like_python_on_generic_values(self, scalar):
        geometry, a = random_label(1)
        assert_matches(scalar * Field(geometry, a), mapped(geometry, a, lambda v: scalar * v))

    def test_mixed_geometries_are_rejected(self):
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        g = Field.delta(LatticeGeometry.torus(1, 2), (0,))
        for op in (f.__add__, f.__sub__, f.inner, f.max_abs_diff):
            with pytest.raises(GeometryMismatchError):
                op(g)


class TestDense:
    @examples
    @given(labelled(count=1).filter(lambda drawn: drawn[0].is_torus))
    def test_round_trip(self, drawn):
        geometry, a = drawn
        f = Field(geometry, a)
        back = Field.from_dense(geometry, f.to_dense())
        assert bits(back.entries) == bits(f.entries)
        assert back.support() == f.support()

    @examples
    @given(st.integers(1, 3), st.integers(1, 2), st.data())
    def test_from_dense_matches_the_scalar_loop(self, d, half_side, data):
        geometry = LatticeGeometry.torus(d, half_side)
        n = geometry.extent
        flat = data.draw(st.lists(VALUES, min_size=n**d, max_size=n**d))
        dense = np.array(flat, dtype=complex).reshape((n,) * d)
        entries = {}
        for idx in np.ndindex(*dense.shape):
            val = complex(dense[idx])
            if val != 0:
                entries[tuple(i if i <= half_side else i - n for i in idx)] = val
        assert_matches(Field.from_dense(geometry, dense), reference(geometry, entries))

    def test_dense_needs_a_torus_of_matching_shape(self):
        with pytest.raises(GeometryMismatchError):
            Field.from_dense(LatticeGeometry.infinite(1), np.zeros(4))
        with pytest.raises(DomainError):
            Field.from_dense(LatticeGeometry.torus(1, 2), np.zeros(5))


class TestForms:
    @examples
    @given(labelled(count=2), VALUES)
    def test_inner_is_antilinear_in_the_first_argument(self, drawn, c):
        geometry, a, b = drawn
        f, g = Field(geometry, a), Field(geometry, b)
        assert f.inner(g) == g.inner(f).conjugate()
        scale = abs(c) * f.norm_l2() * g.norm_l2()
        assert abs((c * f).inner(g) - c.conjugate() * f.inner(g)) <= 1e-12 * scale
        assert abs(f.inner(c * g) - c * f.inner(g)) <= 1e-12 * scale
        assert f.inner(f).imag == 0.0 and f.inner(f).real >= 0.0

    @examples
    @given(labelled(count=2))
    def test_symplectic_form_is_antisymmetric(self, drawn):
        geometry, a, b = drawn
        f, g = Field(geometry, a), Field(geometry, b)
        assert symplectic_form(f, g) == -symplectic_form(g, f)
        assert symplectic_form(f, f) == 0.0

    @examples
    @given(labelled(count=2))
    def test_inner_matches_an_exact_sum_over_common_sites(self, drawn):
        geometry, a, b = drawn
        ra, rb = reference(geometry, a), reference(geometry, b)
        common = [s for s in ra if s in rb]
        products = [ra[s].conjugate() * rb[s] for s in common]
        expected = complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
        assert Field(geometry, a).inner(Field(geometry, b)) == expected

    @pytest.mark.parametrize("seed", [2, 3])
    def test_inner_on_generic_values_is_exactly_rounded(self, seed):
        geometry, a = random_label(seed)
        _, b = random_label(seed + 10)
        ra, rb = reference(geometry, a), reference(geometry, b)
        products = [ra[s].conjugate() * rb[s] for s in ra if s in rb]
        assert len(products) > 50
        expected = complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
        assert Field(geometry, a).inner(Field(geometry, b)) == expected
