"""Geometry, decay-profile, and summability-constant tests.

Hand-computed oracle values are frozen inline; anything labeled exact is
reproducible bit-for-bit because every reduction is an exactly rounded
fsum over a fixed ordering.
"""

import math

import numpy as np
import pytest

from lrlattice import (
    ConvolutionConstant,
    DecayProfile,
    DomainError,
    Field,
    LatticeGeometry,
    ball_sites,
    convolution_constant,
    ordered_sum,
    shell_count,
    site_sort_key,
    uniform_norm,
)


class TestLatticeGeometry:
    def test_infinite_distance_is_l1(self):
        geo = LatticeGeometry.infinite(3)
        assert geo.distance((1, -2, 0), (-1, 1, 4)) == 2 + 3 + 4

    def test_torus_distance_takes_quotient(self):
        geo = LatticeGeometry.torus(1, half_side=2)
        assert geo.extent == 4
        assert geo.distance((2,), (-1,)) == 1
        assert geo.distance((0,), (2,)) == 2

    @pytest.mark.parametrize("x,wrapped", [(3, -1), (-2, 2), (0, 0), (6, 2), (-5, -1)])
    def test_torus_wrap(self, x, wrapped):
        geo = LatticeGeometry.torus(1, half_side=2)
        assert geo.wrap(x) == (wrapped,)

    def test_torus_rejects_out_of_range_site(self):
        geo = LatticeGeometry.torus(1, half_side=2)
        with pytest.raises(DomainError):
            geo.site((3,))
        with pytest.raises(DomainError):
            geo.site((-2,))

    def test_site_validates_dimension(self):
        geo = LatticeGeometry.infinite(2)
        with pytest.raises(DomainError):
            geo.site((1, 2, 3))

    @pytest.mark.parametrize("x", [(1.7,), (1.0,), 1.5, True, (True,), (np.float64(2.0),), "1"])
    def test_site_rejects_non_integer_coordinates(self, x):
        with pytest.raises(DomainError, match="integer"):
            LatticeGeometry.infinite(1).site(x)
        with pytest.raises(DomainError, match="integer"):
            LatticeGeometry.torus(1, half_side=2).wrap(x)

    def test_float_site_does_not_land_on_a_neighbour(self):
        with pytest.raises(DomainError):
            Field.delta(LatticeGeometry.infinite(1), (1.7,))

    def test_site_accepts_python_and_numpy_integers(self):
        geo = LatticeGeometry.infinite(2)
        site = geo.site((np.int64(-3), np.int32(2)))
        assert site == (-3, 2)
        assert all(type(c) is int for c in site)
        assert LatticeGeometry.infinite(1).site(np.int16(4)) == (4,)

    def test_torus_site_enumeration_is_shell_lex(self):
        geo = LatticeGeometry.torus(1, half_side=2)
        assert list(geo.sites()) == [(0,), (-1,), (1,), (2,)]

    def test_torus_enumeration_counts(self):
        geo = LatticeGeometry.torus(2, half_side=3)
        pts = list(geo.sites())
        assert len(pts) == 36
        assert len(set(pts)) == 36
        radii = [sum(abs(c) for c in p) for p in pts]
        assert radii == sorted(radii)

    def test_invalid_constructions(self):
        with pytest.raises(DomainError):
            LatticeGeometry.infinite(0)
        with pytest.raises(DomainError):
            LatticeGeometry.torus(1, half_side=0)
        with pytest.raises(DomainError):
            LatticeGeometry.infinite(1).extent


class TestShellsAndBalls:
    @pytest.mark.parametrize(
        "d,r,count",
        [
            (1, 0, 1),
            (1, 1, 2),
            (1, 7, 2),
            (2, 1, 4),
            (2, 2, 8),
            (2, 3, 12),
            (3, 2, 18),
        ],
    )
    def test_shell_count_hand_values(self, d, r, count):
        assert shell_count(d, r) == count

    @pytest.mark.parametrize("d,r", [(1, 6), (2, 5), (3, 4)])
    def test_shell_count_matches_enumeration(self, d, r):
        ball = ball_sites(d, r)
        per_shell = [0] * (r + 1)
        for s in ball:
            per_shell[sum(abs(c) for c in s)] += 1
        assert per_shell == [shell_count(d, k) for k in range(r + 1)]

    def test_ball_sites_order_and_content(self):
        assert ball_sites(1, 2) == ((0,), (-1,), (1,), (-2,), (2,))
        ball = ball_sites(2, 2)
        assert len(ball) == 13
        assert ball[0] == (0, 0)
        assert list(ball) == sorted(ball, key=site_sort_key)

    def test_shell_count_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            shell_count(0, 1)
        with pytest.raises(DomainError):
            shell_count(1, -1)


def _box_enumeration(dimension, side, shift, keep=lambda q: True):
    # The scalar reference: every point of the box, filtered and sorted by key.
    pts = []
    for p in np.ndindex(*(side,) * dimension):
        q = tuple(c - shift for c in p)
        if keep(q):
            pts.append(q)
    pts.sort(key=site_sort_key)
    return tuple(pts)


class TestPinnedEnumerations:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_sites_match_the_scalar_enumeration(self, d):
        for r in range(9):
            expected = _box_enumeration(
                d, 2 * r + 1, r, lambda q: sum(abs(c) for c in q) <= r
            )
            assert ball_sites(d, r) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_torus_sites_match_the_scalar_enumeration(self, d):
        for half_side in range(1, 6):
            geo = LatticeGeometry.torus(d, half_side)
            expected = _box_enumeration(d, 2 * half_side, half_side - 1)
            assert tuple(geo.sites()) == expected


class TestDecayProfile:
    def test_hand_values(self):
        profile = DecayProfile(dimension=1, epsilon=1.0, rate=0.0)
        assert profile.value(0) == 1.0
        assert profile.value(1) == 0.25
        assert profile.value(3) == pytest.approx(1.0 / 16.0, rel=0, abs=0)

    def test_rate_multiplies_exponential(self):
        profile = DecayProfile(dimension=2, epsilon=0.5, rate=1.5)
        r = 3
        expected = math.exp(-1.5 * r) * (1.0 + r) ** (-2.5)
        assert profile.value(r) == pytest.approx(expected, rel=1e-15)

    def test_vectorized_matches_scalar(self):
        profile = DecayProfile(dimension=1, epsilon=1.0, rate=0.7)
        rs = np.arange(6, dtype=float)
        vec = profile.value(rs)
        assert vec.shape == (6,)
        for r, v in zip(rs, vec):
            assert v == profile.value(float(r))

    def test_with_rate_preserves_shape_parameters(self):
        base = DecayProfile(dimension=2, epsilon=0.25)
        lifted = base.with_rate(2.0)
        assert lifted.dimension == 2
        assert lifted.epsilon == 0.25
        assert lifted.rate == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            DecayProfile(dimension=1, epsilon=0.0)
        with pytest.raises(DomainError):
            DecayProfile(dimension=1, epsilon=1.0, rate=-0.1)
        with pytest.raises(DomainError):
            DecayProfile(dimension=1).value(-1.0)


class TestUniformNorm:
    def test_window_two_hand_value(self):
        profile = DecayProfile(dimension=1, epsilon=1.0)
        result = uniform_norm(profile, 2)
        expected = math.fsum([1.0, 2 * 0.25, 2 / 9.0])
        assert result.value == expected

    def test_partial_sums_increase_and_tail_shrinks(self):
        profile = DecayProfile(dimension=2, epsilon=1.0, rate=0.5)
        results = [uniform_norm(profile, w) for w in (4, 8, 16, 32)]
        values = [r.value for r in results]
        tails = [r.tail_bound for r in results]
        assert values == sorted(values)
        assert tails == sorted(tails, reverse=True)

    def test_value_brackets_the_limit(self):
        # the window-64 value sits inside every smaller window's bracket
        profile = DecayProfile(dimension=1, epsilon=1.0, rate=1.0)
        wide = uniform_norm(profile, 64).value
        for window in (4, 8, 16):
            got = uniform_norm(profile, window)
            assert got.value <= wide <= got.value + got.tail_bound


class TestConvolutionConstant:
    def test_origin_separation_hand_value(self):
        # the window is small enough to sum by hand: the s = 0 ratio is
        # sum_{|z| <= 4} F(|z|)^2 with F(r) = (1 + r)^-2.
        profile = DecayProfile(dimension=1, epsilon=1.0)
        hand = math.fsum(
            [1.0, 2 * 0.25**2, 2 * (1 / 9) ** 2, 2 * 0.0625**2, 2 * 0.04**2]
        )
        result = convolution_constant(profile, 2)
        assert result.value >= hand
        assert isinstance(result, ConvolutionConstant)

    def test_stabilizes_on_decaying_profile(self):
        profile = DecayProfile(dimension=1, epsilon=1.0, rate=1.0)
        result = convolution_constant(profile, 40)
        assert result.converged
        assert result.value == pytest.approx(result.half_window_value, rel=1e-3)

    def test_worst_separation_is_canonical(self):
        profile = DecayProfile(dimension=2, epsilon=1.0, rate=0.25)
        result = convolution_constant(profile, 8)
        s = result.worst_separation
        assert all(c >= 0 for c in s)
        assert list(s) == sorted(s, reverse=True)

    def test_window_guard(self):
        with pytest.raises(DomainError):
            convolution_constant(DecayProfile(dimension=1), 1)


def test_ordered_sum_is_exact():
    terms = [1e16, 1.0, -1e16, 1.0]
    assert ordered_sum(terms) == 2.0
    rng = np.random.default_rng(7)
    data = rng.normal(size=257).tolist()
    assert ordered_sum(data) == math.fsum(data)
