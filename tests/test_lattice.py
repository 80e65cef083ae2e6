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
    FockConfig,
    HarmonicParameters,
    LatticeGeometry,
    QuadratureSpec,
    ball_sites,
    commutator_norm,
    convergence_tail,
    convolution_constant,
    cosine_family,
    derive_constants,
    pair_moment,
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

    def test_torus_rejects_out_of_range_site(self):
        geo = LatticeGeometry.torus(1, half_side=2)
        with pytest.raises(DomainError):
            geo.site((3,))
        with pytest.raises(DomainError):
            geo.site((-2,))

    def test_window_radius_takes_no_part_in_equality(self):
        windowed = LatticeGeometry.infinite(1, window_radius=4)
        plain = LatticeGeometry.infinite(1)
        assert windowed == plain and hash(windowed) == hash(plain)
        chain = HarmonicParameters(omega=1.0, couplings=(1.0,))
        value = commutator_norm(Field.delta(windowed, (0,)), Field.delta(plain, (1,)), chain, 1.0)
        assert value == commutator_norm(
            Field.delta(plain, (0,)), Field.delta(plain, (1,)), chain, 1.0
        )

    def test_site_validates_dimension(self):
        geo = LatticeGeometry.infinite(2)
        with pytest.raises(DomainError):
            geo.site((1, 2, 3))

    @pytest.mark.parametrize("x", [(1.7,), (1.0,), 1.5, True, (True,), (np.float64(2.0),), "1"])
    def test_site_rejects_non_integer_coordinates(self, x):
        with pytest.raises(DomainError, match="integer"):
            LatticeGeometry.infinite(1).site(x)
        with pytest.raises(DomainError, match="integer"):
            LatticeGeometry.torus(1, half_side=2).site(x)

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
        assert geo.sites().tolist() == [[0], [-1], [1], [2]]
        assert geo.sites().dtype == np.int64 and not geo.sites().flags.writeable

    def test_torus_enumeration_counts(self):
        geo = LatticeGeometry.torus(2, half_side=3)
        pts = list(map(tuple, geo.sites().tolist()))
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
        ball = ball_sites(d, r).tolist()
        per_shell = [0] * (r + 1)
        for s in ball:
            per_shell[sum(abs(c) for c in s)] += 1
        assert per_shell == [shell_count(d, k) for k in range(r + 1)]

    def test_ball_sites_order_and_content(self):
        assert ball_sites(1, 2).tolist() == [[0], [-1], [1], [-2], [2]]
        ball = list(map(tuple, ball_sites(2, 2).tolist()))
        assert len(ball) == 13
        assert ball[0] == (0, 0)
        assert ball == sorted(ball, key=site_sort_key)

    def test_ball_sites_is_one_cached_read_only_array(self):
        ball = ball_sites(3, 2)
        assert ball.dtype == np.int64 and ball.shape == (25, 3)
        assert len(ball) == 25  # the site count, which the benchmark's trace reads
        assert not ball.flags.writeable
        with pytest.raises(ValueError):
            ball[0, 0] = 7
        hits = ball_sites.cache_info().hits
        assert ball_sites(3, 2) is ball
        assert ball_sites.cache_info().hits == hits + 1

    @pytest.mark.parametrize(
        "dimension, radius",
        [(1, 2.5), (1, 2.0), (1, True), (True, 2), (2.0, 2), (0, 2), (1, -1), (1, "2")],
    )
    def test_ball_sites_rejects_bad_arguments(self, dimension, radius):
        # cached keys that compare equal (2 == 2.0, 1 == True) must not answer for them
        ball_sites(1, 2)
        ball_sites(1, 1)
        with pytest.raises(DomainError):
            ball_sites(dimension, radius)

    def test_ball_sites_accepts_numpy_integers(self):
        assert ball_sites(np.int64(2), np.int32(3)).tolist() == ball_sites(2, 3).tolist()

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
            assert tuple(map(tuple, ball_sites(d, r).tolist())) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_torus_sites_match_the_scalar_enumeration(self, d):
        for half_side in range(1, 6):
            geo = LatticeGeometry.torus(d, half_side)
            expected = _box_enumeration(d, 2 * half_side, half_side - 1)
            assert tuple(map(tuple, geo.sites().tolist())) == expected


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rate, epsilon", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.3), (1.5, 2.0)])
    def test_vectorized_matches_scalar(self, d, rate, epsilon):
        # numpy's 0-d exp and power once rounded 13, 4 and 6 of these radii (d = 1, 2, 3;
        # a = eps = 1) an ulp or two away from the array loops.
        profile = DecayProfile(dimension=d, epsilon=epsilon, rate=rate)
        vec = profile.value(np.arange(200.0))
        assert vec.shape == (200,)
        for r in range(200):
            got = profile.value(float(r))
            assert type(got) is float and got == vec[r], r
        grid = profile.value(np.arange(200.0).reshape(8, 25))
        assert grid.shape == (8, 25)
        assert np.array_equal(grid.ravel(), vec)

    def test_validation(self):
        with pytest.raises(DomainError):
            DecayProfile(dimension=1, epsilon=0.0)
        with pytest.raises(DomainError):
            DecayProfile(dimension=1, epsilon=1.0, rate=-0.1)
        with pytest.raises(DomainError):
            DecayProfile(dimension=1).value(-1.0)

    @pytest.mark.parametrize(
        "epsilon, rate, named",
        [
            (1.0, math.nan, "rate"),  # once passed the rate-match check of derive_constants
            (1.0, math.inf, "rate"),
            (math.inf, 1.0, "epsilon"),  # once gave value(1) == 0.0
            (math.nan, 1.0, "epsilon"),
        ],
    )
    def test_a_non_finite_rate_or_epsilon_is_a_named_error(self, epsilon, rate, named):
        with pytest.raises(DomainError, match=named):
            DecayProfile(1, epsilon, rate)


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

    @pytest.mark.parametrize("d, rate", [(1, 0.0), (2, 0.5), (3, 1.0)])
    def test_value_is_the_exactly_rounded_ball_sum(self, d, rate):
        profile = DecayProfile(dimension=d, epsilon=0.3, rate=rate)
        radii = np.abs(ball_sites(d, 9)).sum(axis=1)
        assert uniform_norm(profile, 9).value == math.fsum(profile.value(radii).tolist())

    def test_a_shell_too_large_to_count_exactly_is_refused(self):
        assert shell_count(20, 200) >= 2**52
        with pytest.raises(DomainError, match="too many sites"):
            uniform_norm(DecayProfile(20), 200)

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

    def test_underflowing_profile_is_refused(self):
        # F_a(r) = exp(-20 r) (1 + r)^-2 is 0 in floating point from r = 37 on.
        with pytest.raises(DomainError, match="underflows"):
            convolution_constant(DecayProfile(1, epsilon=1.0, rate=20.0), 40)


CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
ONSITE = cosine_family(LatticeGeometry.infinite(1), [(0,)], z=0.2)
ORIGIN = Field.delta(LatticeGeometry.infinite(1), (0,))
CHAIN_PROFILE = DecayProfile(1, rate=1.0)
# t, moment, certificate, kappa_a, convolution constant and profile of a chain's tail.
TAIL_ARGS = (0.5, 0.4, derive_constants(CHAIN, 1.0, CHAIN_PROFILE), 0.08, 2.0, CHAIN_PROFILE)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: LatticeGeometry.torus(1, 2.5), "half_side", id="torus-half-side"),
        pytest.param(lambda: LatticeGeometry.infinite(True), "dimension", id="bool-dimension"),
        pytest.param(lambda: LatticeGeometry.infinite(1, 4.0), "window_radius", id="window"),
        pytest.param(lambda: DecayProfile(2.5), "dimension", id="profile-float"),
        pytest.param(lambda: DecayProfile(True), "dimension", id="profile-bool"),
        pytest.param(lambda: FockConfig(2, 8.5, CHAIN), "cutoff", id="fock-cutoff"),
        pytest.param(lambda: FockConfig(True, 8, CHAIN), "sites", id="fock-sites"),
        pytest.param(lambda: QuadratureSpec(points_per_axis=64.5), "points_per_axis", id="quad"),
        pytest.param(
            lambda: convergence_tail(ORIGIN, 4.7, 8.2, *TAIL_ARGS), "half-sides", id="boxes"
        ),
        pytest.param(lambda: shell_count(True, 2), "dimension", id="shell-count"),
        pytest.param(lambda: uniform_norm(DecayProfile(1), 2.5), "window", id="uniform-norm"),
        pytest.param(lambda: pair_moment(ONSITE, DecayProfile(1), 2.5), "window", id="pair-moment"),
        pytest.param(
            lambda: convolution_constant(DecayProfile(1), 4.5), "window", id="convolution"
        ),
    ],
)
def test_integer_arguments_are_checked(call, match):
    with pytest.raises(DomainError, match=f"{match}.*integer"):
        call()
