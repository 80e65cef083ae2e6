"""Even atomic measures, moment constants, and volume-convergence tails."""

import json
import math

import pytest

from lrlattice import (
    AtomicWeylMeasure,
    DecayProfile,
    DomainError,
    Field,
    GeometryMismatchError,
    HarmonicParameters,
    LatticeGeometry,
    MeasureParityError,
    PerturbationFamily,
    convergence_tail,
    convergence_tail_sets,
    cosine_family,
    derive_constants,
    first_moment,
    harmonic_bound_rhs,
    load_family,
    pair_moment,
    perturbed_bound,
    second_moment,
)

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))


def chain_cert():
    profile = DecayProfile(1, epsilon=1.0, rate=1.0)
    return derive_constants(CHAIN, 1.0, profile), profile


class TestAtomicWeylMeasure:
    def test_mirror_pairs_are_merged(self):
        measure = AtomicWeylMeasure(
            sites=((0,),), atoms=(((0.2,), 1.0), ((-0.2,), 1.0))
        )
        assert len(measure.atoms) == 1
        expanded = list(measure.iter_atoms())
        assert len(expanded) == 2
        assert {z[0] for z, _ in expanded} == {0.2 + 0j, -0.2 + 0j}
        assert all(w == 1.0 for _, w in expanded)

    def test_single_sign_is_mirrored_on_iteration(self):
        measure = AtomicWeylMeasure(sites=((0,),), atoms=(((0.3j,), 0.5),))
        expanded = list(measure.iter_atoms())
        assert len(expanded) == 2
        assert math.fsum(w for _, w in expanded) == pytest.approx(1.0)

    def test_zero_atom_counts_once(self):
        measure = AtomicWeylMeasure(sites=((0,),), atoms=(((0j,), 0.7),))
        expanded = list(measure.iter_atoms())
        assert len(expanded) == 1
        assert math.fsum(w for _, w in expanded) == 0.7

    def test_unequal_mirror_weights_rejected(self):
        with pytest.raises(MeasureParityError):
            AtomicWeylMeasure(
                sites=((0,),), atoms=(((0.2,), 1.0), ((-0.2,), 2.0))
            )

    def test_repeated_atoms_accumulate(self):
        measure = AtomicWeylMeasure(
            sites=((0,),), atoms=(((0.2,), 1.0), ((0.2,), 0.5))
        )
        assert measure.atoms[0][1] == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            AtomicWeylMeasure(sites=(), atoms=())
        with pytest.raises(DomainError):
            AtomicWeylMeasure(sites=((0,), (0,)), atoms=())
        with pytest.raises(DomainError):
            AtomicWeylMeasure(sites=((0,),), atoms=(((0.2, 0.1), 1.0),))
        with pytest.raises(DomainError):
            AtomicWeylMeasure(sites=((0,),), atoms=(((0.2,), 0.0),))

    def test_sites_are_stored_sorted(self):
        measure = AtomicWeylMeasure(
            sites=((1,), (0,)), atoms=(((0.1, 0.2), 1.0),)
        )
        assert measure.sites == ((0,), (1,))


class TestMomentConstants:
    def test_on_site_cosine_moments(self):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,), (1,)], z=0.2, weight=1.0)
        # both signs contribute: kappa = 2 |z|^2 w, M = 2 |z| w
        assert second_moment(family) == pytest.approx(0.08, rel=1e-12)
        assert first_moment(family) == pytest.approx(0.4, rel=1e-12)

    def test_moments_of_empty_family(self):
        geo = LatticeGeometry.infinite(1)
        family = PerturbationFamily.empty(geo)
        assert second_moment(family) == 0.0
        assert first_moment(family) == 0.0
        result = pair_moment(family, DecayProfile(1, epsilon=1.0), window=4)
        assert result.kappa_a == 0.0
        assert result.worst_pair is None
        assert not result.converged

    def test_second_moment_rejects_multi_site_measures(self):
        geo = LatticeGeometry.infinite(1)
        measure = AtomicWeylMeasure(
            sites=((0,), (1,)), atoms=(((0.1, 0.1), 1.0),)
        )
        family = PerturbationFamily(geo, ((0,), (1,)), (measure,))
        with pytest.raises(DomainError):
            second_moment(family)

    def test_pair_moment_on_site_family(self):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,), (1,)], z=0.2)
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        result = pair_moment(family, profile, window=8)
        # on-site maximum sits on the diagonal where F_a(0) = 1
        assert result.kappa_a == pytest.approx(0.08, rel=1e-12)
        assert result.worst_pair[0] == result.worst_pair[1]
        assert result.converged

    def test_pair_moment_two_site_hand_value(self):
        geo = LatticeGeometry.infinite(1)
        measure = AtomicWeylMeasure(
            sites=((0,), (1,)), atoms=(((0.3, 0.4j), 1.0),)
        )
        family = PerturbationFamily(geo, ((0,), (1,)), (measure,))
        profile = DecayProfile(1, epsilon=1.0)
        result = pair_moment(family, profile, window=4)
        # off-diagonal numerator 2 * 0.3 * 0.4 against F(1) = 1/4
        assert result.kappa_a == pytest.approx(0.24 / 0.25, rel=1e-12)
        assert result.worst_pair == ((0,), (1,))

    def test_pair_moment_skips_pairs_beyond_the_window(self):
        geo = LatticeGeometry.infinite(1)
        measure = AtomicWeylMeasure(sites=((0,), (10,)), atoms=(((0.3, 0.3), 1.0),))
        family = PerturbationFamily(geo, ((0,), (10,)), (measure,))
        profile = DecayProfile(1, epsilon=1.0, rate=1.0)
        # Every numerator is 2 * 0.3 * 0.3 (the atom and its mirror); only a
        # window of 10 or more reaches the pair, where F_a(10) is small.
        near = pair_moment(family, profile, window=4)
        assert near.kappa_a == pytest.approx(0.18, rel=1e-12)
        assert near.worst_pair[0] == near.worst_pair[1]
        far = pair_moment(family, profile, window=12)
        assert far.kappa_a == pytest.approx(0.18 / profile.value(10), rel=1e-12)
        assert far.worst_pair == ((0,), (10,))

    def test_pair_moment_guards(self):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,)], z=0.2)
        with pytest.raises(DomainError):
            pair_moment(family, DecayProfile(1, epsilon=1.0), window=-1)
        with pytest.raises(GeometryMismatchError):
            pair_moment(family, DecayProfile(2, epsilon=1.0), window=4)


class TestFamilyContainers:
    def test_volume_must_cover_measures(self):
        geo = LatticeGeometry.infinite(1)
        measure = AtomicWeylMeasure(sites=((3,),), atoms=(((0.1,), 1.0),))
        with pytest.raises(DomainError):
            PerturbationFamily(geo, ((0,), (1,)), (measure,))

    def test_restriction_filters_measures(self):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,), (1,), (2,)], z=0.2)
        small = family.restricted([(0,), (1,)])
        assert small.volume == ((0,), (1,))
        assert len(small.measures) == 2
        assert all(set(m.sites) <= {(0,), (1,)} for m in small.measures)

    def test_restriction_outside_volume_rejected(self):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,), (1,)], z=0.2)
        with pytest.raises(DomainError):
            family.restricted([(0,), (5,)])


def _write_json(tmp_path, data) -> str:
    path = tmp_path / "family.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return str(path)


class TestLoadFamily:
    def test_json_file_gives_the_family(self, tmp_path):
        geo = LatticeGeometry.infinite(1)
        family = cosine_family(geo, [(0,), (1,)], z=0.2 + 0.1j, weight=0.5)
        data = [
            {"sites": [[x]], "atoms": [{"z": [[0.2, 0.1]], "weight": 0.5}]} for x in (0, 1)
        ]
        assert load_family(_write_json(tmp_path, data), geo) == family

    def test_multi_site_json_file(self, tmp_path):
        geo = LatticeGeometry.infinite(2)
        measure = AtomicWeylMeasure(
            sites=((0, 0), (1, -1)), atoms=(((0.1j, 0.2), 1.5),)
        )
        family = PerturbationFamily(geo, ((0, 0), (1, -1)), (measure,))
        # both signs of the atom, as an explicitly even file lists them
        data = [
            {
                "sites": [[0, 0], [1, -1]],
                "atoms": [
                    {"z": [[0.0, 0.1], [0.2, 0.0]], "weight": 1.5},
                    {"z": [[0.0, -0.1], [-0.2, 0.0]], "weight": 1.5},
                ],
            }
        ]
        assert load_family(_write_json(tmp_path, data), geo) == family

    def test_load_accepts_parsed_lists_and_bare_integer_sites(self):
        geo = LatticeGeometry.infinite(1)
        data = [
            {"sites": [0], "atoms": [{"z": [[0.2, 0.0]], "weight": 1.0}]}
        ]
        family = load_family(data, geo)
        assert family.measures[0].sites == ((0,),)
        assert second_moment(family) == pytest.approx(0.08)

    @pytest.mark.parametrize(
        "data",
        [
            {"sites": [0]},
            [{"sites": [0]}],
            [{"sites": [0], "atoms": [], "extra": 1}],
            [{"sites": [0], "atoms": [{"z": [[0.1, 0.0], [0.1, 0.0]], "weight": 1.0}]}],
            [{"sites": [0.5], "atoms": [{"z": [[0.1, 0.0]], "weight": 1.0}]}],
            [{"sites": [0], "atoms": [{"z": [[0.1]], "weight": 1.0}]}],
            [{"sites": [True], "atoms": [{"z": [[0.1, 0.0]], "weight": 1.0}]}],
            [{"sites": [[False]], "atoms": [{"z": [[0.1, 0.0]], "weight": 1.0}]}],
            [{"sites": [0], "atoms": [{"z": [["0.2", 0.0]], "weight": 1.0}]}],
            [{"sites": [0], "atoms": [{"z": [[0.2, True]], "weight": 1.0}]}],
            [{"sites": [0], "atoms": [{"z": [[0.2, 0.0]], "weight": "2"}]}],
            [{"sites": [0], "atoms": [{"z": [[0.2, 0.0]], "weight": True}]}],
        ],
    )
    def test_malformed_inputs_rejected(self, data):
        geo = LatticeGeometry.infinite(1)
        with pytest.raises(DomainError):
            load_family(data, geo)

    @pytest.mark.parametrize(
        "z, weight",
        [
            ([math.nan, 0.0], 1.0),
            ([0.2, math.inf], 1.0),
            ([0.2, 0.0], math.nan),
            ([0.2, 0.0], -math.inf),
            ([0.2, 0.0], 10**400),
        ],
        ids=["nan-re", "inf-im", "nan-weight", "minus-inf-weight", "int-beyond-float-weight"],
    )
    def test_non_finite_z_and_weight_rejected(self, z, weight):
        geo = LatticeGeometry.infinite(1)
        data = [{"sites": [0], "atoms": [{"z": [z], "weight": weight}]}]
        with pytest.raises(DomainError, match="finite"):
            load_family(data, geo)

    def test_uneven_file_rejected(self):
        geo = LatticeGeometry.infinite(1)
        data = [
            {
                "sites": [0],
                "atoms": [
                    {"z": [[0.2, 0.0]], "weight": 1.0},
                    {"z": [[-0.2, 0.0]], "weight": 2.0},
                ],
            }
        ]
        with pytest.raises(MeasureParityError):
            load_family(data, geo)


class TestPerturbedBound:
    def test_reduces_to_harmonic_bound_without_perturbation(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,), 0.5)
        g = Field.delta(geo, (3,), 1.0j)
        assert perturbed_bound(f, g, 0.7, cert, 0.0, 3.5, profile) == pytest.approx(
            harmonic_bound_rhs(f, g, 0.7, cert, profile), rel=1e-15
        )

    def test_rate_acceleration_formula(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        g = Field.delta(geo, (2,))
        kappa_a, conv, t = 0.08, 3.5, 0.3
        base = harmonic_bound_rhs(f, g, t, cert, profile)
        multi = perturbed_bound(f, g, t, cert, kappa_a, conv, profile)
        onsite = perturbed_bound(f, g, t, cert, kappa_a, conv, profile, onsite=True)
        assert multi == pytest.approx(
            base * math.exp(cert.c_a * kappa_a * conv**2 * t), rel=1e-12
        )
        assert onsite == pytest.approx(
            base * math.exp(cert.c_a * kappa_a * conv * t), rel=1e-12
        )
        assert onsite < multi

    def test_negative_constants_rejected(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        with pytest.raises(DomainError):
            perturbed_bound(f, f, 1.0, cert, -0.1, 1.0, profile)
        with pytest.raises(DomainError):
            perturbed_bound(f, f, 1.0, cert, 0.1, -1.0, profile)


class TestConvergenceTail:
    def test_hand_computed_shell_sum(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        t, moment, kappa_a, conv = 0.25, 0.4, 0.08, 2.0
        tail = convergence_tail(f, 1, 2, t, moment, cert, kappa_a, conv, profile)
        # shell of (-2, 2] minus (-1, 1] is {-1, 2}
        rate = cert.v_a + cert.c_a * kappa_a * conv**2
        reach = profile.value(1) + profile.value(2)
        expected = moment * cert.c_a * t * math.exp(rate * t) * reach
        assert tail == pytest.approx(expected, rel=1e-12)

    def test_tail_vanishes_at_zero_time_and_equal_boxes(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        assert convergence_tail(f, 2, 4, 0.0, 0.4, cert, 0.08, 2.0, profile) == 0.0
        assert convergence_tail(f, 4, 4, 0.5, 0.4, cert, 0.08, 2.0, profile) == 0.0

    def test_tails_shrink_along_nested_boxes(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        boxes = (4, 8, 16, 32, 64)
        tails = [
            convergence_tail(f, inner, outer, 0.25, 0.4, cert, 0.08, 2.0, profile)
            for inner, outer in zip(boxes, boxes[1:])
        ]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 1e-6

    def test_validation(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        with pytest.raises(DomainError, match="inner <= outer"):
            convergence_tail(f, 4, 2, 0.5, 0.4, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError, match="1 <= inner"):
            convergence_tail(f, 0, 2, 0.5, 0.4, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError, match="nonnegative"):
            convergence_tail(f, 2, 4, 0.5, -0.4, cert, 0.08, 2.0, profile)

    def test_torus_labels_rejected(self):
        cert, profile = chain_cert()
        torus = LatticeGeometry.torus(1, 8)
        f = Field.delta(torus, (0,))
        with pytest.raises(GeometryMismatchError):
            convergence_tail(f, 2, 4, 0.5, 0.4, cert, 0.08, 2.0, profile)

    def test_label_must_sit_inside_the_inner_box(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (3,))
        with pytest.raises(DomainError):
            convergence_tail(f, 2, 4, 0.5, 0.4, cert, 0.08, 2.0, profile)

    def test_profile_dimension_must_match_the_label(self):
        cert, _ = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        plane = DecayProfile(2, epsilon=1.0, rate=1.0)
        with pytest.raises(GeometryMismatchError):
            convergence_tail(f, 2, 4, 0.5, 0.4, cert, 0.08, 2.0, plane)
        with pytest.raises(GeometryMismatchError):
            convergence_tail_sets(f, [(0,)], [(0,), (1,)], 0.5, 0.4, cert, 0.08, 2.0, plane)

    @pytest.mark.parametrize("inner, outer", [(2.0, 4), (2, 4.0), (True, 4), (2, False)])
    def test_half_sides_must_be_integers(self, inner, outer):
        cert, profile = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        with pytest.raises(DomainError, match="integers"):
            convergence_tail(f, inner, outer, 0.5, 0.4, cert, 0.08, 2.0, profile)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_must_be_finite(self, t):
        cert, profile = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        with pytest.raises(DomainError, match="finite"):
            convergence_tail(f, 2, 4, t, 0.4, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError, match="finite"):
            convergence_tail_sets(f, [(0,)], [(0,), (1,)], t, 0.4, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError, match="finite"):
            perturbed_bound(f, f, t, cert, 0.08, 2.0, profile)

    @pytest.mark.parametrize(
        "moment, kappa_a, conv",
        [(math.nan, 0.08, 2.0), (0.4, math.nan, 2.0), (0.4, 0.08, math.nan)],
    )
    def test_nan_constants_are_rejected(self, moment, kappa_a, conv):
        cert, profile = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        with pytest.raises(DomainError, match="nonnegative"):
            convergence_tail(f, 2, 4, 0.5, moment, cert, kappa_a, conv, profile)

    def test_overflowing_growth_is_a_domain_error(self):
        cert, profile = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        with pytest.raises(DomainError, match=r"overflows at rate .* and \|t\| = 1000"):
            perturbed_bound(f, f, -1000.0, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError, match="overflows"):
            convergence_tail(f, 2, 4, 1e3, 0.4, cert, 0.08, 2.0, profile)

    def test_explicit_sets_match_the_box_form(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        boxed = convergence_tail(f, 1, 2, 0.3, 0.4, cert, 0.08, 2.0, profile)
        inner = [(0,), (1,)]
        outer = [(-1,), (0,), (1,), (2,)]
        explicit = convergence_tail_sets(
            f, inner, outer, 0.3, 0.4, cert, 0.08, 2.0, profile
        )
        assert explicit == pytest.approx(boxed, rel=1e-15)

    def test_explicit_sets_validation(self):
        cert, profile = chain_cert()
        geo = LatticeGeometry.infinite(1)
        f = Field.delta(geo, (0,))
        with pytest.raises(DomainError):
            convergence_tail_sets(f, [(0,)], [(1,)], 0.3, 0.4, cert, 0.08, 2.0, profile)
        with pytest.raises(DomainError):
            convergence_tail_sets(
                f, [(1,)], [(0,), (1,)], 0.3, 0.4, cert, 0.08, 2.0, profile
            )

    def test_explicit_sets_reject_sites_of_the_wrong_dimension(self):
        cert, profile = chain_cert()
        f = Field.delta(LatticeGeometry.infinite(1), (0,))
        # (3, 4) is not a site of Z^1; read as a tuple it would sit at distance 7
        with pytest.raises(DomainError):
            convergence_tail_sets(f, [0], [0, (3, 4)], 0.3, 0.4, cert, 0.08, 2.0, profile)
