import time
from fractions import Fraction

import pytest

from conftest import brute_extreme_rays
from epsmult.errors import PreconditionError, ZeroIdealError
from epsmult import polyhedra
from epsmult.ideal_core import MonomialIdeal
from epsmult.polyhedra import (analytic_spread, newton_polyhedron, out_region,
                               volume_from_constraints)
from epsmult.repro import fit_epsilon, random_ideal


def ideal(d, *gens):
    return MonomialIdeal.from_gens(d, gens)


def recorded_systems(monkeypatch):
    """Every row system handed to ``_extreme_rays`` from now on."""
    systems = []
    enumerate_rays = polyhedra._extreme_rays
    monkeypatch.setattr(polyhedra, "_extreme_rays",
                        lambda rows: systems.append(list(rows)) or enumerate_rays(rows))
    return systems


def check_against_scan(rows):
    rays = polyhedra._extreme_rays(rows)
    assert set(rays) == brute_extreme_rays(rows)
    for v, tight in rays.items():  # each mask is exactly the set of tight rows
        assert tight == sum(1 << i for i, r in enumerate(rows) if polyhedra._dot(r, v) == 0)


class TestExtremeRays:
    """Double description against the scan over every (n - 1)-subset of rows."""

    def test_newton_and_vertex_systems(self, rng, monkeypatch):
        systems = recorded_systems(monkeypatch)
        for _ in range(60):
            d = rng.choice((2, 3, 4))
            I = random_ideal(rng, d, 4, 4)
            if rng.random() < 0.5:  # m-primary, so both vertex systems are built
                I = I.add(ideal(d, *(tuple(rng.randint(1, 4) if j == i else 0 for j in range(d))
                                     for i in range(d))))
            if rng.random() < 0.25:
                I = I.power(2)
            out_region(I)
        monkeypatch.undo()
        # Newton rows (d + 1 columns, last entries 0 or 1), then loose + box and
        # full systems, whose box rows repeat a loose facet <e_i, u> >= 0
        assert any(len(set(rows)) < len(rows) for rows in systems)
        assert len(systems) > 60
        for rows in systems:
            check_against_scan(rows)

    @pytest.mark.parametrize("cons, d", [
        ([((1, 0), 0), ((-1, 0), Fraction(-3, 2)), ((0, 1), 0), ((0, -1), Fraction(-2, 3))], 2),
        ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), Fraction(-1, 2))], 3),
        ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)], 2),  # a segment
    ])
    def test_rational_and_degenerate_systems(self, monkeypatch, cons, d):
        systems = recorded_systems(monkeypatch)
        volume_from_constraints(cons, d)
        monkeypatch.undo()
        assert len(systems) == 1
        check_against_scan(systems[0])

    def test_duplicated_and_shuffled_rows(self, rng):
        for _ in range(40):
            d = rng.choice((2, 3, 4))
            I = random_ideal(rng, d, 4, 4)
            rows = [tuple(g) + (1,) for g in I.gens]
            rows += [tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)]
            rows += rng.choices(rows, k=rng.randint(1, 3))
            rng.shuffle(rows)
            check_against_scan(rows)

    def test_rank_deficient_rows_have_no_rays(self, rng):
        # rank n - 1: the cone holds the line through (0, 0, 1), so it has no
        # extreme ray (the scan returns that line's direction)
        assert polyhedra._extreme_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == {}
        # rank n - 2 or less: the scan finds no one-dimensional null space either
        for _ in range(30):
            n = rng.randint(3, 5)
            rows = [tuple(rng.randint(-3, 3) for _ in range(n - 2)) + (0, 0)
                    for _ in range(rng.randint(1, 6))]
            assert polyhedra._extreme_rays(rows) == {} and brute_extreme_rays(rows) == set()


class TestNewtonPolyhedron:
    def test_two_generator_example(self):
        np_ = newton_polyhedron(ideal(2, (1, 2), (2, 0)))
        assert set(np_.facets) == {((0, 1), 0), ((1, 0), 1), ((2, 1), 4)}
        assert {tuple(map(int, v)) for v in np_.vertices} == {(1, 2), (2, 0)}

    def test_principal(self):
        np_ = newton_polyhedron(ideal(2, (1, 0)))
        assert set(np_.facets) == {((0, 1), 0), ((1, 0), 1)}
        assert {tuple(map(int, v)) for v in np_.vertices} == {(1, 0)}

    def test_m_primary(self):
        np_ = newton_polyhedron(ideal(2, (2, 0), (0, 2)))
        assert set(np_.facets) == {((0, 1), 0), ((1, 0), 0), ((1, 1), 2)}

    def test_generators_satisfy_all_facets(self):
        I = ideal(3, (2, 0, 1), (0, 3, 0), (1, 1, 2))
        np_ = newton_polyhedron(I)
        for g in I.gens:
            for nu, c in np_.facets:
                assert sum(a * b for a, b in zip(nu, g)) >= c

    def test_normals_primitive_and_nonnegative(self, rng):
        from math import gcd
        for _ in range(15):
            I = random_ideal(rng, rng.choice((2, 3)), 5, 4)
            np_ = newton_polyhedron(I)
            for nu, _ in np_.facets:
                assert all(v >= 0 for v in nu) and any(nu)
                g = 0
                for v in nu:
                    g = gcd(g, v)
                assert g == 1

    def test_cross_consistency(self, rng):
        for _ in range(15):
            I = random_ideal(rng, rng.choice((2, 3)), 5, 4)
            np_ = newton_polyhedron(I)
            d = np_.d
            for i in range(len(np_.vertices)):
                assert sum(1 for act in np_.facet_vertices if i in act) >= d
            for act, rays in zip(np_.facet_vertices, np_.facet_rays):
                assert len(act) + len(rays) >= d
            # extreme points of conv(gens) + orthant are generator points
            gens = set(I.gens)
            for v in np_.vertices:
                assert all(x.denominator == 1 for x in v)
                assert tuple(int(x) for x in v) in gens

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            newton_polyhedron(MonomialIdeal.zero(2))
        with pytest.raises(PreconditionError):
            newton_polyhedron(MonomialIdeal.unit(2))

    def test_built_once_per_ideal(self, monkeypatch):
        builds = []
        build = polyhedra._build_newton
        monkeypatch.setattr(polyhedra, "_build_newton", lambda i: builds.append(i) or build(i))
        I = ideal(3, (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1))
        np_ = newton_polyhedron(I)
        assert out_region(I).epsilon == out_region(ideal(3, *I.gens)).epsilon
        assert analytic_spread(I) == 3
        assert newton_polyhedron(I) is np_
        assert len(builds) == 2  # I, then the equal but separate ideal


class TestAnalyticSpread:
    def test_examples(self):
        assert analytic_spread(ideal(2, (1, 2), (2, 0))) == 2
        assert analytic_spread(ideal(2, (1, 0))) == 1
        assert analytic_spread(ideal(2, (1, 1))) == 1

    def test_d3(self):
        assert analytic_spread(ideal(3, (1, 1, 1))) == 1
        assert analytic_spread(ideal(3, (2, 0, 0), (0, 2, 0), (0, 0, 2))) == 3

    def test_bounded_facet_iff_strictly_positive_normal(self, rng):
        for _ in range(15):
            I = random_ideal(rng, rng.choice((2, 3)), 5, 4)
            np_ = newton_polyhedron(I)
            for i, (nu, _) in enumerate(np_.facets):
                assert (len(np_.facet_rays[i]) == 0) == all(v > 0 for v in nu)


class TestOutRegion:
    def test_staircase_example(self):
        report = out_region(ideal(2, (1, 2), (2, 0)))
        assert report.volume == 1 and report.epsilon == 2

    def test_m_primary_equals_hilbert_samuel(self):
        report = out_region(ideal(2, (2, 0), (0, 2)))
        assert report.epsilon == 4

    def test_principal_is_zero(self):
        report = out_region(ideal(2, (1, 0)))
        assert report.volume == 0 and report.epsilon == 0 and report.box_bound is None

    def test_m_primary_rectangle(self, rng):
        # epsilon of (x^a, y^b) equals the Hilbert-Samuel multiplicity a*b
        for _ in range(8):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            assert out_region(ideal(2, (a, 0), (0, b))).epsilon == a * b

    def test_scaling_in_powers(self, rng):
        # NP(I^n) = n * NP(I); a power has many generators on each facet
        # hyperplane, so one facet is found from many subsets
        for _ in range(40):
            d, n = rng.choice((2, 3, 4)), rng.randint(2, 3)
            I = random_ideal(rng, d, 3, 4)
            if rng.random() < 0.5:  # m-primary, so epsilon > 0
                I = I.add(ideal(d, *(tuple(rng.randint(1, 4) if j == i else 0 for j in range(d))
                                     for i in range(d))))
            J = I.power(n)
            np_I, np_J = newton_polyhedron(I), newton_polyhedron(J)
            assert np_J.facets == tuple((nu, n * c) for nu, c in np_I.facets)
            assert np_J.vertices == tuple(tuple(n * x for x in v) for v in np_I.vertices)
            assert out_region(J).epsilon == n ** d * out_region(I).epsilon
            assert analytic_spread(J) == analytic_spread(I)

    @pytest.mark.parametrize("d, gens, n, epsilon", [
        # epsilon((xy, yz, x^2 z)) = 2/3 and NP(I^n) = n * NP(I)
        (3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)], 16, 16 ** 3 * Fraction(2, 3)),
        (4, [(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 0)], 6, 6 ** 4 * Fraction(8, 3)),
    ])
    def test_high_powers(self, d, gens, n, epsilon):
        t0 = time.perf_counter()
        assert out_region(ideal(d, *gens).power(n)).epsilon == epsilon
        assert time.perf_counter() - t0 < 10

    def test_positivity_equivalence(self, rng):
        for _ in range(25):
            d = rng.choice((2, 3))
            I = random_ideal(rng, d, 5, 4)
            assert (out_region(I).epsilon > 0) == (analytic_spread(I) == d)

    def test_d1_principal(self):
        assert out_region(MonomialIdeal.from_gens(1, [(5,)])).epsilon == 5


class TestVolumes:
    def test_unit_square(self):
        cons = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
        assert volume_from_constraints(cons, 2) == 1

    def test_simplex_3d(self):
        cons = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
        assert volume_from_constraints(cons, 3) == Fraction(1, 6)

    def test_cube_3d(self):
        cons = []
        for i in range(3):
            e = tuple(1 if j == i else 0 for j in range(3))
            cons.append((e, 0))
            cons.append((tuple(-x for x in e), -2))
        assert volume_from_constraints(cons, 3) == 8

    def test_rational_offsets(self):
        cons = [((1, 0), 0), ((-1, 0), Fraction(-3, 2)), ((0, 1), 0), ((0, -1), Fraction(-2, 3))]
        assert volume_from_constraints(cons, 2) == 1
        cons = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), Fraction(-1, 2))]
        assert volume_from_constraints(cons, 3) == Fraction(1, 48)

    def test_degenerate_is_zero(self):
        cons = [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)]
        assert volume_from_constraints(cons, 2) == 0


class TestFourVariables:
    @pytest.mark.parametrize("gens, epsilon", [
        # epsilon 8/3 agrees with the powers' lengths: in each residue class
        # mod 3 the fourth differences of l(H^0(R/I^n)), n <= 16, are all
        # 216 = 4! * (1/9) * 3^4.
        ([(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 0)], Fraction(8, 3)),
        # the value the brute-force hull route found, in about 48 s
        ([(0, 2, 3, 0), (0, 4, 0, 3), (1, 4, 2, 0), (4, 0, 2, 2)], Fraction(15, 2)),
    ])
    def test_former_minute_long_cases(self, gens, epsilon):
        t0 = time.perf_counter()
        I = ideal(4, *gens)
        assert out_region(I).epsilon == epsilon
        assert analytic_spread(I) == 4
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize("gens, epsilon", [
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1),
        ([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 2),
        ([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)], 1),
        ([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)], 0),
    ])
    def test_volume_equals_fit(self, gens, epsilon):
        I = ideal(4, *gens)
        fitted, quasi = fit_epsilon(I, n_max=12, start=5)
        assert quasi.period == 1
        assert out_region(I).epsilon == fitted == epsilon

    def test_permutation_invariance_and_positivity(self, rng):
        # a permutation moves the lexicographically least vertex, so the two
        # runs pull different triangulations of the same region
        for _ in range(45):
            d = rng.choice((2, 3, 4))
            I = random_ideal(rng, d, 3, 4)
            perm = rng.sample(range(d), d)
            J = ideal(d, *(tuple(g[p] for p in perm) for g in I.gens))
            eps, spread = out_region(I).epsilon, analytic_spread(I)
            assert (out_region(J).epsilon, analytic_spread(J)) == (eps, spread)
            assert (eps > 0) == (spread == d)
