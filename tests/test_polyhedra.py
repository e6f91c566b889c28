import random
import time
from fractions import Fraction

import pytest

from conftest import (STRADDLE, brute_extreme_rays, brute_newton_vertices, brute_out_region,
                      brute_spread, brute_triangulate)
from epsmult.errors import PreconditionError, ZeroIdealError
from epsmult import polyhedra
from epsmult._exactla import int_det
from epsmult.ideal_core import MonomialIdeal
from epsmult.polyhedra import (analytic_spread, newton_polyhedron, out_region,
                               volume_from_constraints)
from epsmult.repro import fit_epsilon, random_ideal


def ideal(d, *gens):
    return MonomialIdeal.from_gens(d, gens)


def recorded_systems(monkeypatch, name="_extreme_rays"):
    """The argument tuple of every call of ``polyhedra.<name>`` from now on."""
    systems = []
    fn = getattr(polyhedra, name)
    monkeypatch.setattr(polyhedra, name, lambda *args: systems.append(args) or fn(*args))
    return systems


def seeded_ideals(rng, count, dims=(2, 3, 4)):
    """Random ideals, about half of them made m-primary and a quarter squared."""
    for _ in range(count):
        d = rng.choice(dims)
        I = random_ideal(rng, d, 4, 4)
        if rng.random() < 0.5:
            I = I.add(ideal(d, *(tuple(rng.randint(1, 4) if j == i else 0 for j in range(d))
                                 for i in range(d))))
        if rng.random() < 0.25:
            I = I.power(2)
        yield I


def staircases(rng, count):
    """Seeded ideals in two variables, in turn: random ones, runs of three or
    more collinear generators, single generators, ones with pure powers on
    both axes, ones with coordinates from STRADDLE, and products."""
    for k in range(count):
        kind = k % 6
        if kind == 0:
            I = random_ideal(rng, 2, 8, 6)
        elif kind == 1 and rng.random() < 0.5:
            x, y, dx, dy = rng.randint(0, 4), rng.randint(30, 40), rng.randint(1, 4), rng.randint(1, 4)
            I = ideal(2, *((x + i * dx, y - i * dy) for i in range(rng.randint(3, 7))))
        elif kind == 1:  # a power of a two-generator ideal is a collinear run too
            I = random_ideal(rng, 2, 6, 2).power(rng.randint(3, 5))
        elif kind == 2:  # on either axis or off both
            I = ideal(2, (rng.randint(0, 9), rng.randint(1, 9))[::rng.choice((1, -1))])
        elif kind == 3:
            I = random_ideal(rng, 2, 8, 4).add(ideal(2, (rng.randint(1, 9), 0), (0, rng.randint(1, 9))))
        elif kind == 4:
            I = ideal(2, *((rng.choice(STRADDLE) + rng.randint(0, 2), rng.choice(STRADDLE) + 1)
                           [::rng.choice((1, -1))] for _ in range(rng.randint(1, 5))))
        else:
            I = random_ideal(rng, 2, 6, 4).multiply(random_ideal(rng, 2, 6, 4))
        yield I


def check_against_scan(rows):
    rays = polyhedra._extreme_rays(rows)
    assert set(rays) == brute_extreme_rays(rows)
    for v, tight in rays.items():  # each mask is exactly the set of tight rows
        assert tight == sum(1 << i for i, r in enumerate(rows) if polyhedra._dot(r, v) == 0)


class TestExtremeRays:
    """Double description against the scan over every (n - 1)-subset of rows."""

    def test_newton_and_vertex_systems(self, rng, monkeypatch):
        systems = recorded_systems(monkeypatch)
        for I in seeded_ideals(rng, 60):  # ones with a strict facet build its piece
            out_region(I)
        monkeypatch.undo()
        # Newton rows (d + 1 columns, last entries 0 or 1), then one piece per
        # strict facet: rows through 0 and the ridges, the cap, loose facets
        assert len(systems) > 60
        # a ridge on <e_i, u> >= 0 gives the row c_F e_i; with the orthant rows
        # added, it repeats u_i >= 0, and one of them is repeated outright
        repeated = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 2),
                    (0, 0, 2, 0), (1, 0, 0, 0)]
        for rows in [r for r, in systems] + [repeated]:
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
        check_against_scan(systems[0][0])

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


class TestMasks:
    """Vertices, facet incidences and faces read off tight-row masks, against
    the rank-based oracles."""

    def test_newton_vertices_and_incidences(self, rng, monkeypatch):
        built = recorded_systems(monkeypatch, "_build_newton")
        for I in seeded_ideals(rng, 80):
            out_region(I)
        monkeypatch.undo()
        assert len(built) == 80
        for I, in built:
            np_ = newton_polyhedron(I)
            vertices, incidences = brute_newton_vertices(I.gens, np_.facets, I.d)
            assert list(np_.vertices) == vertices
            assert list(np_.facet_vertices) == incidences

    def test_triangulations(self, rng, monkeypatch):
        # the box route's polytopes have many more faces than the pieces
        systems = recorded_systems(monkeypatch, "triangulate_points")
        for I in seeded_ideals(rng, 80):
            out_region(I)
            brute_out_region(I)
        monkeypatch.undo()
        assert len(systems) > 100
        assert any(len(brute_triangulate(*args)) > 20 for args in systems)
        for points, facet_sets in systems:
            assert polyhedra.triangulate_points(points, facet_sets) \
                == brute_triangulate(points, facet_sets)

    def test_lower_dimensional_polytopes(self):
        square = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
        edges = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2, 3})]
        assert polyhedra.triangulate_points(square, edges) == brute_triangulate(square, edges)
        assert len(polyhedra.triangulate_points(square, edges)) == 2
        # the same square inside R^3 (homogeneous rows of length 4)
        lifted = [p[:2] + (0,) + p[2:] for p in square]
        assert polyhedra.triangulate_points(lifted, edges + [frozenset(range(4))]) \
            == brute_triangulate(square, edges)
        assert polyhedra.triangulate_points([(2, 1)], [frozenset({0})]) == []
        assert polyhedra.triangulate_points([], []) == []

    def test_rank_calls(self, rng, monkeypatch):
        # d = 2 takes the polygon route, which builds no volume system
        volumes = recorded_systems(monkeypatch, "volume_from_constraints")
        strict = 0
        for I in seeded_ideals(rng, 30, dims=(3, 4)):
            out_region(I)
            strict += sum(0 not in nu for nu, _ in newton_polyhedron(I).facets)
        monkeypatch.undo()
        assert len(volumes) == strict >= 10  # one piece per strict facet
        calls = []
        count_rank = polyhedra.rank
        monkeypatch.setattr(polyhedra, "rank", lambda rows: calls.append(1) or count_rank(rows))
        for I in seeded_ideals(rng, 30, dims=(3, 4)):
            polyhedra._build_newton(I)
        assert calls == []  # the vertex test reads the masks
        for args in volumes:
            calls.clear()
            volume_from_constraints(*args)
            assert len(calls) <= 1  # the dimension of the polytope


class TestPolygon:
    """The route for d = 2, a monotone chain and an area, against the double
    description, which stays callable in two variables as its oracle."""

    def test_polygon_equals_double_description(self, rng):
        ideals = list(staircases(rng, 300))
        for I in ideals:
            assert newton_polyhedron(I) == polyhedra._newton_by_rays(2, I.gens)
            assert out_region(I) == brute_out_region(I)
            assert analytic_spread(I) == brute_spread(I)
        dropped = [len(I.gens) - len(newton_polyhedron(I).vertices) for I in ideals]
        assert sum(n >= 2 for n in dropped) > 15  # collinear runs lose their inner points
        assert sum(len(I.gens) == 1 for I in ideals) >= 50
        assert sum(max(map(max, I.gens)) >= 2**64 for I in ideals) >= 5
        assert sum(out_region(I).epsilon > 0 for I in ideals) > 150

    def test_no_double_description_in_two_variables(self, rng, monkeypatch):
        rays = recorded_systems(monkeypatch)
        volumes = recorded_systems(monkeypatch, "volume_from_constraints")
        for I in staircases(rng, 120):
            newton_polyhedron(I)
            out_region(I)
        assert rays == [] and volumes == []
        # d = 3 keeps the double description: NP(I), then one piece per
        # strict facet, of which (xy, yz, x^2 z) has one
        I = ideal(3, (1, 1, 0), (0, 1, 1), (2, 0, 1))
        out_region(I)
        assert sum(0 not in nu for nu, _ in newton_polyhedron(I).facets) == 1
        assert len(rays) == 2 and len(volumes) == 1


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

    def test_generator_above_an_edge_is_no_vertex(self):
        # x^2yz = (x y^2 + x z^2) / 2 + x: only the vertices before it in lex
        # order lie on every facet through it
        I = ideal(3, (1, 2, 0), (1, 0, 2), (2, 1, 1))
        np_ = newton_polyhedron(I)
        assert np_.vertices == ((1, 0, 2), (1, 2, 0))
        assert (list(np_.vertices), list(np_.facet_vertices)) \
            == brute_newton_vertices(I.gens, np_.facets, 3)

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
            for act, (nu, _) in zip(np_.facet_vertices, np_.facets):
                assert len(act) + nu.count(0) >= d  # e_i lies on the facet iff nu_i = 0
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

    def test_walk_matches_closure(self, rng):
        ideals = list(seeded_ideals(rng, 300, dims=(1, 2, 3, 4, 5)))
        spreads = [analytic_spread(I) for I in ideals]
        assert sum(I.d == 5 for I in ideals) > 40
        assert sum(1 < s < I.d for I, s in zip(ideals, spreads)) > 40
        assert [brute_spread(I) for I in ideals] == spreads

    @pytest.mark.parametrize("gens, spread", [
        # squares of ideals with no pure power, so none is m-primary
        ([(1, 4, 0, 0, 2, 1), (2, 1, 4, 0, 4, 3), (3, 2, 1, 2, 1, 2), (3, 4, 2, 2, 3, 0),
          (4, 0, 0, 4, 1, 4), (4, 0, 2, 1, 1, 1), (4, 3, 4, 4, 3, 0)], 4),
        ([(0, 4, 1, 3, 1, 4), (1, 0, 1, 3, 0, 3), (2, 3, 0, 2, 1, 3), (3, 3, 2, 3, 3, 2),
          (4, 1, 1, 4, 3, 0)], 3),
        ([(0, 0, 1, 3, 3, 2, 0), (0, 2, 0, 1, 1, 0, 0), (0, 3, 3, 2, 0, 1, 0),
          (1, 1, 1, 3, 2, 3, 2), (2, 0, 3, 1, 2, 3, 0), (2, 1, 3, 2, 1, 1, 2),
          (3, 1, 2, 0, 2, 0, 3)], 5),
        ([(0, 0, 1, 2, 3, 0, 0), (0, 2, 2, 2, 0, 2, 1), (0, 3, 2, 1, 2, 3, 0),
          (2, 2, 3, 0, 3, 2, 2), (3, 0, 3, 2, 0, 0, 2), (3, 2, 2, 0, 1, 2, 3)], 5),
    ])
    def test_squared_high_dimension(self, gens, spread):
        # brute_spread, the pairwise closure of the faces, takes 0.1-1 s on these
        I = ideal(len(gens[0]), *gens).power(2)
        newton_polyhedron(I)
        t0 = time.perf_counter()
        assert analytic_spread(I) == spread
        assert time.perf_counter() - t0 < 1
        assert brute_spread(I) == spread


# m-primary in d = 8, with 8 vertices and 9 facets
D8_BASE = ((0, 0, 0, 0, 0, 0, 0, 6), (0, 0, 0, 0, 0, 0, 5, 0), (0, 0, 0, 0, 0, 8, 0, 0),
           (0, 0, 0, 0, 6, 0, 0, 0), (0, 0, 0, 8, 0, 0, 0, 0), (0, 0, 2, 1, 3, 0, 3, 3),
           (0, 0, 3, 0, 0, 0, 0, 0), (0, 1, 0, 4, 3, 0, 4, 2), (0, 2, 1, 1, 4, 2, 4, 1),
           (0, 8, 0, 0, 0, 0, 0, 0), (1, 0, 2, 1, 1, 1, 2, 1), (2, 1, 1, 4, 3, 1, 0, 0),
           (3, 4, 0, 3, 1, 2, 1, 3), (4, 0, 0, 0, 0, 0, 0, 0))


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

    def test_halfspace_cut_matches_box(self, rng):
        # the pieces over the strict facets tile the out-region, which the
        # oracle cuts out of the box 0 <= u_i <= M
        ideals = list(seeded_ideals(rng, 240, dims=(1, 2, 3, 4)))
        assert sum(I.d == 1 for I in ideals) > 20
        assert sum(out_region(I).epsilon > 0 for I in ideals) > 120
        for I in ideals:
            assert out_region(I) == brute_out_region(I)

    def test_pieces_match_box_without_pure_powers(self, rng):
        # x_i^a times x_(i+1) or 1, and generators with x_d > 0: rarely
        # m-primary, so loose facets with c > 0 cut into the pieces
        found = {3: 0, 4: 0, 5: 0}
        for k in range(150):
            d = 3 + k % 3
            gens = [tuple(rng.randint(0, 3) for _ in range(d - 1)) + (rng.randint(1, 3),)
                    for _ in range(rng.randint(1, d))]
            gens += [tuple(rng.randint(2, 5) if j == i else rng.randint(0, 1) * (j == (i + 1) % d)
                           for j in range(d)) for i in range(d)]
            I = ideal(d, *gens)
            if rng.random() < 0.2:
                I = I.power(2)
            report = out_region(I)
            assert report == brute_out_region(I)
            m_primary = all(any(g[i] == sum(g) for g in I.gens) for i in range(d))
            found[d] += not m_primary and report.epsilon > 0
        assert min(found.values()) > 30

    def test_one_piece_per_strict_facet(self, rng, monkeypatch):
        volumes = recorded_systems(monkeypatch, "volume_from_constraints")
        strict = 0
        for I in seeded_ideals(rng, 60, dims=(3, 4, 5)):
            volumes.clear()
            out_region(I)
            facets = newton_polyhedron(I).facets
            assert len(volumes) == sum(0 not in nu for nu, _ in facets)
            strict += len(volumes)
            # no bounding halfspace sum u_i <= b: a row (-1, ..., -1) is the
            # cap <nu_F, u> <= c_F of a facet with nu_F = (1, ..., 1)
            assert all(nu != (-1,) * I.d or (tuple(-x for x in nu), -c) in facets
                       for cons, _ in volumes for nu, c in cons)
        assert strict >= 20

    def test_pyramids_over_the_strict_facets(self, rng, monkeypatch):
        # d! vol(pyr(0, F)) with no double description: triangulate F's own
        # vertices, its ridges F & G as the facet sets, and cone each simplex
        # from 0.  The pieces are these pyramids cut by Q, so epsilon is their
        # sum when no loose facet has c > 0 and strictly less otherwise
        cases = []
        for k in range(240):
            d = 3 + k % 3
            I = random_ideal(rng, d, 4, d + 2)
            if k % 2:
                I = I.add(ideal(d, *(tuple(rng.randint(1, 5) if j == i else 0 for j in range(d))
                                     for i in range(d))))
            cases.append((newton_polyhedron(I), out_region(I).epsilon))
        rays = recorded_systems(monkeypatch)
        equal = smaller = 0
        for np_, epsilon in cases:
            total = 0
            for f, ((nu, _), verts) in enumerate(zip(np_.facets, np_.facet_vertices)):
                if 0 in nu:
                    continue
                index = sorted(verts)
                points = [np_.vertices[i] + (1,) for i in index]
                ridges = [frozenset(map(index.index, verts & other))
                          for g, other in enumerate(np_.facet_vertices) if g != f]
                total += sum(abs(int_det([points[i][:-1] for i in simplex]))
                             for simplex in polyhedra.triangulate_points(points, ridges))
            if not total:
                assert epsilon == 0  # no strict facet
            elif any(c > 0 and 0 in nu for nu, c in np_.facets):
                assert epsilon < total
                smaller += 1
            else:
                assert epsilon == total
                equal += 1
        assert rays == []
        assert equal >= 100 and smaller >= 10

    def test_non_m_primary_high_dimension(self):
        # one piece: the one strict facet, cut by 30 loose facets with c > 0;
        # the value the halfspace-cut route found, in about 57 ms
        I = ideal(6, (2, 0, 2, 2, 2, 3), (2, 2, 2, 1, 0, 3), (2, 2, 2, 3, 2, 1),
                  (2, 3, 2, 0, 3, 1), (3, 1, 1, 1, 0, 3), (3, 2, 2, 0, 1, 1))
        report = out_region(I)
        assert (report.epsilon, report.box_bound) == (Fraction(1260, 187), Fraction(103, 4))
        assert analytic_spread(I) == 6

    @pytest.mark.parametrize("gens, epsilon", [
        # pure powers plus mixed generators, of which the last one (d = 6) and
        # the last two (d = 7) are no vertices; d = 6 is three blocks
        # (x^3, xy, y^3) of multiplicity 6 each
        ([tuple(3 if j == i else 0 for j in range(6)) for i in range(6)]
         + [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), (0, 1, 1, 0, 1, 0)], 216),
        ([tuple(2 + i % 2 if j == i else 0 for j in range(7)) for i in range(7)]
         + [(1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1),
            (0, 1, 0, 1, 0, 1, 0)], 300),
    ])
    def test_m_primary_high_dimension(self, gens, epsilon):
        # one pyramid per strict facet; a box 0 <= u_i <= M would fan both
        # polytopes out into about d! simplices around (M, ..., M), 0.2 s at
        # d = 6 and 1.6 s at d = 7
        I = ideal(len(gens[0]), *gens)
        t0 = time.perf_counter()
        assert out_region(I).epsilon == epsilon
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("d", [8, 9])
    def test_squares_in_high_dimension(self, d):
        # NP(I^2) = 2 NP(I) and epsilon(I^2) = 2^d epsilon(I).  The double
        # description cuts by the orthant rows first; with them last, the
        # build of NP(I^2) took about 2 s for this d = 8 square (90
        # generators) and more than 30 s for the d = 9 one (159)
        if d == 8:
            I = ideal(8, *D8_BASE)
        else:  # d + 2 random generators and the pure powers
            rng = random.Random(1)
            gens = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d + 2)]
            gens += [tuple(rng.randint(3, 8) if j == i else 0 for j in range(d)) for i in range(d)]
            I = ideal(d, *gens)
        J = I.power(2)
        t0 = time.perf_counter()
        np_I, np_J = newton_polyhedron(I), newton_polyhedron(J)
        eps_I, eps_J = out_region(I).epsilon, out_region(J).epsilon
        assert time.perf_counter() - t0 < 1
        assert np_J.facets == tuple((nu, 2 * c) for nu, c in np_I.facets)
        assert np_J.vertices == tuple(tuple(2 * x for x in v) for v in np_I.vertices)
        assert eps_J == 2 ** d * eps_I > 0
        if d == 8:
            assert len(J.gens) == 90 and eps_J == 283115520


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
