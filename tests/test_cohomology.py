import json
import re
import time

import pytest

from epsmult import cli, cohomology, ideal_core
from epsmult.cohomology import (SimplicialComplex, _between, _slabs, delta_complex,
                                h0_length, h0_length_takayama, h0_of_quotient,
                                max_socle_degree, reduced_betti)
from epsmult.errors import DimensionMismatchError, PreconditionError, ZeroIdealError
from epsmult.ideal_core import MonomialIdeal, sum_of_products
from epsmult.repro import random_ideal

from conftest import STRADDLE, box_points, brute_count, brute_delta, brute_socle

I = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])


def slab_length(outer, inner):
    """The number of points between the two ideals, summed over their slabs."""
    return sum(n for _, _, n in _slabs(outer.gens, inner.gens))


def with_pure_powers(rng, ideal):
    """The ideal plus x_i^a for each i, a in 1..3: an m-primary ideal."""
    d = ideal.d
    return ideal.add(MonomialIdeal.from_gens(d, [tuple(rng.randint(1, 3) if j == i else 0 for j in range(d))
                                                 for i in range(d)]))


class TestH0Length:
    def test_counter_example_value(self):
        assert h0_length(I).length == 2

    def test_principal_saturated(self):
        assert h0_length(MonomialIdeal.from_gens(2, [(1, 0)])).length == 0

    def test_m_primary(self):
        assert h0_length(MonomialIdeal.from_gens(2, [(2, 0), (0, 2)])).length == 4

    def test_square(self):
        assert h0_length(I.power(2)).length == 6

    def test_unit_ideal_is_zero(self):
        assert h0_length(MonomialIdeal.unit(2)).length == 0

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            h0_length(MonomialIdeal.zero(2))

    def test_methods_agree_on_examples(self):
        for gens in ([(1, 2), (2, 0)], [(1, 0)], [(2, 0), (0, 2)], [(3, 1), (1, 4), (0, 6)]):
            ideal = MonomialIdeal.from_gens(2, gens)
            box = h0_length(ideal, method="box-enumeration").length
            tak = h0_length(ideal, method="takayama").length
            assert box == tak

    def test_witnesses_match_length_and_box(self):
        count = h0_length(I, method="box-enumeration", witnesses=True)
        assert len(count.witnesses) == count.length
        assert set(count.witnesses) == {(1, 0), (1, 1)}
        cap = I.max_exponents()
        for w in count.witnesses:
            assert all(x < c for x, c in zip(w, cap))

    def test_unknown_method_rejected(self):
        # the slab route has one label in every d; other names are errors
        assert h0_length(I).method == "box-enumeration"
        with pytest.raises(PreconditionError):
            h0_length(I, method="staircase-2d")

    def test_d1_length_is_exponent(self):
        assert h0_length(MonomialIdeal.from_gens(1, [(7,)])).length == 7


def test_box_soundness_on_randoms(rng):
    # every socle point lies strictly inside the generator-max box; scanning
    # the doubled box finds nothing new
    for _ in range(30):
        d = rng.choice((2, 3))
        ideal = random_ideal(rng, d, 4, 4)
        cap = ideal.max_exponents()
        pts = brute_socle(ideal, tuple(2 * c + 1 for c in cap))
        assert len(pts) == h0_length(ideal, method="box-enumeration").length
        for p in pts:
            assert all(x < c for x, c in zip(p, cap))


def test_staircase_equals_box_on_randoms(rng):
    # the area under the staircase against the slabs of sat(I) \ I and, for
    # small ideals, the scan of the box: random ideals, products and sums of
    # products, ideals straddling 2^31 and 2^64, and the unit and principal
    # ideals, whose length is 0
    ideals = [random_ideal(rng, 2, 6, 6) for _ in range(50)]
    for _ in range(40):
        a, b, c = (random_ideal(rng, 2, 5, 4) for _ in range(3))
        ideals += [a.multiply(b), sum_of_products(2, [(a, b), (c, c)])]
    for _ in range(60):
        ideals.append(MonomialIdeal.from_gens(2, [(rng.choice(STRADDLE), rng.choice(STRADDLE))
                                                  for _ in range(rng.randint(1, 5))]))
    principal = [(3, 0), (0, 2**64), (5, 7), (2**31, 2**31 - 1)]
    ideals += [MonomialIdeal.unit(2)] + [MonomialIdeal.from_gens(2, [g]) for g in principal]
    for ideal in ideals:
        length = h0_length(ideal).length
        assert length == slab_length(ideal.saturate(), ideal)
        if max(ideal.max_exponents()) <= 12:
            assert length == len(brute_socle(ideal, ideal.max_exponents()))
        if len(ideal.gens) == 1:
            assert length == 0


def test_area_of_a_product():
    product = I.multiply(MonomialIdeal.from_gens(2, [(0, 3), (2, 1)]))
    assert product.gens == ((1, 5), (2, 3), (4, 1))
    assert h0_length(product).length == 8  # (x y^5, x^2 y^3, x^4 y) over (x y)


def test_slice_areas_equal_slabs_on_randoms(rng):
    # the d = 3 sweep of staircase areas against the slabs of sat(I) \ I and,
    # for small ideals, the scan of the box: random ideals (some not
    # m-primary, with sat(I) != I), powers, coordinates straddling 2^31 and
    # 2^64, and the unit and principal ideals, whose length is 0
    ideals = [random_ideal(rng, 3, 6, 6) for _ in range(120)]
    base = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)])
    ideals += [base.power(n) for n in range(1, 13)]
    for _ in range(15):
        small = random_ideal(rng, 3, 3, 4)
        ideals += [small.power(2), small.power(3)]
    for _ in range(60):
        ideals.append(MonomialIdeal.from_gens(3, [tuple(rng.choice(STRADDLE) for _ in range(3))
                                                  for _ in range(rng.randint(1, 5))]))
    principal = [(3, 0, 0), (0, 2**64, 1), (5, 7, 2), (2**31, 2**31 - 1, 2**40)]
    ideals += [MonomialIdeal.unit(3)] + [MonomialIdeal.from_gens(3, [g]) for g in principal]
    unsaturated = scanned = 0
    for ideal in ideals:
        length = h0_length(ideal).length
        sat = ideal.saturate()
        assert length == slab_length(sat, ideal)
        if max(ideal.max_exponents()) <= 8:
            scanned += 1
            assert length == len(brute_socle(ideal, ideal.max_exponents()))
        if len(ideal.gens) == 1:
            assert length == 0
        unsaturated += not sat.is_unit and sat != ideal
    assert unsaturated >= 20 and scanned >= 100


def test_d3_reads_the_top_area_once(rng, monkeypatch):
    # every slice from the first full one up is I_top, whose staircase area
    # is read once, not at every level: the length stays the scan's and
    # Takayama's
    reads = []
    area = cohomology._staircase_area
    monkeypatch.setattr(cohomology, "_staircase_area", lambda *cols: reads.append(cols) or area(*cols))
    base = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)])
    ideals = [base.power(n) for n in range(1, 7)]
    ideals += [with_pure_powers(rng, random_ideal(rng, 3, 4, 5)) for _ in range(20)]
    saved = 0
    for ideal in ideals:
        reads.clear()
        length = h0_length(ideal).length
        levels = list(ideal_core._sat_slices(ideal.gens))
        top = tuple(zip(*levels[-1][3]))
        full = [up for _, up, cut, piece, full in levels if full and up is not None and piece != cut]
        assert reads.count(top) == (1 if full else 0)
        saved += len(full) - 1 if full else 0
        assert length == h0_length_takayama(ideal).length
        assert length == len(brute_socle(ideal, ideal.max_exponents()))
    assert saved > 0


def test_d3_length_needs_no_saturation_or_slabs(monkeypatch):
    # a length, and a quotient length, builds no boxes in any d; d = 3 does
    # not saturate either.  Only witnesses and the socle degree tile the
    # region with slabs
    calls = {"_saturation": 0, "_slabs": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(ideal_core, "_saturation")
    counted(cohomology, "_slabs")
    ideal = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)]).power(4)
    assert h0_length(ideal).length == h0_length_takayama(ideal).length > 0
    assert calls == {"_saturation": 0, "_slabs": 0}
    h0_length(ideal, witnesses=True)
    assert calls["_saturation"] > 0 and calls["_slabs"] > 0
    calls.update(_saturation=0, _slabs=0)
    max_socle_degree(ideal)
    assert calls["_slabs"] > 0
    # (x_1^2, ..., x_d^2, x_1 ... x_d) in d = 4, 5, and a non-m-primary d = 4 one
    squares = [MonomialIdeal.from_gens(d, [tuple(2 * (i == k) for i in range(d)) for k in range(d)]
                                       + [(1,) * d]) for d in (4, 5)]
    cone = MonomialIdeal.from_gens(4, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)])
    for ideal in [MonomialIdeal.from_gens(1, [(5,)]), I.power(3), *squares, cone]:
        calls["_slabs"] = 0
        assert h0_length(ideal).length > 0
        assert h0_of_quotient(MonomialIdeal.unit(ideal.d), ideal).length > 0
        assert calls["_slabs"] == 0
        h0_length(ideal, witnesses=True)
        assert calls["_slabs"] > 0


def test_between_matches_slabs_and_scan(rng):
    # the count-only sweep against the slabs and, for small regions, the scan
    # of the box, in d = 1..4: sat(I) over I, J & sat(J') over J' for J'
    # inside J, the unit ideal over m-primary ideals, and coordinates
    # straddling 2^31 and 2^64
    pairs = []
    for k in range(160):
        d = 1 + k % 4
        ideal = random_ideal(rng, d, 4, 5)
        pairs.append((ideal.saturate(), ideal))
        outer, other = random_ideal(rng, d, 3, 3), random_ideal(rng, d, 2, 2)
        inner = outer.multiply(other) if k % 2 else outer.intersect(other)
        pairs.append((outer.intersect(inner.saturate()), inner))
        pure = [tuple(rng.randint(1, 4) * (i == j) for i in range(d)) for j in range(d)]
        pairs.append((MonomialIdeal.unit(d), MonomialIdeal.from_gens(d, pure + [ideal.gens[0]])))
    for k in range(40):
        d = 1 + k % 4
        ideal = MonomialIdeal.from_gens(d, [tuple(rng.choice(STRADDLE) for _ in range(d))
                                            for _ in range(rng.randint(1, 5))])
        pairs.append((ideal.saturate(), ideal))
    scanned = nonzero = 0
    for outer, inner in pairs:
        length = _between(outer.gens, inner.gens)
        assert length == slab_length(outer, inner)
        if max(inner.max_exponents()) <= 8:
            scanned += 1
            assert length == brute_count(inner.max_exponents(), outer.gens, outer.gens, inner.gens)[0]
        nonzero += length > 0
    assert scanned >= 400 and nonzero >= 200


def test_d4_to_d6_lengths_match_slabs(rng):
    # the slice sum against the slabs of sat(I) \ I on seeded ideals and
    # powers, some m-primary, some with sat(I) != I but not m-primary, and
    # the unit and principal ideals
    ideals = []
    for d in (4, 5, 6):
        ideals += [random_ideal(rng, d, 4, d + 2) for _ in range(30)]
        for _ in range(8):
            # P m-primary, and Q & P with sat(Q & P) = Q, Q free of x_d
            pure = [tuple(rng.randint(1, 4) * (i == j) for i in range(d)) for j in range(d)]
            primary = MonomialIdeal.from_gens(d, pure).add(random_ideal(rng, d, 3, d))
            free = MonomialIdeal.from_gens(d, [g[:-1] + (0,) for g in random_ideal(rng, d, 2, 3).gens
                                               if any(g[:-1])] or [(1,) + (0,) * (d - 1)])
            ideals += [primary, free.intersect(primary)]
        for _ in range(4):
            small = random_ideal(rng, d, 2, d + 1)
            ideals += [small.power(n) for n in range(2, 7 - d // 2)]
        ideals += [MonomialIdeal.unit(d), MonomialIdeal.from_gens(d, [tuple(range(d))])]
    m_primary = unsaturated = nonzero = 0
    for ideal in ideals:
        sat, length = ideal.saturate(), h0_length(ideal).length
        assert length == slab_length(sat, ideal)
        m_primary += sat.is_unit and not ideal.is_unit
        unsaturated += not sat.is_unit and sat != ideal
        nonzero += length > 0
    assert m_primary >= 20 and unsaturated >= 8 and nonzero >= 30


def test_slabs_match_scan_and_takayama(rng):
    # length, largest socle degree and witnesses against the point scan, and
    # witnesses against the saturation-free homology route
    for k in range(240):
        d = 1 + k % 4
        ideal = random_ideal(rng, d, 3 if d == 4 else 5, 5)
        pts = brute_socle(ideal, ideal.max_exponents())
        count = h0_length(ideal, witnesses=True)
        assert count.length == len(pts)
        assert count.witnesses == tuple(sorted(pts))
        assert max_socle_degree(ideal) == max((sum(p) for p in pts), default=0)
        assert h0_length_takayama(ideal, witnesses=True).witnesses == count.witnesses


def test_slabs_reject_an_infinite_region():
    # (x_i) \ 0 is infinite for every d, and 1 \ (x_i) once d >= 2
    for d in (1, 2, 3, 4):
        for i in range(d):
            xi = tuple(int(k == i) for k in range(d))
            with pytest.raises(PreconditionError):
                _slabs((xi,), ())
            if d >= 2:
                with pytest.raises(PreconditionError):
                    _slabs(((0,) * d,), (xi,))
    # (x, y) \ (x^5, y^5, x^2z, xyz, y^2z): every slab below the top is
    # finite, but the top slab z >= 1 holds x and y
    outer = MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0)])
    inner = MonomialIdeal.from_gens(3, [(5, 0, 0), (0, 5, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1)])
    with pytest.raises(PreconditionError):
        _slabs(outer.gens, inner.gens)


BIG = 3 * 10**6
BIG_IDEAL = "x^3000000, y^3000000, z^3000000, x^1000000*y^1000000*z^1000000"


def test_huge_exponents_count_in_time(capsys):
    # (3e6)^3 - (2e6)^3 points; the cost follows the generators, not the box
    t0 = time.perf_counter()
    ideal = MonomialIdeal.from_gens(3, [(BIG, 0, 0), (0, BIG, 0), (0, 0, BIG),
                                        (BIG // 3,) * 3])
    assert h0_length(ideal).length == 19 * 10**18
    assert max_socle_degree(ideal) == 3 * BIG - 2 * 10**6 - 3
    assert cli.main(["h0", "--ideal", BIG_IDEAL]) == 0
    assert json.loads(capsys.readouterr().out) == {"length": 19 * 10**18,
                                                   "method": "box-enumeration"}
    # d = 2: the area under (x y^N, x^N y) is (N - 1)^2, in Python ints
    assert cli.main(["h0", "--ideal", "[[1,100000000000000000000],[100000000000000000000,1]]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"length": (10**20 - 1)**2,
                                                   "method": "box-enumeration"}
    assert time.perf_counter() - t0 < 1.0


def test_d6_power_counts_in_time():
    # a d = 6 power with 126 generators, not m-primary, against its slabs;
    # its length takes about 0.5 s on a 2-vCPU box
    base = MonomialIdeal.from_gens(6, [(0, 0, 1, 3, 2, 0), (0, 0, 3, 2, 1, 1), (2, 0, 1, 2, 0, 3),
                                       (2, 2, 0, 1, 1, 2), (3, 0, 1, 2, 3, 0), (3, 1, 0, 3, 0, 1)])
    ideal = base.power(4)
    t0 = time.perf_counter()
    length = h0_length(ideal).length
    assert time.perf_counter() - t0 < 2.5
    sat = ideal.saturate()
    assert (len(ideal.gens), len(sat.gens), length) == (126, 198, 478)
    assert length == slab_length(sat, ideal)


class TestQuotient:
    def test_unit_outer_reduces_to_plain_length(self):
        assert h0_of_quotient(MonomialIdeal.unit(2), I).length == h0_length(I).length

    def test_principal_outer(self):
        outer = MonomialIdeal.from_gens(2, [(1, 0)])
        assert h0_of_quotient(outer, I.power(2)).length == 6

    def test_power_step(self):
        assert h0_of_quotient(I, I.power(2)).length == 6

    def test_containment_enforced(self):
        with pytest.raises(PreconditionError):
            h0_of_quotient(I.power(2), I)

    def test_zero_inner_rejected(self):
        with pytest.raises(ZeroIdealError):
            h0_of_quotient(I, MonomialIdeal.zero(2))

    def test_random_pairs_match_scan(self, rng):
        for k in range(120):
            d = 1 + k % 4
            outer = random_ideal(rng, d, 3, 3)
            other = random_ideal(rng, d, 2, 2)
            inner = outer.multiply(other) if k % 2 else outer.intersect(other)
            sat = inner.saturate()
            expected, maxdeg = brute_count(inner.max_exponents(), sat.gens, outer.gens, inner.gens)
            count = h0_of_quotient(outer, inner, witnesses=True)
            assert count.length == expected
            assert max(map(sum, count.witnesses), default=-1) == maxdeg
            for w in count.witnesses:
                assert outer.contains(w) and sat.contains(w) and not inner.contains(w)

    def test_count_builds_no_intersection(self, rng, monkeypatch):
        # the count is |S \ J'| - |(S + J) \ J| for S = sat(J'), with no
        # J & S built; only the witnesses are listed off the slabs of J & S
        calls = []
        intersect = MonomialIdeal.intersect
        monkeypatch.setattr(MonomialIdeal, "intersect",
                            lambda a, b: calls.append(1) or intersect(a, b))
        base = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)])
        pairs = [(base.power(6), base.power(7)), (MonomialIdeal.unit(3), base.power(3))]
        for k in range(300):
            d = 1 + k % 4
            outer = random_ideal(rng, d, 4, 4)
            other = random_ideal(rng, d, 3, 3)
            pairs.append((outer, outer.multiply(other) if k % 2 else intersect(outer, other)))
        for outer, inner in pairs:
            calls.clear()
            length = h0_of_quotient(outer, inner).length
            assert calls == []
            assert length == _between(intersect(outer, inner.saturate()).gens, inner.gens)
            assert h0_of_quotient(outer, inner, witnesses=True).length == length
            assert calls == [1]

    def test_quotient_growth_is_linear(self):
        # the step lengths for this ideal follow 4n + 2
        for n in (1, 2, 5, 9):
            assert h0_of_quotient(I.power(n), I.power(n + 1)).length == 4 * n + 2


class TestDeltaComplex:
    def test_interior_point(self):
        assert delta_complex(I, (1, 1)).faces == frozenset([frozenset()])

    def test_axis_point(self):
        got = delta_complex(I, (0, 5)).faces
        assert got == frozenset([frozenset(), frozenset({2})])

    def test_member_point_gives_void(self):
        assert delta_complex(I, (2, 0)).is_void

    def test_downward_closure_validated(self):
        with pytest.raises(PreconditionError):
            SimplicialComplex(2, frozenset([frozenset({1})]))

    def test_faces_inside_the_ground_set(self):
        with pytest.raises(PreconditionError) as info:
            SimplicialComplex(2, frozenset([frozenset(), frozenset({3})]))
        assert str(info.value) == "face [3] outside ground set 1..2"

    def test_matches_the_localization_oracle(self, rng):
        # every point of the box one past the largest exponents, so points
        # with p_i >= max_i are met too
        ideals = [MonomialIdeal.unit(d) for d in (1, 2, 3, 4)]
        for k in range(240):
            d = 1 + k % 4
            J = random_ideal(rng, d, 3 if d < 4 else 2, 4)
            ideals.append(with_pure_powers(rng, J) if k % 3 == 0 else J)
        points, shapes = 0, set()
        for J in ideals:
            for p in box_points(J.max_exponents()):
                faces = delta_complex(J, p).faces
                assert faces == brute_delta(J, p)
                points += 1
                shapes.add((J.d, faces))
        assert points > 4000 and len(shapes) > 40

    def test_reads_the_generators_only(self, rng, monkeypatch):
        # neither a localization nor a minimalization: the check shares no
        # code with the slab route it checks
        ideals = [random_ideal(rng, 1 + k % 4, 3, 4) for k in range(40)]
        ideals += [MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)]).power(2)]
        calls = []
        antichain, localize = ideal_core._antichain, MonomialIdeal.localize
        monkeypatch.setattr(ideal_core, "_antichain",
                            lambda rows: calls.append("_antichain") or antichain(rows))
        monkeypatch.setattr(MonomialIdeal, "localize",
                            lambda self, f: calls.append("localize") or localize(self, f))
        for J in ideals:
            for p in box_points(J.max_exponents()):
                delta_complex(J, p)
            h0_length_takayama(J)
            h0_length_takayama(J, witnesses=True)
        assert calls == []
        brute_delta(ideals[0], (0,))  # the counters are live
        assert set(calls) == {"localize", "_antichain"}

    @pytest.mark.parametrize("point, error, message", [
        ((1,), DimensionMismatchError, "monomial (1,) does not live in 2 variables"),
        ((1, 2, 3), DimensionMismatchError, "monomial (1, 2, 3) does not live in 2 variables"),
        ((1.5, 0), PreconditionError, "expected an integer, got 1.5"),
        ((True, 0), PreconditionError, "expected an integer, got True"),
        ((0, -1), PreconditionError, "monomial (0, -1) has a negative exponent"),
    ])
    def test_malformed_points_rejected(self, point, error, message):
        for J in (I, MonomialIdeal.unit(2)):
            with pytest.raises(PreconditionError) as info:
                delta_complex(J, point)
            assert type(info.value) is error and str(info.value) == message
        # the zero ideal is checked first
        with pytest.raises(ZeroIdealError, match=re.escape("complex of the zero ideal is undefined")):
            delta_complex(MonomialIdeal.zero(2), point)


class TestReducedBetti:
    def test_irrelevant_complex(self):
        assert reduced_betti(SimplicialComplex.irrelevant(2), -1) == 1

    def test_two_points(self):
        K = SimplicialComplex(2, frozenset([frozenset(), frozenset({1}), frozenset({2})]))
        assert reduced_betti(K, 0) == 1
        assert reduced_betti(K, -1) == 0

    def test_cone_is_acyclic(self):
        K = SimplicialComplex(2, frozenset([frozenset(), frozenset({1})]))
        assert all(reduced_betti(K, q) == 0 for q in (-1, 0, 1))

    def test_void_complex(self):
        assert all(reduced_betti(SimplicialComplex.void(3), q) == 0 for q in (-1, 0, 1, 2))

    def test_hollow_triangle_circle(self):
        faces = [frozenset()]
        faces += [frozenset({i}) for i in (1, 2, 3)]
        faces += [frozenset(p) for p in ((1, 2), (1, 3), (2, 3))]
        K = SimplicialComplex(3, frozenset(faces))
        assert reduced_betti(K, 1) == 1
        assert reduced_betti(K, 0) == 0


class TestTakayama:
    def test_examples(self):
        assert h0_length_takayama(I).length == 2
        assert h0_length_takayama(MonomialIdeal.from_gens(2, [(1, 0)])).length == 0
        assert h0_length_takayama(MonomialIdeal.from_gens(2, [(2, 0), (0, 2)])).length == 4

    def test_agreement_on_randoms(self, rng):
        for _ in range(25):
            d = rng.choice((1, 2, 3))
            ideal = random_ideal(rng, d, 4, 4)
            assert (h0_length_takayama(ideal).length
                    == h0_length(ideal, method="box-enumeration").length)

    def test_witnesses_coincide_with_box_witnesses(self):
        ideal = MonomialIdeal.from_gens(2, [(3, 0), (1, 2), (0, 3)])
        a = h0_length(ideal, method="box-enumeration", witnesses=True)
        b = h0_length_takayama(ideal, witnesses=True)
        assert set(a.witnesses) == set(b.witnesses)

    def test_witnesses_equal_the_slab_witnesses(self, rng):
        # both lists are lex sorted; the unit ideal's box is empty
        base = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)])
        ideals = [base.power(n) for n in range(1, 7)] + [MonomialIdeal.unit(d) for d in (1, 2, 3)]
        for k in range(200):
            d = 1 + k % 4
            J = random_ideal(rng, d, 3, 4)
            ideals.append(with_pure_powers(rng, J) if k % 2 else J)
        nonzero = 0
        for J in ideals:
            got = h0_length_takayama(J, witnesses=True)
            assert got.witnesses == h0_length(J, witnesses=True).witnesses
            assert h0_length_takayama(J) == cohomology.H0Count(got.length, cohomology.METHOD_TAKAYAMA)
            nonzero += got.length > 0
        assert nonzero > 80

    def test_zero_ideal_rejected(self):
        for call in (lambda: h0_length_takayama(MonomialIdeal.zero(2)),
                     lambda: h0_length_takayama(MonomialIdeal.zero(3), witnesses=True)):
            with pytest.raises(ZeroIdealError, match=re.escape("H^0 length of R/0 is undefined here")):
                call()


def test_monotone_under_containment_with_equal_saturation(rng):
    # enlarging the ideal inside its saturation can only shrink the count:
    # adding a socle point absorbs it and every socle multiple of it
    for _ in range(20):
        ideal = random_ideal(rng, 2, 5, 4)
        count = h0_length(ideal, method="box-enumeration", witnesses=True)
        if not count.witnesses:
            continue
        p = count.witnesses[0]
        bigger = ideal.add(MonomialIdeal.from_gens(2, [p]))
        absorbed = sum(1 for w in count.witnesses
                       if all(a <= b for a, b in zip(p, w)))
        assert bigger.saturate() == ideal.saturate()
        assert ideal.is_subset(bigger)
        assert h0_length(bigger).length == count.length - absorbed
        assert h0_length(bigger).length <= count.length - 1


def test_max_socle_degree_examples():
    assert max_socle_degree(I.power(5)) == 14
    assert max_socle_degree(MonomialIdeal.from_gens(2, [(1, 0)])) == 0
    assert max_socle_degree(MonomialIdeal.from_gens(2, [(1, 0), (0, 1)])) == 0


def test_max_socle_degree_of_zero_ideal_rejected():
    with pytest.raises(ZeroIdealError, match=re.escape("socle of R/0 is undefined here")):
        max_socle_degree(MonomialIdeal.zero(2))


def test_max_socle_degree_matches_brute_force(rng):
    for _ in range(20):
        d = rng.choice((2, 3))
        ideal = random_ideal(rng, d, 4, 4)
        pts = brute_socle(ideal, ideal.max_exponents())
        expected = max((sum(p) for p in pts), default=0)
        assert max_socle_degree(ideal) == expected
