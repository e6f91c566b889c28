import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmult import _kernels, ideal_core
from epsmult.errors import (DimensionMismatchError, ParseError, PreconditionError,
                            ZeroIdealError)
from epsmult.ideal_core import (MonomialIdeal, _antichain, _clip, format_ideal,
                                parse_ideal, sum_of_products)
from epsmult.repro import random_ideal

from conftest import STRADDLE, brute_members, brute_minimal, brute_rung


def ideal(d, *gens):
    return MonomialIdeal.from_gens(d, gens)


class TestMinimalize:
    def test_drops_divisible_generator(self):
        assert ideal(2, (1, 2), (2, 0), (2, 3)).gens == ((1, 2), (2, 0))

    def test_empty_is_zero_ideal(self):
        z = MonomialIdeal.from_gens(2, [])
        assert z.is_zero and z.gens == ()

    def test_zero_vector_wins(self):
        u = ideal(2, (0, 0), (1, 5))
        assert u.is_unit and u.gens == ((0, 0),)

    def test_duplicates_collapse(self):
        assert ideal(2, (1, 2), (1, 2), (1, 2)).gens == ((1, 2),)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal.from_gens(2, [(1, 2), (1, 2, 3)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(PreconditionError):
            MonomialIdeal.from_gens(2, [(1, -2)])

    @pytest.mark.parametrize("d", [0, -1, 2.0, "2", True])
    def test_dimension_must_be_a_positive_int(self, d):
        # a bool passes isinstance(d, int) but is no dimension
        for build in (lambda: MonomialIdeal.from_gens(d, [(1, 2)]),
                      lambda: MonomialIdeal.zero(d), lambda: MonomialIdeal.unit(d)):
            with pytest.raises(PreconditionError) as info:
                build()
            assert type(info.value) is PreconditionError
            assert str(info.value) == f"ambient dimension must be a positive integer, got {d!r}"

    @pytest.mark.parametrize("e", [1.5, "3", True])
    def test_exponents_must_be_ints(self, e):
        # int(e) would read 1.5 and True as 1 and "3" as 3
        with pytest.raises(PreconditionError) as info:
            MonomialIdeal.from_gens(2, [(e, 2), (2, 0)])
        assert str(info.value) == f"expected an integer, got {e!r}"

    def test_repr(self):
        assert repr(MonomialIdeal.zero(2)) == "MonomialIdeal(d=2, zero)"
        assert repr(ideal(2, (1, 2), (2, 0))) == "MonomialIdeal(d=2, <x*y^2, x^2>)"


class TestContains:
    I = ideal(2, (1, 2), (2, 0))

    def test_examples(self):
        assert not self.I.contains((1, 1))
        assert self.I.contains((2, 7))
        assert not MonomialIdeal.zero(2).contains((0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            self.I.contains((1, 1, 1))

    def test_fractional_point_rejected(self):
        # (0.9, 1) is no monomial, though truncating it would land in (y)
        with pytest.raises(PreconditionError) as info:
            ideal(2, (0, 1)).contains((0.9, 1))
        assert str(info.value) == "expected an integer, got 0.9"


class TestArithmetic:
    I = ideal(2, (1, 2), (2, 0))

    def test_square(self):
        assert (self.I * self.I).gens == ((2, 4), (3, 2), (4, 0))

    def test_power_zero_is_unit(self):
        assert self.I.power(0).is_unit
        assert MonomialIdeal.zero(2).power(0).is_unit

    def test_negative_power_rejected(self):
        with pytest.raises(PreconditionError):
            self.I.power(-1)

    @pytest.mark.parametrize("n", [True, 2.5, "2"])
    def test_non_integer_power_rejected(self, n):
        with pytest.raises(PreconditionError) as info:
            self.I.power(n)
        assert str(info.value) == f"ideal power must be an integer, got {n!r}"

    def test_le_is_containment(self):
        small, big = ideal(2, (2, 1)), ideal(2, (1, 0), (0, 3))
        assert small <= big and small <= small
        assert not big <= small

    def test_multiply_by_unit_is_identity(self):
        assert self.I.multiply(MonomialIdeal.unit(2)) == self.I

    def test_multiply_by_zero(self):
        assert self.I.multiply(MonomialIdeal.zero(2)).is_zero

    def test_add(self):
        assert ideal(2, (2, 0)).add(ideal(2, (0, 2))).gens == ((0, 2), (2, 0))

    def test_intersect_principal(self):
        assert ideal(2, (1, 0)).intersect(ideal(2, (0, 1))).gens == ((1, 1),)

    def test_intersect_example(self):
        # frozen from the box membership oracle on [0,4]^2
        got = ideal(2, (0, 2)).intersect(ideal(2, (2, 0), (1, 1)))
        assert got.gens == ((1, 2),)
        lhs = brute_members(((0, 2),), (4, 4))
        rhs = brute_members(((2, 0), (1, 1)), (4, 4))
        assert brute_members(got.gens, (4, 4)) == lhs & rhs

    @pytest.mark.parametrize("op", ["add", "multiply", "intersect", "is_subset"])
    def test_rings_must_match(self, op):
        a, b = ideal(2, (1, 0)), ideal(3, (1, 0, 0))
        for left, right, ds in ((a, b, "2 and 3"), (b, a, "3 and 2")):
            with pytest.raises(DimensionMismatchError) as info:
                getattr(left, op)(right)
            assert str(info.value) == f"ideals live in {ds} variables"

    def test_zero_ideal_max_exponents(self):
        assert MonomialIdeal.zero(2).max_exponents() == (0, 0)


class TestColonAndSaturation:
    I = ideal(2, (1, 2), (2, 0))

    @staticmethod
    def colon_by_power_oracle(ideal_, i, k):
        # I : xi^k has generators max(g - k e_i, 0)
        gens = [tuple(max(e - k, 0) if j == i - 1 else e for j, e in enumerate(g))
                for g in ideal_.gens]
        return MonomialIdeal.from_gens(ideal_.d, gens)

    def stable_colon(self, ideal_, i):
        k = 1
        while True:
            a = self.colon_by_power_oracle(ideal_, i, k)
            b = self.colon_by_power_oracle(ideal_, i, k + 1)
            if a == b:
                return a
            k += 1

    def test_colon_examples(self):
        # I : xi^infinity is the localization at xi
        assert self.I.localize({2}).gens == ((1, 0),)
        assert self.I.localize({1}).is_unit
        assert ideal(3, (1, 1, 1)).localize({1}).gens == ((0, 1, 1),)

    def test_colon_matches_stabilized_oracle(self):
        for i in (1, 2):
            assert self.I.localize({i}) == self.stable_colon(self.I, i)

    def test_saturate_examples(self):
        assert self.I.saturate().gens == ((1, 0),)
        assert ideal(2, (2, 0), (0, 2)).saturate().is_unit
        assert ideal(3, (1, 1, 1)).saturate().gens == ((1, 1, 1),)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            MonomialIdeal.zero(2).saturate()
        with pytest.raises(ZeroIdealError):
            MonomialIdeal.zero(2).localize({1})


class TestLocalize:
    I = ideal(2, (1, 2), (2, 0))

    def test_examples(self):
        assert self.I.localize({2}).gens == ((1, 0),)
        assert self.I.localize({1}).is_unit
        assert self.I.localize(set()) == self.I

    def test_matches_iterated_colon(self):
        stable_colon = TestColonAndSaturation().stable_colon
        assert self.I.localize({2}) == stable_colon(self.I, 2)
        J = ideal(3, (2, 1, 3), (0, 4, 1))
        assert J.localize({1, 3}) == stable_colon(stable_colon(J, 1), 3)
        assert J.localize({1, 3}) == J.localize({1}).localize({3})

    def test_bad_subset(self):
        with pytest.raises(PreconditionError):
            self.I.localize({0})

    @pytest.mark.parametrize("i", [1.7, True, 1.0, "1"])
    def test_indices_must_be_ints(self, i):
        # int(i) would read 1.7, True, 1.0 and "1" as x1
        with pytest.raises(PreconditionError) as info:
            self.I.localize({i})
        assert str(info.value) == f"variable indices must be integers, got {i!r}"
        with pytest.raises(PreconditionError):
            self.I.localize([2, i])


class TestBigExponents:
    def test_pure_python_path_agrees_with_scaled_kernel_path(self):
        small = ideal(2, (1, 2), (2, 0))
        shift = 1 << 40
        big = MonomialIdeal.from_gens(2, [(a * shift, b * shift) for a, b in small.gens])
        prod = big.multiply(big)
        expected = tuple(tuple(e * shift for e in g) for g in (small * small).gens)
        assert prod.gens == expected
        assert big.saturate().gens == ((shift, 0),)


IDEAL_GENS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(IDEAL_GENS, IDEAL_GENS)
def test_antichain_preserved_and_box_agreement(g1, g2):
    I = MonomialIdeal.from_gens(2, g1)
    J = MonomialIdeal.from_gens(2, g2)
    bound = 2 * max(max(max(g) for g in g1), max(max(g) for g in g2), 1)
    box = (bound, bound)
    for result in (I * J, I + J, I.intersect(J)):
        for a in result.gens:
            for b in result.gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))
    prod_members = {tuple(a + b for a, b in zip(p, q))
                    for p in brute_members(g1, box) for q in brute_members(g2, box)}
    prod_members = {p for p in prod_members if all(c <= bound for c in p)}
    assert brute_members((I * J).gens, box) == prod_members
    assert brute_members((I + J).gens, box) == brute_members(g1, box) | brute_members(g2, box)
    assert brute_members(I.intersect(J).gens, box) == brute_members(g1, box) & brute_members(g2, box)


@settings(max_examples=60, deadline=None)
@given(IDEAL_GENS, IDEAL_GENS,
       st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_membership_homomorphism(g1, g2, a, b):
    I = MonomialIdeal.from_gens(2, g1)
    J = MonomialIdeal.from_gens(2, g2)
    if I.contains(a) and J.contains(b):
        assert (I * J).contains(tuple(x + y for x, y in zip(a, b)))


@settings(max_examples=60, deadline=None)
@given(IDEAL_GENS)
def test_saturation_properties(gens):
    I = MonomialIdeal.from_gens(2, gens)
    sat = I.saturate()
    assert I.is_subset(sat)
    assert sat.saturate() == sat
    cap = I.max_exponents()
    for g in sat.gens:
        assert all(e <= c for e, c in zip(g, cap))


def test_saturation_closed_form_in_one_and_two_variables(rng):
    # the unit ideal for d = 1 and the staircase corner for d = 2 are the
    # intersection of the colons I : xi^infinity
    for k in range(200):
        d = 1 + k % 2
        I = random_ideal(rng, d, 8, 6)
        colons = [I.localize({i}) for i in range(1, d + 1)]
        expected = colons[0] if d == 1 else colons[0].intersect(colons[1])
        assert I.saturate() == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(*[st.integers(0, 10**15)] * d), max_size=5))))
def test_text_and_json_forms_roundtrip(case):
    d, gens = case
    I = MonomialIdeal.from_gens(d, gens)
    for style in ("text", "json"):
        text = format_ideal(I, style=style)
        assert parse_ideal(text, d) == I
        assert format_ideal(parse_ideal(text, d), style=style) == text


def test_random_ops_preserve_antichain_d3(rng):
    for _ in range(25):
        I = random_ideal(rng, 3, 4, 4)
        J = random_ideal(rng, 3, 4, 4)
        for result in (I * J, I + J, I.intersect(J), I.saturate()):
            gens = result.gens
            for a in gens:
                for b in gens:
                    if a != b:
                        assert not all(x <= y for x, y in zip(a, b))


def test_box_membership_agreement_d3(rng):
    for _ in range(8):
        I = random_ideal(rng, 3, 4, 3)
        J = random_ideal(rng, 3, 4, 3)
        bound = 2 * max(max(g) for g in I.gens + J.gens)
        box = (bound,) * 3
        members_i = brute_members(I.gens, box)
        members_j = brute_members(J.gens, box)
        assert brute_members((I + J).gens, box) == members_i | members_j
        assert brute_members(I.intersect(J).gens, box) == members_i & members_j
        prod = {tuple(a + b for a, b in zip(p, q))
                for p in members_i for q in members_j}
        prod = {p for p in prod if all(c <= bound for c in p)}
        assert brute_members((I * J).gens, box) == prod


class TestParsing:
    def test_text_roundtrip(self):
        I = parse_ideal("x1*x2^2, x1^2")
        assert I.gens == ((1, 2), (2, 0))
        assert parse_ideal(format_ideal(I)) == I

    def test_aliases(self):
        assert parse_ideal("x*y^2, x^2") == parse_ideal("x1*x2^2, x1^2")
        assert parse_ideal("z") .gens == ((0, 0, 1),)

    def test_json_form(self):
        I = parse_ideal("[[1,2],[2,0]]")
        assert I.gens == ((1, 2), (2, 0))
        assert parse_ideal(format_ideal(I, style="json")) == I

    def test_unit_and_zero(self):
        assert parse_ideal("1", 2).is_unit
        assert parse_ideal("0", d=2).is_zero
        assert parse_ideal("[]", d=3).is_zero

    def test_dim_expansion(self):
        assert parse_ideal("x^2", d=3).gens == ((2, 0, 0),)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ideal("x ** 2")
        with pytest.raises(ParseError):
            parse_ideal("0")
        with pytest.raises(ParseError):
            parse_ideal("[[1,2],[1]]")
        with pytest.raises(ParseError):
            parse_ideal("x3", d=2)

    @pytest.mark.parametrize("text, message", [
        ("[[1,-2]]", "monomial (1, -2) has a negative exponent"),
        ("x0", "variable index in 'x0' must be >= 1"),
        ("[1, 2]", "JSON ideal must be an array of exponent arrays"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, d", [("x, y", 2.5), ("x, y", "2"), ("x", True), ("0", 2.5)])
    def test_dimension_must_be_a_positive_int(self, text, d):
        # checked on entry, so neither a TypeError nor a PreconditionError escapes
        with pytest.raises(ParseError) as info:
            parse_ideal(text, d)
        assert str(info.value) == f"ambient dimension must be a positive integer, got {d!r}"

    def test_canonical_generator_order(self):
        a = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
        b = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])
        assert a.gens == b.gens == ((1, 2), (2, 0))
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Products, sums, lcms and colons, small and past 2**31 and 2**64, against
# the brute-force oracle.

def py_mul(a, b):
    return brute_minimal([tuple(x + y for x, y in zip(g, h)) for g in a for h in b])


def py_lcm(a, b):
    return brute_minimal([tuple(map(max, g, h)) for g in a for h in b])


def py_colon(a, i):
    return brute_minimal([g[: i - 1] + (0,) + g[i:] for g in a])


def py_subset(a, b):
    return all(any(all(x <= y for x, y in zip(h, g)) for h in b) for g in a)


def tuple_backed(d, gens):
    """The ideal with generators *gens*, taken as minimal and lex sorted."""
    return MonomialIdeal(d, tuple(gens), _trusted=True)


def check_against_python(d, g1, g2):
    I, J = MonomialIdeal.from_gens(d, g1), MonomialIdeal.from_gens(d, g2)
    a, b = brute_minimal(g1), brute_minimal(g2)
    assert I.gens == a and J.gens == b
    assert (I * J).gens == py_mul(a, b)
    assert (I + J).gens == brute_minimal(a + b)
    assert I.intersect(J).gens == py_lcm(a, b)
    assert I.is_subset(J) == py_subset(a, b)
    assert J.is_subset(I) == py_subset(b, a)
    if a:
        for i in range(1, d + 1):
            assert I.localize({i}).gens == py_colon(a, i)
        sat = reduce(py_lcm, [py_colon(a, i) for i in range(1, d + 1)])
        assert I.saturate().gens == sat


def random_gens(rng, d, hi, least):
    return [tuple(rng.randint(0, hi) for _ in range(d)) for _ in range(rng.randint(least, 9))]


def test_array_route_matches_python_route(rng):
    # the second operand is the zero ideal when it draws no generator
    for k in range(320):
        d = 1 + k % 4
        hi = rng.choice((3, 6, 40))
        check_against_python(d, random_gens(rng, d, hi, 1), random_gens(rng, d, hi, 0))


def test_key_route_matches_brute_force(rng):
    # chains of products and sums of d = 2 ideals; a coordinate 2^31 - 1 or
    # 2^64 sends a chain across 2^31 or past 2^64 within a step or two
    steps = (0, 1, 2, 3, 4, 2**31 - 1, 2**64)

    def draw():
        gens = [(rng.choice(steps), rng.choice(steps)) for _ in range(rng.randint(1, 6))]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        return gens

    for _ in range(300):
        gens = draw()
        acc, expected = MonomialIdeal.from_gens(2, gens), brute_minimal(gens)
        for _ in range(3):
            gens = draw()
            other = tuple_backed(2, brute_minimal(gens))
            if rng.random() < 0.5:
                acc, expected = acc * other, py_mul(expected, other.gens)
            else:
                acc, expected = acc + other, brute_minimal(expected + other.gens)
            assert acc.gens == expected


def test_key_products_straddling_the_bound():
    top = 2**31 - 1
    cases = (([(top, 0), (0, 5)], [(1, 0), (0, 1)]),          # x: (2^31 - 1) + 1
             ([(5, 0), (0, top)], [(1, 0), (0, 1)]),          # y: (2^31 - 1) + 1
             ([(top, 0), (0, top)], [(top, 0), (0, top)]),    # (2^31 - 1) + (2^31 - 1)
             ([(top - 1, 0), (0, 5)], [(1, 0), (0, 1)]),      # 2^31 - 1 exactly
             ([(2**64 - 1, 0), (0, 1)], [(1, 0), (0, 2**64)]))  # x: 2^64, y: 2^64 + 1
    for g1, g2 in cases:
        expected = py_mul(brute_minimal(g1), brute_minimal(g2))
        I, J = MonomialIdeal.from_gens(2, g1), MonomialIdeal.from_gens(2, g2)
        assert (I * J).gens == (J * I).gens == expected


def test_operands_straddling_the_int64_bound(rng):
    for k in range(300):
        d = 1 + k % 4
        g1 = [tuple(rng.choice(STRADDLE[:4]) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        g2 = [tuple(rng.choice(STRADDLE) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        if all(max(g) < 2**31 for g in g2):
            g2[0] = (rng.choice(STRADDLE[4:]),) + g2[0][1:]
        check_against_python(d, g1, g2)
        check_against_python(d, g2, g1)


@pytest.mark.parametrize("offset", [0, 2048])
def test_sum_of_products_matches_brute_force(offset):
    # zero and unit ideals among the pairs, empty and repeated pairs, and in
    # d = 2 and 3 factors across 2^31 and past 2^64 next to small ones; each
    # offset draws its own 400 cases
    rng = random.Random(20240817 + offset)

    def draw(d):
        roll = rng.random()
        if roll < 0.1:
            return MonomialIdeal.zero(d)
        if roll < 0.2:
            return MonomialIdeal.unit(d)
        if d == 2 and roll > 0.5:  # a staircase of up to 10 steps
            k = rng.randint(2, 11)
            gens = tuple(zip(sorted(rng.sample(range(24), k)),
                             sorted(rng.sample(range(24), k), reverse=True)))
        else:
            values = STRADDLE if d in (2, 3) and roll < 0.4 else range(6)
            gens = brute_minimal(tuple(rng.choice(values) for _ in range(d))
                                 for _ in range(rng.randint(1, 7)))
        return tuple_backed(d, gens)

    for k in range(400):
        d = 1 + k % 4
        pairs = [(draw(d), draw(d)) for _ in range(rng.choice((0, 1, 1, 2, 3, 5)))]
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # repeated pairs
        got = sum_of_products(d, pairs)
        assert got.gens == brute_rung([(a.gens, b.gens) for a, b in pairs])


def test_sum_of_products_checks_the_ring():
    I2, I3 = ideal(2, (1, 0), (0, 1)), ideal(3, (1, 0, 0))
    for pairs in ([(I2, I3)], [(MonomialIdeal.zero(2), I3)]):
        with pytest.raises(DimensionMismatchError):
            sum_of_products(2, pairs)
    assert sum_of_products(3, []) == MonomialIdeal.zero(3)


def test_sum_of_products_mixes_factor_forms(monkeypatch):
    # small factors, factors across 2^31 and past 2^64, and zero factors in
    # one call: in d = 2 one kernel product builds the whole sum, and no
    # _antichain runs
    calls = []
    antichain, product = ideal_core._antichain, _kernels.product
    monkeypatch.setattr(ideal_core, "_antichain", lambda rows: calls.append("tuples") or antichain(rows))
    monkeypatch.setattr(_kernels, "product", lambda pairs: calls.append("keys") or product(pairs))
    top = 2**31 - 1
    small = tuple_backed(2, ((0, 3), (2, 1), (5, 0)))
    loose = tuple_backed(2, ((0, top), (1, 1), (top, 0)))
    big = tuple_backed(2, ((0, 2**31), (4, 0)))
    huge = tuple_backed(2, ((0, 2**64), (1, 7), (2**64 + 3, 0)))
    zero = MonomialIdeal.zero(2)
    for pairs in ([(small, loose), (zero, big), (loose, small), (small, small), (loose, zero)],
                  [(small, loose), (big, small), (huge, loose), (zero, huge), (huge, huge)]):
        calls.clear()
        got = sum_of_products(2, pairs)
        live = [(a.gens, b.gens) for a, b in pairs if not (a.is_zero or b.is_zero)]
        assert got.gens == brute_rung(live)
        assert calls == ["keys"]
    # a ring mismatch raises inside a zero pair too, and before any product
    for pairs in ([(small, small), (zero, ideal(3, (1, 0, 0)))],
                  [(ideal(3, (1, 0, 0)), MonomialIdeal.zero(3)), (small, loose)]):
        calls.clear()
        with pytest.raises(DimensionMismatchError):
            sum_of_products(2, pairs)
        assert calls == []
    # the pairs may be any iterable, and all-zero pairs give the zero ideal
    assert sum_of_products(2, iter([(small, loose)])) == small * loose
    assert sum_of_products(2, ((zero, small), (loose, zero))).is_zero


def test_distinct_sums_at_the_bound():
    # each row times the origin, duplicate rows among them: the kernel gives
    # each distinct row once, in lex order, whatever the field widths
    rng = random.Random(33)
    values = (0, 1, 2, 2**31 - 1, 2**31, 2**64, 2**64 + 1)
    for n in (1, 2, 3, 8, 50):
        for _ in range(20):
            rows = [tuple(rng.choice(values) for _ in range(3)) for _ in range(n)]
            rows += rows[: n // 2]  # duplicates
            origin = ((0, 0, 0),)
            assert _kernels.distinct_sums([(rows, origin)]) == sorted(set(rows))
            assert _kernels.distinct_sums([(origin, rows), (rows[:1], origin)]) == sorted(set(rows))


def test_d3_products_sweep_only_distinct_sums(monkeypatch):
    # (xy, yz, x^2z)^29 * (xy, yz, x^2z): one packing of the 1,395 sums and
    # one sweep over the 496 distinct ones; d = 4 sums stay tuples
    I = ideal(3, *CLIFF_BASE)
    low = I.power(29)
    J = ideal(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    calls, swept = [], []
    antichain, sums = ideal_core._antichain, _kernels.distinct_sums
    monkeypatch.setattr(ideal_core, "_antichain", lambda rows: swept.append(len(rows)) or antichain(rows))
    monkeypatch.setattr(_kernels, "distinct_sums", lambda pairs: calls.append(len(pairs)) or sums(pairs))
    got = sum_of_products(3, [(low, I)])
    assert len(low.gens) * len(I.gens) == 1395
    assert calls == [1] and swept == [496] and len(got.gens) == 496
    assert got.gens == antichain([tuple(map(sum, zip(g, h))) for g in low.gens for h in I.gens])
    calls.clear()
    swept.clear()
    assert sum_of_products(4, [(J, J)]).gens == brute_rung([(J.gens, J.gens)])
    assert calls == [] and swept[0] == 16


# (xy, yz, x^2z): 9,720 rows go into the last product step of its 80th power.
CLIFF_BASE = ((1, 1, 0), (0, 1, 1), (2, 0, 1))


def test_power_80_in_three_variables_is_fast():
    start = time.perf_counter()
    power = ideal(3, *CLIFF_BASE).power(80)
    elapsed = time.perf_counter() - start
    assert len(power.gens) == 3321
    assert elapsed < 3.0, f"power(80) took {elapsed:.2f} s"


def test_big_integer_power_and_saturation_equal_the_scaled_ones():
    # scaling every exponent commutes with sums, lcms and minimalization
    def scaled(gens):
        return tuple(tuple(e << 33 for e in g) for g in gens)

    small = ideal(3, *CLIFF_BASE).power(30)
    big = ideal(3, *scaled(CLIFF_BASE)).power(30)
    assert big.gens == scaled(small.gens)
    assert big.saturate().gens == scaled(small.saturate().gens)


def test_sums_past_the_bound_take_the_python_route():
    # d = 2 products, sums, lcms and colons whose exponents cross 2^31
    I = MonomialIdeal.from_gens(2, [(2**31 - 1, 0), (1, 1), (0, 2**31 - 1)])
    square = I * I
    assert square.gens == py_mul(I.gens, I.gens)
    assert max(square.max_exponents()) > 2**31
    assert (square + I).gens == brute_minimal(square.gens + I.gens)
    assert square.intersect(I * I).gens == square.gens
    assert square.localize({2}).gens == py_colon(square.gens, 2)


def test_equality_and_hash_across_forms(rng):
    for k in range(300):
        d = 1 + k % 4
        I = random_ideal(rng, d, 5, 6)
        J = random_ideal(rng, d, 5, 6)
        x1 = MonomialIdeal.from_gens(d, [(1,) + (0,) * (d - 1)])
        for op, expected in ((I.multiply, py_mul(I.gens, J.gens)),
                             (I.add, brute_minimal(I.gens + J.gens)),
                             (I.intersect, py_lcm(I.gens, J.gens))):
            kernel, twin, shifted = op(J), op(J), op(J) * x1
            assert kernel == twin and kernel != shifted
            assert hash(kernel) == hash(twin) != hash(shifted)
            assert kernel != MonomialIdeal.zero(d)
            for other in (tuple_backed(d, expected), MonomialIdeal.from_gens(d, expected)):
                assert kernel == other and other == kernel
                assert hash(kernel) == hash(other)
                assert len({kernel, other, twin}) == 1


def test_gens_is_read_only():
    I = MonomialIdeal.from_gens(2, [(1, 2), (2, 0), (0, 5)])
    with pytest.raises(AttributeError):
        I.gens = ((1, 1),)


def test_one_key_sort_matches_lexsort_at_the_bound():
    # the kernel's one sort of packed keys as a minimalization (each row times
    # the unit ideal) against a lex sort and a scan of the running least y,
    # with coordinates about 2^30, 2^31 and 2^64
    rng = random.Random(31)
    values = (0, 1, 2, 2**30 - 1, 2**30, 2**30 + 1, 2**31 - 2, 2**31 - 1, 2**64, 2**64 + 1)
    for n in (1, 2, 3, 8, 50, 400):
        for _ in range(20):
            rows = [(rng.choice(values), rng.choice(values)) for _ in range(n)]
            rows += rows[: n // 2]  # duplicates
            got = _kernels.product([((r,), ((0, 0),)) for r in rows])
            lex, low = [], None
            for x, y in sorted(rows):
                if low is None or y < low:
                    lex.append((x, y))
                    low = y
            assert got == tuple(lex) == brute_minimal(rows)


# (x1^2x4, x2^2x4, x3^2x4, x1x2x3): not m-primary in d = 4.
D4_BASE = ((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 0))


def test_clip_is_the_lcm_antichain(rng):
    # _clip(top, a, b) against the minimal lcms of (a, b) with every generator
    # of top, for corners on, between and past the generators' coordinates,
    # small and straddling 2^31 and 2^64
    for k in range(400):
        pool = STRADDLE if k % 2 else range(9)
        top = _antichain([(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 7))])
        a = rng.choice([x for x in pool if x >= top[0][0]])
        b = rng.choice([y for y in pool if y >= top[-1][1]])
        assert _clip(top, a, b) == brute_minimal([(max(a, x), max(b, y)) for x, y in top])


def test_cuts_are_the_minimal_prefixes_below_each_level(rng):
    # _cuts(*sides) against brute_minimal of each side's prefixes with last
    # exponent <= z, for 1..3 sides in d = 2..6: seeded rows with duplicates,
    # minimal and unminimized sides, an empty side, and coordinates
    # straddling 2^31 and 2^64
    for k in range(600):
        d = 2 + k % 5
        pool = STRADDLE if k % 3 == 0 else range(5)
        sides = []
        for _ in range(1 + k % 3):
            rows = [tuple(rng.choice(pool) for _ in range(d)) for _ in range(rng.randint(0, 8))]
            rows += rng.sample(rows, rng.randint(0, len(rows)))  # duplicates
            sides.append(brute_minimal(rows) if rng.random() < 0.5 else rows)
        zs = sorted({g[-1] for rows in sides for g in rows})
        got = list(ideal_core._cuts(*sides))
        assert [(z, up) for z, up, *_ in got] == list(zip(zs, zs[1:] + [None]))
        for z, _, *cuts in got:
            assert cuts == [brute_minimal([g[:-1] for g in rows if g[-1] <= z]) for rows in sides]


def test_cuts_are_built_as_the_sweep_is_read(monkeypatch):
    # the first level costs one minimalization per side with rows there, so
    # a caller that stops early (the full break of _saturation) builds no
    # more cuts
    calls = []
    antichain = ideal_core._antichain
    monkeypatch.setattr(ideal_core, "_antichain", lambda rows: calls.append(1) or antichain(rows))
    outer = ((0, 2, 0), (1, 0, 1), (2, 0, 0), (0, 1, 3))
    inner = ((0, 3, 1), (1, 1, 2), (3, 0, 2))
    sweep = ideal_core._cuts(outer, inner)
    assert calls == []
    assert next(sweep) == (0, 1, ((0, 2), (2, 0)), ())
    assert len(calls) == 1
    assert next(sweep) == (1, 2, ((0, 2), (1, 0)), ((0, 3),))
    assert len(calls) == 3


def test_every_level_sweep_is_the_one_cut_sweep(monkeypatch):
    # minimalization above three variables, saturation, lengths and the
    # region counts and tilings of cohomology all walk ideal_core._cuts;
    # cohomology keeps no sweep of its own
    from epsmult import cohomology
    assert not hasattr(cohomology, "_cuts")
    I = ideal(3, (1, 1, 0), (0, 1, 1), (2, 0, 1)).power(3)
    sat = I.saturate()
    calls = []
    cuts = ideal_core._cuts
    monkeypatch.setattr(ideal_core, "_cuts", lambda *sides: calls.append(len(sides)) or cuts(*sides))
    routes = [
        lambda: ideal(4, (2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 0), (2, 1, 0, 3)),
        I.saturate,
        lambda: cohomology.h0_length(I),
        lambda: cohomology._between(sat.gens, I.gens),
        lambda: cohomology._slabs(sat.gens, I.gens),
    ]
    for route, sides in zip(routes, (1, 1, 1, 2, 2)):
        calls.clear()
        route()
        assert sides in calls
    calls.clear()
    assert ideal(3, (1, 2, 3)).gens == ((1, 2, 3),) and calls == []  # d = 3 is one pass


def test_saturation_sweep_matches_the_colon_intersection(rng):
    # the slice sweep of saturate against reduce(py_lcm, py_colon) where its
    # recursion goes deep (d = 5, 6), where slices have many generators
    # (powers) and past the int64 bound
    for k in range(120):
        d = 5 + k % 2
        hi = rng.choice((2, 4, 9))
        check_against_python(d, random_gens(rng, d, hi, 1), random_gens(rng, d, hi, 0))
    for base, powers in ((CLIFF_BASE, (*range(1, 9), 13, 21, 30, 40)), (D4_BASE, range(1, 7))):
        d = len(base)
        for n in powers:
            check_against_python(d, ideal(d, *base).power(n).gens, [])
    big = [tuple(e << 33 for e in g) for g in ideal(4, *D4_BASE).power(3).gens]
    check_against_python(4, big, random_gens(rng, 4, 3, 0))


def test_d3_antichain_is_one_sweep(monkeypatch):
    # the d = 3 staircase sweep makes no call one variable down; a level sweep
    # would call itself once per distinct last exponent (here 7)
    calls = []
    antichain = ideal_core._antichain
    monkeypatch.setattr(ideal_core, "_antichain", lambda rows: calls.append(len(rows)) or antichain(rows))
    rows = [(x, y, z) for x in range(4) for y in range(4) for z in range(7) if x + y + z >= 5]
    got = ideal_core._antichain(rows)
    assert len({g[2] for g in rows}) == 7
    assert calls == [len(rows)]
    assert got == brute_minimal(rows)


def test_d3_antichain_matches_brute_minimal():
    # the d = 3 sweep against the pairwise oracle: rows sharing y or z,
    # duplicates, single and all-equal rows, STRADDLE coordinates, d = 4..6
    # rows whose level sweep ends in it, and one large product
    rng = random.Random(20261020)

    def check(rows):
        assert _antichain(rows) == brute_minimal(rows)

    for k in range(600):
        d = 3 if k < 400 else 4 + k % 3
        pool = STRADDLE if k % 5 == 0 else range(rng.choice((3, 6, 12)))
        rows = [tuple(rng.choice(pool) for _ in range(d)) for _ in range(rng.randint(1, 40))]
        check(rows)
        check(rows + rng.sample(rows, len(rows) // 2))
    for k in range(100):
        pool = STRADDLE if k % 2 else range(10)
        x, y, z = (rng.choice(pool) for _ in range(3))
        check([(rng.choice(pool), y, rng.choice(pool)) for _ in range(rng.randint(2, 30))])
        check([(rng.choice(pool), rng.choice(pool), z) for _ in range(rng.randint(2, 30))])
        check([(x, y, rng.choice(pool)) for _ in range(rng.randint(2, 30))])
        check([(x, y, z)])
        check([(x, y, z)] * rng.randint(2, 5))
    half = ideal(3, (1, 1, 0), (0, 1, 1), (2, 0, 1)).power(6).gens
    rows = [tuple(map(sum, zip(g, h))) for g in half for h in half]
    check(rows)
    assert _antichain(rows) == ideal(3, (1, 1, 0), (0, 1, 1), (2, 0, 1)).power(12).gens
