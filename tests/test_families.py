import hashlib
import itertools
import json
import math
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmult import families, repro
from epsmult.cohomology import h0_length
from epsmult.errors import ParseError, PreconditionError, ZeroIdealError
from epsmult.families import (CounterRule, FamilySpec, HyperbolaRule,
                              LimitRecursiveRule, NoetherianSeedsRule, PowerRule,
                              ProductGridRule, SqrtPrincipalRule, TableRule,
                              check_structure, eval_family, family_from_json,
                              family_to_json, generation_degree, growth_constants,
                              product_grid_family)
from epsmult.ideal_core import MonomialIdeal
from epsmult.repro import limit_trend, random_ideal

from conftest import brute_rung

COUNTER = FamilySpec(2, CounterRule("n^2"))
LIMIT = FamilySpec(2, LimitRecursiveRule())
POWER = FamilySpec(2, PowerRule(((1, 2), (2, 0))))


class TestEval:
    def test_counter(self):
        assert eval_family(COUNTER, 3).gens == ((1, 9), (2, 0))

    def test_counter_two_to_the_n(self):
        # the README's 2^n formula
        spec = family_from_json({"type": "counter", "a": "2^n"})
        assert eval_family(spec, 5).gens == ((1, 32), (2, 0))

    def test_counter_explicit_list(self):
        spec = FamilySpec(2, CounterRule((5, 7, 11)))
        assert eval_family(spec, 2).gens == ((1, 7), (2, 0))
        with pytest.raises(PreconditionError):
            eval_family(spec, 4)

    def test_hyperbola_lower(self):
        assert eval_family(FamilySpec(2, HyperbolaRule("lower")), 2).gens == ((1, 4), (2, 2))

    def test_hyperbola_membership_predicate(self):
        # J_n is generated by the points with ab >= n^2 and b >= n
        for n in (1, 2, 3, 5):
            J = eval_family(FamilySpec(2, HyperbolaRule("lower")), n)
            for a in range(0, 2 * n * n + 1):
                for b in range(0, 2 * n * n + 1):
                    predicate = a * b >= n * n and b >= n
                    assert J.contains((a, b)) == predicate, (n, a, b)

    def test_hyperbola_sum_closed_description(self):
        for n in (2, 3, 4):
            got = eval_family(FamilySpec(2, HyperbolaRule("sum")), n)
            explicit = MonomialIdeal.from_gens(
                2, [(a, -(-n * n // a)) for a in range(1, n * n + 1)])
            assert got == explicit

    def test_limit_recursive(self):
        assert eval_family(LIMIT, 1).gens == ((1, 1),)
        assert eval_family(LIMIT, 2).gens == ((1, 4), (2, 2), (4, 1))
        assert eval_family(LIMIT, 3).gens == ((1, 9), (2, 5), (3, 3), (5, 2), (9, 1))

    def test_sqrt_principal(self):
        spec = FamilySpec(1, SqrtPrincipalRule(2))
        assert eval_family(spec, 5).gens == ((8,),)
        for n in range(1, 50):
            m = eval_family(spec, n).gens[0][0]
            # m = ceil(n sqrt 2): certified by squaring
            assert (m - 1) ** 2 < 2 * n * n < m ** 2
        with pytest.raises(PreconditionError):
            SqrtPrincipalRule(4)

    def test_noetherian_seeds(self):
        spec = FamilySpec(2, NoetherianSeedsRule(((1, ((1, 0),)), (2, ((1, 0), (0, 2))))))
        assert eval_family(spec, 2).gens == ((0, 2), (1, 0))
        assert eval_family(spec, 3).gens == ((1, 2), (2, 0))

    def test_noetherian_gap_gives_zero_ideal(self):
        spec = FamilySpec(1, NoetherianSeedsRule(((2, ((1,),)),)))
        assert eval_family(spec, 1).is_zero
        assert eval_family(spec, 2).gens == ((1,),)

    def test_index_zero_is_unit_for_every_rule(self):
        specs = [COUNTER, LIMIT, POWER,
                 FamilySpec(2, HyperbolaRule("sum")),
                 FamilySpec(1, SqrtPrincipalRule(3)),
                 FamilySpec(2, NoetherianSeedsRule(((1, ((1, 0),)),))),
                 FamilySpec(1, TableRule((((0,),), ((2,),))))]
        for spec in specs:
            assert eval_family(spec, 0).is_unit

    def test_table_rule(self):
        spec = FamilySpec(1, TableRule((((0,),), ((1,),), ((3,),))))
        assert eval_family(spec, 2).gens == ((3,),)
        with pytest.raises(PreconditionError):
            eval_family(spec, 3)
        with pytest.raises(PreconditionError):
            FamilySpec(1, TableRule((((1,),),)))  # I_0 != R

    def test_product_grid(self):
        I = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])
        spec = product_grid_family([I, I])
        assert eval_family(spec, (1, 1)) == I.power(2)
        assert eval_family(spec, (0, 0)).is_unit
        with pytest.raises(PreconditionError):
            eval_family(spec, 3)
        with pytest.raises(PreconditionError):
            eval_family(spec, (1, 2, 3))

    def test_negative_index_rejected(self):
        with pytest.raises(PreconditionError):
            eval_family(POWER, -1)

    @pytest.mark.parametrize("spec, index", [
        (POWER, 1.5), (POWER, True), (POWER, (2.0,)), (LIMIT, 3.0), (COUNTER, "2"),
        (product_grid_family([MonomialIdeal.from_gens(2, [(1, 0)])] * 2), (1.7, 2.2)),
        (product_grid_family([MonomialIdeal.from_gens(2, [(1, 0)])] * 2), (True, 1)),
    ])
    def test_non_integer_index_rejected(self, spec, index):
        # a bool or a non-int index is refused, not truncated to an entry
        with pytest.raises(PreconditionError, match="family indices must be integers"):
            eval_family(spec, index)

    GRID = product_grid_family([MonomialIdeal.from_gens(2, [(1, 0)]),
                                MonomialIdeal.from_gens(2, [(0, 1)])])

    @pytest.mark.parametrize("call, message", [
        (lambda: FamilySpec(3, CounterRule("n^2")), "a counter family lives in d = 2, not d = 3"),
        (lambda: FamilySpec(2, SqrtPrincipalRule(2)), "a sqrt family lives in d = 1, not d = 2"),
        (lambda: FamilySpec(2, TableRule(())), "table family needs at least I_0"),
        (lambda: product_grid_family([]), "product grid needs at least one factor"),
        (lambda: product_grid_family([MonomialIdeal.from_gens(2, [(1, 0)]),
                                      MonomialIdeal.from_gens(3, [(1, 0, 0)])]),
         "product grid factors must share the ambient ring"),
        (lambda: eval_family(TestEval.GRID, (1,)), "product grid index must be a 2-tuple"),
        (lambda: eval_family(TestEval.GRID, (1, -1)), "family indices must be non-negative"),
        (lambda: eval_family(POWER, (1, 2)), "this family is singly indexed"),
        (lambda: eval_family(FamilySpec(2, CounterRule("n^4")), 1),
         "unknown counter formula 'n^4'"),
        (lambda: HyperbolaRule("middle"), "unknown hyperbola variant 'middle'"),
        (lambda: growth_constants(POWER, 0), "growth constants need n >= 1"),
        (lambda: growth_constants(FamilySpec(2, TableRule((((0, 0),), ((0, 0),)))), 1),
         "I_1 is the unit ideal"),
        (lambda: SqrtPrincipalRule(2.5), "k must be an integer, got 2.5"),
        (lambda: SqrtPrincipalRule("2"), "k must be an integer, got '2'"),
        (lambda: growth_constants(POWER, "3"), "n must be an integer, got '3'"),
        (lambda: NoetherianSeedsRule(((1, ((1, 0),)), (1, ((0, 1),)))),
         "two noetherian seeds share a degree"),
        (lambda: FamilySpec(2, "n^2"), "unknown family rule 'n^2'"),
        (lambda: check_structure(TestEval.GRID, 3),
         "structure checks apply to singly indexed families"),
        (lambda: generation_degree(TestEval.GRID, 2, 2),
         "generation degree applies to singly indexed families"),
    ])
    def test_outside_the_domain_rejected(self, call, message):
        with pytest.raises(PreconditionError) as info:
            call()
        assert type(info.value) is PreconditionError and str(info.value) == message

    @pytest.mark.parametrize("degree", [0, -1])
    def test_library_seed_degree_below_one_rejected(self, degree):
        # the ladder used to raise a raw IndexError for these seeds
        with pytest.raises(PreconditionError, match="^a noetherian seed needs degree >= 1$"):
            eval_family(FamilySpec(2, NoetherianSeedsRule(((degree, ((1, 0),)), (2, ((0, 1),))))), 2)

    def test_library_product_grid_without_factors_rejected(self):
        # its one index () used to give R
        with pytest.raises(PreconditionError, match="^product grid needs at least one factor$"):
            FamilySpec(2, ProductGridRule(()))

    def test_growth_of_a_zero_ideal_rejected(self):
        gap = FamilySpec(2, NoetherianSeedsRule(((2, ((1, 0),)),)))
        with pytest.raises(ZeroIdealError):
            growth_constants(gap, 1)

    def test_memoized_evaluation_is_stable(self):
        # a shared memo hands back the same object; without one every call
        # builds its own, so no state outlives a call
        spec = LADDERS["seeds-1-2"][0]
        memo = {}
        assert eval_family(spec, 6, memo) is eval_family(spec, 6, memo)
        a, b = eval_family(spec, 6), eval_family(spec, 6)
        assert a == b and a is not b

    def test_deep_power_and_grid_indices(self):
        # powers and product-grid entries fill bottom-up, with no recursion
        # per power
        I = MonomialIdeal.from_gens(2, [(1, 0), (0, 1)])
        big = I.power(2000)
        assert eval_family(FamilySpec(2, PowerRule(I.gens)), 2000) == big
        J = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])
        assert eval_family(product_grid_family([I, J]), (2000, 1)) == big.multiply(J)


class TestCheckStructure:
    def test_counter_graded(self):
        assert check_structure(COUNTER, 20, "graded").passed

    def test_limit_filtration(self):
        assert check_structure(LIMIT, 15, "filtration").passed

    def test_table_counterexample(self):
        spec = FamilySpec(1, TableRule((((0,),), ((1,),), ((3,),))))
        report = check_structure(spec, 2, "graded")
        assert not report.passed
        assert report.violation == {"kind": "product", "pair": (1, 1)}

    def test_descending_chain_violation(self):
        spec = FamilySpec(1, TableRule((((0,),), ((2,),), ((1,),), ((3,),))))
        report = check_structure(spec, 3, "filtration")
        assert not report.passed
        assert report.violation == {"kind": "chain", "index": 2}

    def test_bad_args(self):
        with pytest.raises(PreconditionError):
            check_structure(COUNTER, 1, "graded")
        with pytest.raises(PreconditionError):
            check_structure(COUNTER, 5, "descending")

    @pytest.mark.parametrize("upto", [3.5, True, "3"])
    def test_non_integer_n_rejected(self, upto):
        with pytest.raises(PreconditionError) as info:
            check_structure(COUNTER, upto)
        assert str(info.value) == f"N must be an integer, got {upto!r}"


class TestGenerationDegree:
    def test_power_is_one(self):
        assert generation_degree(POWER, 4, 3) == 1

    def test_counter_has_none(self):
        assert generation_degree(COUNTER, 4, 3) is None

    def test_noetherian_seeds(self):
        spec = FamilySpec(2, NoetherianSeedsRule(((1, ((1, 0),)), (2, ((1, 0), (0, 2))))))
        assert generation_degree(spec, 4, 4) == 2

    @pytest.mark.parametrize("a_max, window", [(0, 2), (1, 1)])
    def test_bad_args(self, a_max, window):
        with pytest.raises(PreconditionError) as info:
            generation_degree(POWER, a_max, window)
        assert str(info.value) == "need a_max >= 1 and window >= 2"

    @pytest.mark.parametrize("a_max, window, message", [
        (2.5, 3, "a_max must be an integer, got 2.5"),
        (True, 3, "a_max must be an integer, got True"),
        (2, 3.0, "window must be an integer, got 3.0"),
        (2, "3", "window must be an integer, got '3'"),
    ])
    def test_non_integer_args_rejected(self, a_max, window, message):
        with pytest.raises(PreconditionError) as info:
            generation_degree(POWER, a_max, window)
        assert str(info.value) == message

    def test_each_power_is_built_once(self, monkeypatch):
        # seeds x in degree 1 and y in degree 3: a = 3 is the first that
        # generates; rebuilding I_a^(n-1) from R for each residue took 112
        # products here, one running power per a takes 31
        spec = family_from_json({"type": "noetherian", "seeds": {"1": [[1, 0]], "3": [[0, 1]]}})
        calls = []
        multiply = MonomialIdeal.multiply
        monkeypatch.setattr(MonomialIdeal, "multiply",
                            lambda self, other: calls.append(1) or multiply(self, other))
        assert generation_degree(spec, 4, 8) == 3
        assert len(calls) == 31

    def test_window_past_the_table(self):
        # a = 1 asks for I_2, which the table does not have, so it is skipped
        spec = FamilySpec(2, TableRule((((0, 0),), ((1, 0),))))
        assert generation_degree(spec, 1, 2) is None


class TestGrowthConstants:
    def test_power_example(self):
        report = growth_constants(POWER, 5)
        assert report.max_socle_degree == 14
        assert report.minimal_c_linear == 3

    def test_counter_example(self):
        report = growth_constants(COUNTER, 6)
        assert report.max_socle_degree == 36
        assert report.minimal_c_linear == 7
        assert report.minimal_c_quadratic == 2

    def test_saturated_family(self):
        spec = FamilySpec(2, PowerRule(((1, 0),)))
        report = growth_constants(spec, 4)
        assert report.max_socle_degree == 0 and report.minimal_c_linear == 1

    def test_power_constants_stay_bounded(self):
        # Noetherian linear growth: socle degrees of I^n grow at most linearly
        gens = ((1, 3), (3, 1))
        bound = max(sum(g) for g in gens) + 1
        spec = FamilySpec(2, PowerRule(gens))
        for n in range(2, 21):
            assert growth_constants(spec, n).minimal_c_linear <= bound


class TestSandwich:
    def test_small_indices(self):
        from epsmult.repro import lower_family_ideal
        xy = MonomialIdeal.from_gens(2, [(1, 1)])
        for n in (2, 3, 4, 5, 6):
            lower = lower_family_ideal(n)
            mid = eval_family(LIMIT, n)
            upper = eval_family(FamilySpec(2, HyperbolaRule("sum")), n)
            assert lower.is_subset(mid)
            assert mid.is_subset(upper)
            assert lower.saturate() == mid.saturate() == upper.saturate() == xy


class TestJson:
    def test_roundtrip_all_rules(self):
        specs = [
            POWER, COUNTER, LIMIT,
            FamilySpec(2, CounterRule((1, 4, 9))),
            FamilySpec(2, HyperbolaRule("upper")),
            FamilySpec(1, SqrtPrincipalRule(5)),
            FamilySpec(2, NoetherianSeedsRule(((1, ((1, 0),)), (2, ((0, 2),))))),
            FamilySpec(2, NoetherianSeedsRule(((2, ((1, 0),)), (10, ((0, 2),))))),
            FamilySpec(2, NoetherianSeedsRule(((1, ((1, 0), (0, 1))),))),
            FamilySpec(2, PowerRule(())),
            FamilySpec(2, CounterRule(())),
            FamilySpec(1, TableRule((((0,),), ((2,),)))),
        ]
        for spec in specs:
            assert family_from_json(family_to_json(spec)) == spec

    def test_seed_degrees_are_read_once_in_plain_decimal(self):
        # "01" used to read as degree 1 beside "1", so the run used I_1 = (x, y)
        # while the printed spec kept only one of the two seeds
        for key in ("01", " 2", "1_0", "+1", "1.0"):
            with pytest.raises(ParseError, match="is not a plain decimal >= 1"):
                family_from_json({"type": "noetherian", "seeds": {key: [[1, 0]], "1": [[0, 1]]}})
        spec = family_from_json({"type": "noetherian", "seeds": {"1": [[1, 0], [0, 1]]}})
        assert family_to_json(spec)["rule"]["seeds"] == {"1": [[1, 0], [0, 1]]}
        # a Python dict may also carry int keys; one degree twice is refused
        assert family_from_json({"type": "noetherian", "seeds": {10: [[1, 0]]}}) \
            == FamilySpec(2, NoetherianSeedsRule(((10, ((1, 0),)),)))
        with pytest.raises(PreconditionError, match="two noetherian seeds share a degree"):
            family_from_json({"type": "noetherian", "seeds": {1: [[1, 0]], "1": [[0, 1]]}})

    def test_printed_seed_keys_sort_as_text(self):
        spec = FamilySpec(2, NoetherianSeedsRule(((2, ((1, 0),)), (10, ((0, 2),)))))
        assert json.dumps(family_to_json(spec), sort_keys=True) == (
            '{"d": 2, "rule": {"seeds": {"10": [[0, 2]], "2": [[1, 0]]}, "type": "noetherian"}}')

    def test_flat_and_nested_forms(self):
        nested = family_from_json({"d": 2, "rule": {"type": "counter", "a": "n^2"}})
        flat = family_from_json({"type": "counter", "a": "n^2"})
        assert nested == flat == COUNTER

    def test_bad_specs(self):
        with pytest.raises(ParseError):
            family_from_json({"type": "nonsense"})
        with pytest.raises(ParseError):
            family_from_json({"type": "sqrt"})
        with pytest.raises(ParseError):
            family_from_json("not json {")

    @pytest.mark.parametrize("spec", [
        {"d": 0, "rule": {"type": "power", "ideal": [[1, 2]]}},
        {"d": 2.0, "rule": {"type": "power", "ideal": [[1, 2]]}},
        {"d": 0, "rule": {"type": "power", "ideal": [[1.7, 2]]}},
        {"rule": {"type": "power", "ideal": [[1.7, 2]]}},
        {"rule": {"type": "power", "ideal": [[True, 2]]}},
        {"rule": {"type": "counter", "a": [1, 4.0]}},
        {"rule": {"type": "sqrt", "k": 2.5}},
        {"rule": {"type": "noetherian", "seeds": {"1": [[1, 0.5]]}}},
        {"rule": {"type": "product_grid", "ideals": [[[1, 0]], [[0, False]]]}},
        {"rule": {"type": "table", "ideals": [[[1.0]]]}},
        {"rule": 5},
        "[1]",
        {"rule": {"type": "power", "ideal": []}},
        {"rule": {"type": "noetherian", "seeds": {}}},
        {"rule": {"type": "noetherian", "seeds": [[1, 0]]}},
        {"d": 2, "type": "product_grid", "ideals": []},
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ParseError):
            family_from_json(spec)

    @pytest.mark.parametrize("spec", [
        {"d": 3, "rule": {"type": "power", "ideal": [[1, 2]]}},
        {"d": 1, "rule": {"type": "power", "ideal": [[1, 2], [3]]}},
        {"rule": {"type": "power", "ideal": [[1, 2], [3]]}},
        {"d": 3, "rule": {"type": "product_grid", "ideals": [[[1, 2], [2, 0]], [[0, 1], [1, 0]]]}},
        {"rule": {"type": "product_grid", "ideals": [[[1, 2], [2, 0]], [[0, 1, 1]]]}},
        {"d": 2, "rule": {"type": "noetherian", "seeds": {"1": [[1, 2]], "2": [[1, 2, 3]]}}},
        {"rule": {"type": "noetherian", "seeds": {"1": [[1, 0]], "2": [[3]]}}},
        {"d": 3, "rule": {"type": "table", "ideals": [[[0, 0]], [[1, 2]]]}},
        {"d": 2, "rule": {"type": "table", "ideals": [[[0, 0]], [[0, 1, 1]]]}},
        {"rule": {"type": "noetherian", "seeds": {"1": []}}},
        {"rule": {"type": "product_grid", "ideals": [[]]}},
    ])
    def test_generator_width_must_match_d(self, spec):
        with pytest.raises(ParseError):
            family_from_json(spec)

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_seed_degree_below_one_rejected(self, degree):
        with pytest.raises(ParseError):
            family_from_json({"rule": {"type": "noetherian",
                                       "seeds": {degree: [[1, 0]], "1": [[0, 1]]}}})

    @pytest.mark.parametrize("rule, fixed", [
        ({"type": "counter", "a": "n^2"}, 2),
        ({"type": "limit_recursive"}, 2),
        ({"type": "hyperbola", "variant": "sum"}, 2),
        ({"type": "sqrt", "k": 2}, 1),
    ])
    def test_fixed_dimension_rules_check_an_explicit_d(self, rule, fixed):
        for d in (fixed + 1, 3 - fixed):
            with pytest.raises(ParseError) as info:
                family_from_json({"d": d, "rule": rule})
            assert str(info.value) == f"a {rule['type']} family lives in d = {fixed}, not d = {d}"
        assert family_from_json({"d": fixed, "rule": rule}) == family_from_json({"rule": rule})
        assert family_from_json({"rule": rule}).d == fixed

    def test_matching_widths_accepted(self):
        assert family_from_json({"d": 2, "rule": {"type": "power", "ideal": [[1, 2]]}}).d == 2
        assert family_from_json({"rule": {"type": "product_grid",
                                          "ideals": [[[1, 0]], [[0, 3]]]}}).d == 2
        assert family_from_json({"d": 3, "rule": {"type": "table",
                                          "ideals": [[[0, 0, 0]], [[1, 0, 0]]]}}).d == 3


def _gens(d, min_size=1):
    return st.lists(st.tuples(*[st.integers(0, 10**12)] * d), min_size=min_size,
                    max_size=4).map(tuple)


@st.composite
def family_specs(draw):
    kind = draw(st.sampled_from(["power", "product_grid", "counter", "limit_recursive",
                                 "hyperbola", "sqrt", "noetherian", "table"]))
    d = draw(st.integers(1, 4))
    if kind == "power":
        return FamilySpec(d, PowerRule(draw(_gens(d, 0))))
    if kind == "product_grid":
        return FamilySpec(d, ProductGridRule(tuple(draw(st.lists(_gens(d), min_size=1,
                                                                 max_size=3)))))
    if kind == "counter":
        a = draw(st.one_of(st.sampled_from(["n^2", "n^3", "2^n"]),
                           st.lists(st.integers(0, 10**6), max_size=5).map(tuple)))
        return FamilySpec(2, CounterRule(a))
    if kind == "limit_recursive":
        return LIMIT
    if kind == "hyperbola":
        return FamilySpec(2, HyperbolaRule(draw(st.sampled_from(["lower", "upper", "sum"]))))
    if kind == "sqrt":
        k = draw(st.integers(2, 10**6).filter(lambda k: math.isqrt(k) ** 2 != k))
        return FamilySpec(1, SqrtPrincipalRule(k))
    if kind == "noetherian":
        degrees = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
        return FamilySpec(d, NoetherianSeedsRule(tuple((deg, draw(_gens(d)))
                                                       for deg in sorted(degrees))))
    rest = draw(st.lists(_gens(d), max_size=3))
    return FamilySpec(d, TableRule((((0,) * d,), *rest)))


@settings(max_examples=150, deadline=None)
@given(family_specs())
def test_family_json_roundtrip(spec):
    data = family_to_json(spec)
    assert family_from_json(data) == spec
    assert family_from_json(json.dumps(data)) == spec


def test_length_of_zero_index_rejected_downstream():
    from epsmult.asymptotics import length_table
    spec = FamilySpec(1, NoetherianSeedsRule(((2, ((1,),)),)))
    with pytest.raises(ZeroIdealError):
        length_table(spec, [1, 2])


def test_product_grid_reuses_the_shorter_grid(rng, monkeypatch):
    factors = [random_ideal(rng, 2, 3, 3) for _ in range(3)]
    n = 5
    for k in (1, 2, 3):
        spec = product_grid_family(factors[:k])
        for idx in itertools.product(range(n), repeat=k):
            plain = reduce(MonomialIdeal.multiply, [f.power(e) for f, e in zip(factors, idx)])
            assert eval_family(spec, idx) == plain
    # one fresh memo: no power is built, and every entry but R is one
    # multiply of the entry one step down by a single factor
    calls, rungs = [], []
    multiply, rung = MonomialIdeal.multiply, families.sum_of_products
    monkeypatch.setattr(MonomialIdeal, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    monkeypatch.setattr(families, "sum_of_products", lambda *args: rungs.append(1) or rung(*args))
    spec = product_grid_family(factors)
    memo = {}
    for idx in itertools.product(range(n), repeat=3):
        eval_family(spec, idx, memo)
    assert len(rungs) == 0
    assert len(calls) == n**3 - 1
    # a second pass over the grid is all memo hits
    for idx in itertools.product(range(n), repeat=3):
        eval_family(spec, idx, memo)
    assert len(calls) == n**3 - 1


def test_box_from_one_steps_outside_only_below_ones(monkeypatch):
    # an entry steps down its last index >= 2, so the [1..12]^3 table builds
    # its 1,728 entries and only (1, 0, 0) and (1, 1, 0) outside the box;
    # stepping down the last nonzero index took 1,884 products
    from epsmult.asymptotics import length_table
    calls = []
    multiply = MonomialIdeal.multiply
    monkeypatch.setattr(MonomialIdeal, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    spec = product_grid_family([MonomialIdeal.from_gens(2, g) for g in
                                ([(1, 2), (2, 0)], [(0, 3), (2, 1)], [(0, 2), (3, 1)])])
    length_table(spec, list(itertools.product(range(1, 13), repeat=3)))
    assert len(calls) == 1730


def oracle_ladder(spec, n):
    """I_0 .. I_n of a limit or Noetherian family, each rung by ``brute_rung``."""
    ladder = [((0,) * spec.d,)]
    for m in range(1, n + 1):
        if isinstance(spec.rule, LimitRecursiveRule):
            ladder.append(brute_rung([(ladder[t], ladder[m - t]) for t in range(1, m // 2 + 1)],
                                     [((1, m * m), (m * m, 1))]))
        else:
            ladder.append(brute_rung([(gens, ladder[m - deg])
                                      for deg, gens in spec.rule.seeds if deg <= m]))
    return ladder


B = 2**29 + 7
LADDERS = {
    "limit": (LIMIT, 40),
    "seeds-1-2": (FamilySpec(2, NoetherianSeedsRule(((1, ((1, 3), (2, 1), (4, 0))),
                                                    (2, ((0, 5), (3, 2), (7, 0)))))), 30),
    # seeds in degrees 3, 4, 5 only: the gaps make I_1 = I_2 = 0
    "seeds-3-4-5": (FamilySpec(2, NoetherianSeedsRule(((3, ((2, 1), (0, 4))), (4, ((5, 0), (1, 2))),
                                                      (5, ((3, 3),))))), 30),
    "d3-seeds-1-2": (FamilySpec(3, NoetherianSeedsRule(((1, ((1, 1, 0), (0, 1, 1), (2, 0, 1))),
                                                       (2, ((0, 0, 3), (1, 2, 0)))))), 12),
    # coordinates near 2^29: I_1 .. I_3 stay below 2^31, and I_4 crosses it
    # through (4 B, 0), so later rungs have a factor past 2^31
    "seeds-past-int64": (FamilySpec(2, NoetherianSeedsRule(((1, ((0, B), (B // 3, B // 3), (B, 0))),
                                                           (2, ((1, 2 * B - 5), (2 * B - 3, 2)))))), 8),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_matches_the_rung_oracle(name):
    spec, n = LADDERS[name]
    expected = oracle_ladder(spec, n)
    memo = {}
    for m in range(n + 1):
        assert eval_family(spec, m, memo).gens == expected[m], m
    for m in range(n + 1):
        assert eval_family(spec, m).gens == expected[m], m
    if name == "seeds-3-4-5":
        assert expected[1] == expected[2] == () and all(expected[3:])
    if name == "seeds-past-int64":
        assert max(map(max, expected[3])) < 2**31 <= max(map(max, expected[4]))


def test_limit_closed_form_equals_the_seeds_ladder():
    # the unrolled recursion: I_n is the sum of S_k I_(n-k) with
    # S_k = (x y^(k^2), x^(k^2) y) in each degree k, built as a seeds ladder
    seeds = FamilySpec(2, NoetherianSeedsRule(tuple((k, ((1, k * k), (k * k, 1))) for k in range(1, 101))))
    memo = {}
    for n in range(101):
        assert eval_family(LIMIT, n).gens == eval_family(seeds, n, memo).gens, n


def test_limit_rungs_form_no_product(monkeypatch):
    # each I_n is read off its closed form: no product, sum or minimalization
    for name in ("multiply", "add"):
        monkeypatch.setattr(MonomialIdeal, name, lambda *args: pytest.fail("a product was formed"))
    monkeypatch.setattr(families, "sum_of_products", lambda *args: pytest.fail("a rung was summed"))
    for n in range(1, 61):
        gens = eval_family(LIMIT, n).gens
        assert len(gens) == 2 * n - 1 and gens[n - 1] == (n, n)


def test_limit_family_to_100_is_fast():
    # rung m is read off its closed form: 2m - 1 generators from m divmods
    start = time.perf_counter()
    ideal = eval_family(LIMIT, 100)
    elapsed = time.perf_counter() - start
    assert len(ideal.gens) == 199
    assert elapsed < 1.0, f"I_100 of the limit family took {elapsed:.2f} s"


def test_limit_ladder_to_200_is_pinned():
    memo = {}
    ladder = json.dumps([eval_family(LIMIT, m, memo).gens for m in range(201)])
    assert hashlib.sha256(ladder.encode()).hexdigest() == (
        "cafba82418586a9139b9cb9a346356437e4243d77538b9c6bbb10f023aa53134")


def test_limit_trend_to_400_is_fast(monkeypatch):
    # the trend builds only rungs 100, 200 and 400, each from its closed
    # form, and sums their staircases
    built = {}
    monkeypatch.setattr(repro, "eval_family",
                        lambda spec, n, memo=None: built.setdefault(n, eval_family(spec, n, memo)))
    start = time.perf_counter()
    trend = limit_trend((100, 200, 400))
    elapsed = time.perf_counter() - start
    assert trend["pass"], trend
    assert len(built[400].gens) == 799
    assert elapsed < 4.0, f"the limit trend to 400 took {elapsed:.2f} s"


def test_limit_length_equals_the_rung_staircase():
    for n in (*range(200), 997, 5000):
        assert LIMIT.rule.length(n) == h0_length(eval_family(LIMIT, n)).length, n


EULER_GAMMA = 0.57721566490153286061


def test_limit_length_constant_is_4_gamma_minus_2():
    # c(n) = (l(n) - 2 n^2 ln n)/n^2 -> 4 gamma - 2, with a remainder near -1/n
    gaps = []
    for k in range(2, 10):
        n = 10**k
        gaps.append(abs(LIMIT.rule.length(n) / (n * n) - 2 * math.log(n) - (4 * EULER_GAMMA - 2)))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-8, gaps


def test_lower_family_identity():
    # "direct" is h0_length(lower_family_ideal(n)); the erratum's prediction
    # overshoots it by exactly 2(n - 1)
    rows = repro.lower_family_erratum(range(2, 81))["rows"]
    for n, row in zip(range(2, 81), rows):
        ceil_sum = sum(-(-n * n // a) for a in range(1, n + 1))
        assert row["direct"] == repro.lower_family_length(n) == 2 * ceil_sum + 2 * n * n - 8 * n + 4, n
        assert row["formula"] - row["direct"] == 2 * (n - 1), n
