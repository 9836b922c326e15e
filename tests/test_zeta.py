"""Partial zeta values at negative integers, both routes, and Δ-operators.

Anchor values are classical; the two independent routes (Hurwitz-polynomial
tables vs character decomposition with generalized Bernoulli numbers) are
compared exhaustively at the working moduli.
"""

from fractions import Fraction

import pytest

from pmcong import zeta
from pmcong.cyclotomic import CyclotomicNumber, NotRational, cyclo_reduce_rational
from pmcong.dirichlet import characters_of, conductor_primitive, l_value_neg
from pmcong.exact import p_valuation
from pmcong.units import divisors, unit_group
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    FrobeniusChoice,
    LocallyConstantFn,
    scenario_level,
    zeta_level,
)
from pmcong.zeta import (
    HypothesisViolated,
    delta_of,
    delta_sum_integrality,
    delta_table,
    norm_residue,
    partial_zeta,
    partial_zeta_q_characters,
    scaled_zeta_of,
    zeta_of,
)


LV63 = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)


def test_riemann_zeta_at_negative_integers():
    lv = zeta_level(1, ())
    assert partial_zeta(lv, Q_SIDE, 0, 2) == Fraction(-1, 12)
    assert partial_zeta(lv, Q_SIDE, 0, 4) == Fraction(1, 120)
    assert partial_zeta(lv, Q_SIDE, 0, 1) == Fraction(-1, 2)


def test_hurwitz_anchor_mod_4():
    lv = zeta_level(4, ())
    assert partial_zeta(lv, Q_SIDE, 1, 2) == Fraction(1, 24)
    assert partial_zeta_q_characters(lv, 1, 2) == Fraction(1, 24)
    # the two classes rebuild zeta minus its 2-Euler factor
    total = partial_zeta(lv, Q_SIDE, 1, 2) + partial_zeta(lv, Q_SIDE, 3, 2)
    assert total == Fraction(-1, 12) * (1 - 2)


def test_classes_sum_to_depleted_zeta_mod_63():
    total = sum(partial_zeta(LV63, Q_SIDE, x, 2) for x in LV63.classes(Q_SIDE))
    assert total == Fraction(-1, 12) * (1 - 3) * (1 - 7) == -1


def test_dual_route_exhaustive_63_and_189():
    for lv in (LV63, LV189):
        for k in (1, 2, 3, 4):
            for x in lv.classes(Q_SIDE):
                assert partial_zeta(lv, Q_SIDE, x, k) == partial_zeta_q_characters(
                    lv, x, k
                ), (lv.modulus, x, k)


def test_dual_route_exhaustive_567():
    """Ambient order 54: 324 characters mod 567 = 81·7."""
    lv = scenario_level(3, 7, (3, 7), 4)
    assert characters_of(lv.modulus)[0].ambient_order == 54
    for k in (2, 4):
        for x in lv.classes(Q_SIDE):
            assert partial_zeta(lv, Q_SIDE, x, k) == partial_zeta_q_characters(
                lv, x, k
            ), (x, k)


@pytest.fixture
def fresh_zeta_caches():
    caches = (zeta._l_value, zeta._q_table_characters, zeta._l_fibers, zeta._l_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_character_route_rejects_a_nonrational_sum(monkeypatch, fresh_zeta_caches):
    """An L-value off by ζ_n leaves an irrational orthogonality sum."""
    l_value = zeta._l_value
    target = characters_of(63)[5].exponents

    def perturbed(modulus, exponents, k, s_primes):
        value = l_value(modulus, exponents, k, s_primes)
        if exponents == target:
            value = value + CyclotomicNumber.root(value.order, 1)
        return value

    monkeypatch.setattr(zeta, "_l_value", perturbed)
    with pytest.raises(NotRational):
        partial_zeta_q_characters(LV63, 1, 2)


def test_extension_table_checks_fiber_sizes(monkeypatch, fresh_zeta_caches):
    """A character family with one member missing cannot be split into
    fibers of equal size over H; the check holds under ``python -O``."""
    full = zeta.characters_of
    monkeypatch.setattr(zeta, "characters_of", lambda modulus: full(modulus)[:-1])
    with pytest.raises(ArithmeticError, match="fibers"):
        partial_zeta(LV63, L_SIDE, 1, 2)


def test_extension_fibers_are_split_once_per_level(fresh_zeta_caches):
    """The grouping of the characters over H does not depend on k."""
    for k in (1, 2, 4):
        partial_zeta(LV63, L_SIDE, 1, k)
    info = zeta._l_fibers.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    fibers = zeta._l_fibers(LV63)
    assert sorted(chi.exponents for members in fibers for chi in members) == sorted(
        chi.exponents for chi in characters_of(63)
    )
    assert {len(members) for members in fibers} == {len(characters_of(63)) // len(LV63.h_classes)}


@pytest.mark.parametrize("modulus, orbits", [(63, 20), (189, 32)])
def test_orbit_l_values_match_the_direct_route(modulus, orbits):
    """σ_a of the orbit representative's L-value is the L-value of ρ^a."""
    group = unit_group(modulus)
    representatives = set()
    for chi in characters_of(modulus):
        rep, a = zeta._orbit_representative(modulus, chi.exponents)
        assert tuple(a * e % o for e, o in zip(rep, group.orders)) == chi.exponents
        representatives.add(rep)
        for k in (1, 2, 4):
            assert zeta._l_value(modulus, chi.exponents, k, (3, 7)) == l_value_neg(chi, k, (3, 7))
    assert len(representatives) == orbits


def test_distribution_compatibility_189_to_63():
    for k in (1, 2, 4):
        for x in LV63.classes(Q_SIDE):
            fiber = [y for y in LV189.classes(Q_SIDE) if y % 63 == x]
            assert len(fiber) == 3
            total = sum(partial_zeta(LV189, Q_SIDE, y, k) for y in fiber)
            assert total == partial_zeta(LV63, Q_SIDE, x, k)


def test_extension_side_sums_to_depleted_dedekind_value():
    lv = zeta_level(7, (7,), p=3, conductor=7)
    values = [partial_zeta(lv, L_SIDE, h, 2) for h in lv.h_classes]
    assert values == [Fraction(1, 7), Fraction(1, 7)]
    # independent product oracle over the character family
    product = None
    for chi in characters_of(7, trivial_on=(1, 6)):
        factor = l_value_neg(chi, 2, (7,))
        product = factor if product is None else product * factor
    assert sum(values) == cyclo_reduce_rational(product) == Fraction(2, 7)


def test_dedekind_value_without_depletion():
    product = None
    for chi in characters_of(7, trivial_on=(1, 6)):
        factor = l_value_neg(chi, 2)
        product = factor if product is None else product * factor
    assert cyclo_reduce_rational(product) == Fraction(-1, 21)


def test_extension_side_at_the_scenario_level():
    # the H-classes mod 63 rebuild the same S-depleted Dedekind value
    total = sum(partial_zeta(LV63, L_SIDE, h, 2) for h in LV63.h_classes)
    product = None
    for chi in characters_of(63, trivial_on=LV63.h_classes):
        factor = l_value_neg(chi, 2, (3, 7))
        product = factor if product is None else product * factor
    assert total == cyclo_reduce_rational(product)


def test_zeta_of_is_linear_in_eps():
    eps_a = LocallyConstantFn.delta_fn(LV63, Q_SIDE, 5)
    eps_b = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(3, 2))
    combined = eps_a + eps_b.scale(Fraction(-2, 7))
    got = zeta_of(LV63, Q_SIDE, combined, 2)
    expected = zeta_of(LV63, Q_SIDE, eps_a, 2) + Fraction(-2, 7) * zeta_of(
        LV63, Q_SIDE, eps_b, 2
    )
    assert got == expected


def test_scaled_zeta_normalization():
    eps_q = LocallyConstantFn.constant_fn(LV63, Q_SIDE, 1)
    assert scaled_zeta_of(LV63, Q_SIDE, eps_q, 2) == zeta_of(
        LV63, Q_SIDE, eps_q, 2
    ) / 2
    eps_l = LocallyConstantFn.constant_fn(LV63, L_SIDE, 1)
    assert scaled_zeta_of(LV63, L_SIDE, eps_l, 2) == zeta_of(
        LV63, L_SIDE, eps_l, 2
    ) / 8


def test_delta_at_trivial_pick_vanishes():
    one = FrobeniusChoice(LV63, 1)
    for k in (1, 2, 3):
        for x in LV63.classes(Q_SIDE):
            eps = LocallyConstantFn.delta_fn(LV63, Q_SIDE, x)
            assert delta_of(LV63, Q_SIDE, one, eps, k) == 0


def test_delta_table_matches_delta_of():
    g = FrobeniusChoice(LV63, 2)
    for side in (Q_SIDE, L_SIDE):
        pick = g if side == Q_SIDE else g.transfer()
        table = delta_table(LV63, side, pick, 2)
        assert set(table) == set(LV63.classes(side))
        for x in LV63.classes(side):
            eps = LocallyConstantFn.delta_fn(LV63, side, x)
            assert table[x] == delta_of(LV63, side, pick, eps, 2)


def test_delta_values_are_p_integral_everywhere():
    # partial zetas have denominators; the smoothing kills them at p = 3
    for lv in (LV63, LV189):
        for n in (2, 5):
            g = FrobeniusChoice(lv, n)
            for k in (1, 2, 4):
                for value in delta_table(lv, Q_SIDE, g, k).values():
                    assert p_valuation(value, 3) >= 0
                h = g.transfer()
                for value in delta_table(lv, L_SIDE, h, k).values():
                    assert p_valuation(value, 3) >= 0


def test_extension_delta_needs_subgroup_pick():
    outside = FrobeniusChoice(LV63, 2)  # 2 mod 7 is not a norm class
    eps = LocallyConstantFn.constant_fn(LV63, L_SIDE, 1)
    with pytest.raises(ValueError):
        delta_of(LV63, L_SIDE, outside, eps, 2)


def test_norm_residue_range_and_value():
    for x in LV63.classes(Q_SIDE):
        r = norm_residue(LV63, x)
        assert 1 <= r <= 9
        assert (r - x) % 9 == 0
    assert norm_residue(LV63, 62) == norm_residue(LV63, 62 % 9 + 63)


def test_twisted_sum_integrality_on_indicators():
    g = FrobeniusChoice(LV63, 2)
    for x in LV63.classes(Q_SIDE):
        eps_by_k = {
            k: LocallyConstantFn.delta_fn(LV63, Q_SIDE, x) for k in (2, 4)
        }
        assert delta_sum_integrality(LV63, Q_SIDE, g, eps_by_k) >= 0


def test_twisted_sum_detects_violations():
    g = FrobeniusChoice(LV63, 2)
    shallow = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 3))
    with pytest.raises(HypothesisViolated):
        delta_sum_integrality(LV63, Q_SIDE, g, {1: shallow})
    too_deep = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 3**5))
    with pytest.raises(HypothesisViolated):
        delta_sum_integrality(LV63, Q_SIDE, g, {2: too_deep})


def test_twisted_sum_rejects_a_level_without_p():
    level = zeta_level(63, (3, 7))
    g = FrobeniusChoice(level, 2)
    eps = LocallyConstantFn.delta_fn(level, Q_SIDE, 1)
    with pytest.raises(ValueError, match="scenario level"):
        delta_sum_integrality(level, Q_SIDE, g, {2: eps})


def test_twisted_pair_can_cancel_to_integral():
    # eps_2 = -n_tilde(x)^2 * eps_4 pointwise makes the twisted sum vanish while
    # each summand alone fails; the combined Delta-sum must then be integral
    g = FrobeniusChoice(LV63, 2)
    third = Fraction(1, 3)
    eps_4 = LocallyConstantFn.constant_fn(LV63, Q_SIDE, third)
    eps_2_values = {
        x: -third * norm_residue(LV63, x) ** 2 for x in LV63.classes(Q_SIDE)
    }
    eps_2 = LocallyConstantFn.from_table(LV63, Q_SIDE, eps_2_values)
    v = delta_sum_integrality(LV63, Q_SIDE, g, {2: eps_2, 4: eps_4})
    assert v >= 0


def test_twisted_sum_names_the_failing_class_inside_the_support():
    # at class 10 the k = 2 and k = 4 terms cancel; class 20 lies in the
    # support of ε_4 only, so the check must walk the union of the supports
    g = FrobeniusChoice(LV63, 2)
    third = Fraction(1, 3)
    n10 = norm_residue(LV63, 10)
    eps_2 = LocallyConstantFn.delta_fn(LV63, Q_SIDE, 10).scale(-third * n10**2)
    eps_4 = LocallyConstantFn.from_table(
        LV63, Q_SIDE, {x: third if x in (10, 20) else 0 for x in LV63.classes(Q_SIDE)}
    )
    with pytest.raises(HypothesisViolated, match="class 20 is not"):
        delta_sum_integrality(LV63, Q_SIDE, g, {2: eps_2, 4: eps_4})
    # without class 20 the same pair passes
    eps_4 = LocallyConstantFn.delta_fn(LV63, Q_SIDE, 10).scale(third)
    assert delta_sum_integrality(LV63, Q_SIDE, g, {2: eps_2, 4: eps_4}) >= 0


@pytest.mark.parametrize("modulus", [63, 189, 567])
def test_per_class_discrete_logs_match_exponent_at(modulus):
    """The orthogonality table and the primitive cores read χ(x) from one
    discrete log per class; every value must equal chi.exponent_at."""
    group = unit_group(modulus)
    chars = characters_of(modulus)
    for chi in chars:
        exps = {x: chi.exponent_at(x) for x in group.elements}
        conductor = next(
            d
            for d in divisors(modulus)
            if all(t == 0 for x, t in exps.items() if x % d == 1 % d)
        )
        prim = conductor_primitive(chi)
        assert prim.conductor == conductor
        # χ*(x mod d) = χ(x), and reduction mod d hits every unit class mod d
        assert all(prim.exponent_at(x) == t for x, t in exps.items())
    # Σ_χ χ(x)⁻¹·χ(x0) / |G| is the indicator of x0 exactly when every χ(x) is right
    for x0 in (group.elements[1], group.elements[-1]):
        terms = [(chi, 1, chi.value(x0)) for chi in chars]
        table = zeta._orthogonality_table(group.exponent, terms, group.elements, len(chars))
        assert table == {x: Fraction(int(x == x0)) for x in group.elements}
