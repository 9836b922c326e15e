"""Partial zeta values at negative integers, both routes, and Δ-operators.

Anchor values are classical; the two independent routes (Hurwitz-polynomial
tables vs character decomposition with generalized Bernoulli numbers) are
compared exhaustively at the working moduli.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from pmcong import zeta
from pmcong.cyclotomic import (
    CyclotomicNumber,
    NotRational,
    cyclotomic_polynomial,
)
from pmcong.dirichlet import characters_of, conductor_primitive, l_value_neg
from pmcong.exact import p_valuation
from pmcong.units import divisors, unit_group
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
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
)


LV63 = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)


def test_riemann_zeta_at_negative_integers():
    lv = zeta_level(1)
    assert partial_zeta(lv, Q_SIDE, 0, 2) == Fraction(-1, 12)
    assert partial_zeta(lv, Q_SIDE, 0, 4) == Fraction(1, 120)
    assert partial_zeta(lv, Q_SIDE, 0, 1) == Fraction(-1, 2)


def test_hurwitz_anchor_mod_4():
    lv = zeta_level(4)
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


def test_character_route_rejects_a_nonrational_sum(monkeypatch, fresh_caches):
    """One character's L-value off by ζ_n leaves an irrational orthogonality
    sum.  (Shifting an orbit representative's value would shift its whole
    orbit Galois-equivariantly, and the sum would stay rational.)"""
    l_values = zeta._l_values
    target = characters_of(63)[5].exponents

    def perturbed(modulus, k):
        values = dict(l_values(modulus, k))
        values[target] = values[target] + CyclotomicNumber.root(values[target].order, 1)
        return values

    monkeypatch.setattr(zeta, "_l_values", perturbed)
    with pytest.raises(NotRational):
        partial_zeta_q_characters(LV63, 1, 2)


def test_extension_table_checks_fiber_sizes(monkeypatch, fresh_caches):
    """A character family with one member missing cannot be split into
    fibers of equal size over H; the check holds under ``python -O``.

    Dropping the last character leaves [G : H] = 3 characters of G/H for 35
    characters, not 35 // 12 = 2; dropping a nontrivial character of G/H
    leaves 2 of them, but a fibre χ·ψ then names the missing character."""
    full = zeta.characters_of
    quotient = full(63, trivial_on=LV63.h_classes)
    for missing in (full(63)[-1], quotient[-1]):
        assert missing != quotient[0]
        fresh_caches()
        monkeypatch.setattr(
            zeta,
            "characters_of",
            lambda modulus, trivial_on=(): tuple(c for c in full(modulus, trivial_on) if c != missing),
        )
        with pytest.raises(ArithmeticError, match="fibers"):
            partial_zeta(LV63, L_SIDE, 1, 2)
    assert full(63)[-1] not in quotient


def test_extension_fibers_are_split_once_per_level(fresh_caches):
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
    chars = characters_of(modulus)
    assert len({_orbit_sweep(modulus, chi.exponents) for chi in chars}) == orbits
    for k in (1, 2, 4):
        values = zeta._l_values(modulus, k)
        assert set(values) == {chi.exponents for chi in chars}
        for chi in chars:
            assert values[chi.exponents] == l_value_neg(chi, k, (3, 7))


@pytest.mark.parametrize("level, orbits", [(LV63, 20), (LV189, 32)], ids=["63", "189"])
def test_l_value_neg_runs_once_per_galois_orbit_and_weight(monkeypatch, fresh_caches, level, orbits):
    """Both character routes read one L-value table per (modulus, k), and it
    calls `l_value_neg` on the least character of each Galois orbit only."""
    calls = []

    def counted(chi, k, s_primes=()):
        calls.append((chi.exponents, k))
        return l_value_neg(chi, k, s_primes)

    monkeypatch.setattr(zeta, "l_value_neg", counted)
    for k in (2, 4):
        partial_zeta_q_characters(level, 1, k)
        partial_zeta(level, L_SIDE, 1, k)
    representatives = {_orbit_sweep(level.modulus, chi.exponents) for chi in characters_of(level.modulus)}
    assert len(representatives) == orbits
    assert sorted(calls) == sorted((rep, k) for rep in representatives for k in (2, 4))


def test_distribution_compatibility_189_to_63():
    for k in (1, 2, 4):
        for x in LV63.classes(Q_SIDE):
            fiber = [y for y in LV189.classes(Q_SIDE) if y % 63 == x]
            assert len(fiber) == 3
            total = sum(partial_zeta(LV189, Q_SIDE, y, k) for y in fiber)
            assert total == partial_zeta(LV63, Q_SIDE, x, k)


def test_extension_side_sums_to_depleted_dedekind_value():
    lv = zeta_level(7, p=3, conductor=7)
    values = [partial_zeta(lv, L_SIDE, h, 2) for h in lv.h_classes]
    assert values == [Fraction(1, 7), Fraction(1, 7)]
    # independent product oracle over the character family
    product = None
    for chi in characters_of(7, trivial_on=(1, 6)):
        factor = l_value_neg(chi, 2, (7,))
        product = factor if product is None else product * factor
    assert sum(values) == product.rational_part() == Fraction(2, 7)


def test_dedekind_value_without_depletion():
    product = None
    for chi in characters_of(7, trivial_on=(1, 6)):
        factor = l_value_neg(chi, 2)
        product = factor if product is None else product * factor
    assert product.rational_part() == Fraction(-1, 21)


def test_extension_side_at_the_scenario_level():
    # the H-classes mod 63 rebuild the same S-depleted Dedekind value
    total = sum(partial_zeta(LV63, L_SIDE, h, 2) for h in LV63.h_classes)
    product = None
    for chi in characters_of(63, trivial_on=LV63.h_classes):
        factor = l_value_neg(chi, 2, (3, 7))
        product = factor if product is None else product * factor
    assert total == product.rational_part()


def test_zeta_of_is_linear_in_eps():
    eps_a = LocallyConstantFn.delta_fn(LV63, Q_SIDE, 5)
    eps_b = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(3, 2))
    combined = LocallyConstantFn.from_table(
        LV63, Q_SIDE, {x: eps_a(x) + Fraction(-2, 7) * eps_b(x) for x in LV63.classes(Q_SIDE)}
    )
    got = scaled_zeta_of(LV63, Q_SIDE, combined, 2)
    expected = scaled_zeta_of(LV63, Q_SIDE, eps_a, 2) + Fraction(-2, 7) * scaled_zeta_of(
        LV63, Q_SIDE, eps_b, 2
    )
    assert got == expected


def _zeta_sum(level, side, eps, k):
    """ζ(1−k, ε) as Σ_x ε(x)·ζ(1−k, δ^(x)) in Fractions."""
    return sum(eps(x) * partial_zeta(level, side, x, k) for x in level.classes(side))


def test_scaled_zeta_normalization():
    eps_q = LocallyConstantFn.constant_fn(LV63, Q_SIDE, 1)
    assert scaled_zeta_of(LV63, Q_SIDE, eps_q, 2) == _zeta_sum(LV63, Q_SIDE, eps_q, 2) / 2
    eps_l = LocallyConstantFn.constant_fn(LV63, L_SIDE, 1)
    assert scaled_zeta_of(LV63, L_SIDE, eps_l, 2) == _zeta_sum(LV63, L_SIDE, eps_l, 2) / 8


def test_delta_at_trivial_pick_vanishes():
    one = 1
    for k in (1, 2, 3):
        for x in LV63.classes(Q_SIDE):
            eps = LocallyConstantFn.delta_fn(LV63, Q_SIDE, x)
            assert delta_of(LV63, Q_SIDE, one, eps, k) == 0


def test_delta_table_matches_delta_of():
    for side, pick in ((Q_SIDE, 2), (L_SIDE, 2**3)):
        table = delta_table(LV63, side, pick, 2)
        assert set(table) == set(LV63.classes(side))
        for x in LV63.classes(side):
            eps = LocallyConstantFn.delta_fn(LV63, side, x)
            assert table[x] == delta_of(LV63, side, pick, eps, 2)


def test_delta_values_are_p_integral_everywhere():
    # partial zetas have denominators; the smoothing kills them at p = 3
    for lv in (LV63, LV189):
        for n in (2, 5):
            for k in (1, 2, 4):
                for value in delta_table(lv, Q_SIDE, n, k).values():
                    assert p_valuation(value, 3) >= 0
                for value in delta_table(lv, L_SIDE, n**3, k).values():
                    assert p_valuation(value, 3) >= 0


def test_extension_delta_needs_subgroup_pick():
    outside = 2  # 2 mod 7 is not a norm class
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
    g = 2
    for x in LV63.classes(Q_SIDE):
        eps_by_k = {
            k: LocallyConstantFn.delta_fn(LV63, Q_SIDE, x) for k in (2, 4)
        }
        assert delta_sum_integrality(LV63, Q_SIDE, g, eps_by_k) >= 0


def test_twisted_sum_detects_violations():
    g = 2
    shallow = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 3))
    with pytest.raises(HypothesisViolated):
        delta_sum_integrality(LV63, Q_SIDE, g, {1: shallow})
    too_deep = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 3**5))
    with pytest.raises(HypothesisViolated):
        delta_sum_integrality(LV63, Q_SIDE, g, {2: too_deep})


def test_twisted_sum_rejects_a_level_without_p():
    level = zeta_level(63)
    g = 2
    eps = LocallyConstantFn.delta_fn(level, Q_SIDE, 1)
    with pytest.raises(ValueError, match="scenario level"):
        delta_sum_integrality(level, Q_SIDE, g, {2: eps})


def test_twisted_pair_can_cancel_to_integral():
    # eps_2 = -n_tilde(x)^2 * eps_4 pointwise makes the twisted sum vanish while
    # each summand alone fails; the combined Delta-sum must then be integral
    g = 2
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
    g = 2
    third = Fraction(1, 3)
    n10 = norm_residue(LV63, 10)
    eps_2 = LocallyConstantFn.from_table(
        LV63, Q_SIDE, {x: -third * n10**2 if x == 10 else 0 for x in LV63.classes(Q_SIDE)}
    )
    eps_4 = LocallyConstantFn.from_table(
        LV63, Q_SIDE, {x: third if x in (10, 20) else 0 for x in LV63.classes(Q_SIDE)}
    )
    with pytest.raises(HypothesisViolated, match="class 20 is not"):
        delta_sum_integrality(LV63, Q_SIDE, g, {2: eps_2, 4: eps_4})
    # without class 20 the same pair passes
    eps_4 = LocallyConstantFn.from_table(
        LV63, Q_SIDE, {x: third if x == 10 else 0 for x in LV63.classes(Q_SIDE)}
    )
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
        terms = [
            (chi, 1, CyclotomicNumber.root(chi.ambient_order, chi.exponent_at(x0))) for chi in chars
        ]
        nums, den = zeta._orthogonality_table(group.exponent, terms, group.elements, len(chars))
        table = {x: Fraction(c, den) for x, c in nums.items()}
        assert table == {x: Fraction(int(x == x0)) for x in group.elements}


# -- the packed transform against a bucket sum per (class, term) ---------------


def _bucket_sums(order, terms, classes):
    """x ↦ the exponent sums of den·Σ w·ζ^(−χ(x))·V, one bucket pass per (class, term)."""
    den = lcm(*(v.den for _, _, v in terms))
    out = {}
    for x in classes:
        sums = [0] * order
        for chi, w, v in terms:
            e = chi.exponent_at(x)
            for j, c in enumerate(v.nums):
                sums[(j - e) % order] += w * c * (den // v.den)
        out[x] = sums
    return den, out


def _random_value(rnd, order):
    degree = len(cyclotomic_polynomial(order)) - 1
    nums = [
        rnd.choice((0, 0, rnd.randint(-9, 9), rnd.randint(-(10**12), 10**12)))
        for _ in range(degree)
    ]
    return CyclotomicNumber(order, tuple(nums), rnd.choice((1, 2, 3, 7, 9, 12, 49, 81)))


def _assert_transform_matches(order, terms, classes):
    den, sums = zeta._exponent_sums(order, terms, classes)
    expected_den, expected = _bucket_sums(order, terms, classes)
    assert den == expected_den
    got = dict(sums)
    assert list(got) == list(classes)
    assert got == expected


# 504 = 8·9·7: (Z/8)^× gives two factors C_2, so the grid has four axes;
# 275 (orders 20, 10) and 253 (n = 110) bring the radices 5 and 11
TRANSFORM_LEVELS = [
    zeta_level(7, p=3, conductor=7),
    LV63,
    LV189,
    scenario_level(3, 7, (3, 7), 4),
    zeta_level(504, p=3, conductor=7),
    zeta_level(275, p=5, conductor=11),
    zeta_level(253, p=11, conductor=23),
]


@pytest.mark.parametrize("level", TRANSFORM_LEVELS, ids=lambda lv: str(lv.modulus))
@pytest.mark.parametrize("seed", range(3))
def test_transform_matches_bucket_sums_on_the_full_group(level, seed):
    """Random terms on random exponent tuples, read at every class."""
    rnd = random.Random(level.modulus * 10 + seed)
    chars = characters_of(level.modulus)
    order = chars[0].ambient_order
    picked = rnd.sample(chars, min(len(chars), 40))
    terms = [(chi, rnd.choice((1, 2, 3)), _random_value(rnd, order)) for chi in picked]
    _assert_transform_matches(order, terms, level.classes(Q_SIDE))


@pytest.mark.parametrize("level", TRANSFORM_LEVELS, ids=lambda lv: str(lv.modulus))
def test_transform_matches_bucket_sums_on_h(level):
    """The extension layout: one value per fibre over H, weighted by the
    fibre size, at the fibre's representative; read on H only."""
    rnd = random.Random(level.modulus)
    chars = characters_of(level.modulus)
    order = chars[0].ambient_order
    fibers = zeta._l_fibers(level)
    terms = [(members[0], len(members), _random_value(rnd, order)) for members in fibers]
    assert len(terms) < len(chars)
    _assert_transform_matches(order, terms, level.h_classes)


@pytest.mark.parametrize("level", TRANSFORM_LEVELS, ids=lambda lv: str(lv.modulus))
def test_transform_slots_hold_the_largest_possible_sum(level):
    """Every character with the same positive numerator: the identity class
    reads |G| times it in one slot, the most a slot can hold."""
    chars = characters_of(level.modulus)
    order = chars[0].ambient_order
    value = CyclotomicNumber.from_rational(order, 2**40 - 1)
    terms = [(chi, 1, value) for chi in chars]
    den, sums = zeta._exponent_sums(order, terms, (1,))
    assert den == 1
    assert dict(sums)[1][0] == len(chars) * (2**40 - 1)
    _assert_transform_matches(order, terms, level.classes(Q_SIDE)[:12])


# -- the integer Hurwitz route and the per-modulus tables against references ----


@pytest.mark.parametrize("modulus", [7, 63, 189, 91])
def test_integer_hurwitz_table_matches_the_fraction_formula(modulus):
    """−f^(k−1)·B_k(a/f)/k evaluated in Fractions, class by class."""
    from pmcong.exact import bernoulli_poly, poly_eval

    level = zeta_level(modulus)
    for k in range(1, 13):
        b_k = bernoulli_poly(k)
        expected = {
            x: -(Fraction(modulus) ** (k - 1)) * poly_eval(b_k, Fraction(x or modulus, modulus)) / k
            for x in level.classes(Q_SIDE)
        }
        nums, den = zeta._q_table(level, k)
        assert {x: Fraction(c, den) for x, c in nums.items()} == expected, k


def _orbit_sweep(modulus, exponents):
    """The least tuple of χ's Galois orbit, from the whole orbit of χ."""
    group = unit_group(modulus)
    n = group.exponent
    return min(
        tuple(b * e % o for e, o in zip(exponents, group.orders))
        for b in range(1, n + 1)
        if gcd(b, n) == 1
    )


def _fiber_sweep(level):
    """The characters grouped by their exponents at every class of H."""
    chars = characters_of(level.modulus)
    fibers = {}
    for chi in chars:
        restriction = tuple(chi.exponent_at(y) for y in level.h_classes)
        fibers.setdefault(restriction, []).append(chi)
    return sorted(sorted(chi.exponents for chi in members) for members in fibers.values())


def _primitive_sweep(chi):
    """(conductor, table) from one discrete log per class."""
    exponent = {x: chi.exponent_at(x) for x in chi.group.elements}
    d = next(
        d for d in divisors(chi.modulus) if all(t == 0 for x, t in exponent.items() if x % d == 1 % d)
    )
    return d, {x % d: t for x, t in exponent.items()}


TABLE_LEVELS = [LV63, LV189, scenario_level(3, 7, (3, 7), 4), zeta_level(504, p=3, conductor=7)]


@pytest.mark.parametrize("level", TABLE_LEVELS, ids=lambda lv: str(lv.modulus))
def test_orbit_fiber_and_primitive_tables_match_the_sweeps(level):
    modulus = level.modulus
    s_primes = tuple(sorted(level.s_primes))
    values = zeta._l_values(modulus, 2)
    chars = characters_of(modulus)
    assert len(values) == len(chars)
    for chi in chars:
        assert values[chi.exponents] == l_value_neg(chi, 2, s_primes)
        prim = conductor_primitive(chi)
        assert (prim.conductor, prim._table) == _primitive_sweep(chi)
    fibers = zeta._l_fibers(level)
    assert sorted(sorted(chi.exponents for chi in members) for members in fibers) == _fiber_sweep(level)
