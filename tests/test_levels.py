from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmcong.exact import PValuation, p_valuation
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    FrobeniusChoice,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
    zeta_level,
)


LV = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)


def test_scenario_level_shape():
    assert LV.modulus == 63
    assert LV.p == 3 and LV.a == 2
    assert LV.s_primes == frozenset({3, 7})
    assert len(LV.classes(Q_SIDE)) == 36
    assert len(LV.h_classes) == 12
    for x in LV.classes(Q_SIDE):
        inside = x % 7 in (1, 6)
        assert LV.in_h(x) == inside
    assert LV.norm_exponent_modulus() == 9


def test_scenario_level_rejects_bad_s():
    with pytest.raises(ValueError):
        scenario_level(3, 7, (7,), 2)  # p missing from S
    with pytest.raises(ValueError):
        scenario_level(3, 7, (3,), 2)  # ramified prime missing from S
    with pytest.raises(ValueError):
        scenario_level(3, 7, (3, 7), 0)


def test_scenario_modulus_multiplies_s_primes():
    wide = scenario_level(3, 7, (3, 5, 7), 2)
    assert wide.modulus == 9 * 5 * 7


def test_transfer_class_lands_in_h_exhaustively():
    for x in LV.classes(Q_SIDE):
        y = LV.transfer_class(x)
        assert LV.in_h(y)
        assert y == pow(x, 3, 63)


def test_neg_class_is_an_involution():
    for x in LV.classes(Q_SIDE):
        assert LV.neg_class(LV.neg_class(x)) == x
        assert (x + LV.neg_class(x)) % 63 == 0


def test_locally_constant_parity_and_integrality_flags():
    even = LocallyConstantFn.constant_fn(LV, Q_SIDE, Fraction(2, 5))
    assert even.even and even.p_integral
    lop = LocallyConstantFn.delta_fn(LV, Q_SIDE, 2)
    assert not lop.even
    deep = LocallyConstantFn.constant_fn(LV, L_SIDE, Fraction(1, 3))
    assert not deep.p_integral
    table = {x: Fraction(x % 5) for x in LV.classes(Q_SIDE)}
    fn = LocallyConstantFn.from_table(LV, Q_SIDE, table)
    assert fn(2 + 63) == Fraction(2 % 5)


def test_shift_relabels_support():
    delta = LocallyConstantFn.delta_fn(LV, Q_SIDE, 10)
    shifted = delta.shift(2)
    # (delta^(x))_g(y) = delta^(x)(g y): support moves to g^{-1} x
    inv2 = pow(2, -1, 63)
    for y in LV.classes(Q_SIDE):
        assert shifted(y) == (1 if y == (inv2 * 10) % 63 else 0)


def test_compose_transfer_pulls_back_along_cubing():
    eps = LocallyConstantFn.from_table(
        LV, L_SIDE, {h: Fraction(h) for h in LV.h_classes}
    )
    pulled = eps.compose_transfer()
    assert pulled.side == Q_SIDE
    for x in LV.classes(Q_SIDE):
        assert pulled(x) == Fraction(pow(x, 3, 63))


def test_even_orbit_indicators_partition_both_sides():
    for side, count in ((Q_SIDE, 18), (L_SIDE, 6)):
        indicators = even_orbit_indicators(LV, side)
        assert len(indicators) == count
        total = {x: Fraction(0) for x in LV.classes(side)}
        for eps in indicators:
            assert eps.even
            assert set(eps.support.values()) == {1}
            for x, v in eps.support.items():
                total[x] += v
        assert all(v == 1 for v in total.values())


def test_frobenius_choice_validation_and_transfer():
    g = FrobeniusChoice(LV, 2)
    assert g.cls == 2 and g.n == 2
    h = g.transfer()
    assert h.cls == 8 and h.n == 8
    assert LV.in_h(h.cls)
    big = FrobeniusChoice(LV, 65)
    assert big.cls == 2 and big.n == 65
    with pytest.raises(ValueError):
        FrobeniusChoice(LV, 21)  # shares a factor with the modulus
    with pytest.raises(ValueError):
        FrobeniusChoice(LV, 0)


def test_zeta_level_plain_q():
    lv1 = zeta_level(1, ())
    assert lv1.modulus == 1
    assert lv1.classes(Q_SIDE) == (0,)
    lv4 = zeta_level(4, ())
    assert lv4.classes(Q_SIDE) == (1, 3)
    with pytest.raises(ValueError):
        zeta_level(12, (), p=3, conductor=7)  # conductor must divide modulus


def test_transfer_class_outside_h_is_an_arithmetic_error(monkeypatch):
    monkeypatch.setattr(LV, "in_h", lambda cls: False)
    with pytest.raises(ArithmeticError, match="outside the subgroup"):
        LV.transfer_class(2)


# -- the support representation against dense reference tables -------------------

@st.composite
def _dense_tables(draw, level, side, count=1):
    """`count` full value tables on one side, even or not, about half zero."""
    rnd = draw(st.randoms(use_true_random=False))
    tables = []
    for _ in range(count):
        symmetric = rnd.random() < 0.5
        dense = {}
        for x in level.classes(side):
            neg = level.neg_class(x)
            if symmetric and neg in dense:
                dense[x] = dense[neg]
            elif rnd.random() < 0.5:
                dense[x] = Fraction(0)
            else:
                dense[x] = Fraction(rnd.randint(-4, 4), rnd.choice((1, 2, 3, 9, 27)))
        tables.append(dense)
    return tables


def _cases(count=1, sides=(Q_SIDE, L_SIDE)):
    return st.sampled_from([(lv, side) for lv in (LV, LV189) for side in sides]).flatmap(
        lambda c: st.tuples(st.just(c[0]), st.just(c[1]), _dense_tables(c[0], c[1], count))
    )


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_sparse_flags_and_valuation_match_dense(case):
    level, side, (dense,) = case
    fn = LocallyConstantFn.from_table(level, side, dense)
    assert fn.support == {x: v for x, v in dense.items() if v}
    assert fn.even == all(dense[x] == dense[level.neg_class(x)] for x in dense)
    assert fn.p_integral == all(v.denominator % 3 for v in dense.values())
    assert fn.is_zero() == all(v == 0 for v in dense.values())
    assert fn.min_p_valuation() == min(p_valuation(v, 3) for v in dense.values())
    assert all(fn(x) == v for x, v in dense.items())


@settings(max_examples=40, deadline=None)
@given(_cases(), st.data())
def test_sparse_shift_matches_dense(case, data):
    level, side, (dense,) = case
    fn = LocallyConstantFn.from_table(level, side, dense)
    g = data.draw(st.sampled_from(level.classes(side)))
    shifted = fn.shift(g)
    f = level.modulus
    assert all(shifted(x) == dense[(g * x) % f] for x in level.classes(side))
    assert (shifted.even, shifted.p_integral) == (fn.even, fn.p_integral)


@settings(max_examples=40, deadline=None)
@given(_cases(sides=(L_SIDE,)))
def test_sparse_compose_transfer_matches_dense(case):
    level, _, (dense,) = case
    pulled = LocallyConstantFn.from_table(level, L_SIDE, dense).compose_transfer()
    reference = {x: dense[pow(x, 3, level.modulus)] for x in level.classes(Q_SIDE)}
    assert pulled.side == Q_SIDE
    assert pulled.support == {x: v for x, v in reference.items() if v}


@settings(max_examples=40, deadline=None)
@given(_cases(count=2), st.fractions(min_value=-3, max_value=3, max_denominator=9))
def test_sparse_linear_operations_match_dense(case, c):
    level, side, (da, db) = case
    a = LocallyConstantFn.from_table(level, side, da)
    b = LocallyConstantFn.from_table(level, side, db)
    for fn, reference in (
        (a.scale(c), {x: c * v for x, v in da.items()}),
        (a + b, {x: da[x] + db[x] for x in da}),
        (a - b, {x: da[x] - db[x] for x in da}),
    ):
        assert fn.support == {x: v for x, v in reference.items() if v}
        assert fn.is_zero() == all(v == 0 for v in reference.values())
        assert fn.even == all(reference[x] == reference[level.neg_class(x)] for x in reference)
    assert (a - a).is_zero() and a.scale(0).is_zero()


@settings(max_examples=20, deadline=None)
@given(_cases())
def test_sparse_zeta_of_matches_dense_sum(case):
    from pmcong.zeta import partial_zeta, zeta_of

    level, side, (dense,) = case
    fn = LocallyConstantFn.from_table(level, side, dense)
    expected = sum(v * partial_zeta(level, side, x, 2) for x, v in dense.items())
    assert zeta_of(level, side, fn, 2) == expected


def test_zero_function_has_infinite_valuation():
    for level in (LV, LV189):
        for side in (Q_SIDE, L_SIDE):
            zero = LocallyConstantFn.constant_fn(level, side, 0)
            assert zero.is_zero() and zero.support == {}
            assert zero.min_p_valuation() == PValuation.infinite()
            one = LocallyConstantFn.constant_fn(level, side, 1)
            assert (one - one).min_p_valuation() == PValuation.infinite()


def test_from_table_rejects_partial_or_foreign_tables():
    full = {x: Fraction(1) for x in LV.classes(L_SIDE)}
    with pytest.raises(ValueError, match="cover"):
        LocallyConstantFn.from_table(LV, L_SIDE, {x: v for x, v in full.items() if x != 1})
    with pytest.raises(ValueError, match="cover"):
        LocallyConstantFn.from_table(LV, L_SIDE, {**full, 2: Fraction(0)})
    with pytest.raises(ValueError):
        LocallyConstantFn.delta_fn(LV, L_SIDE, 2)  # 2 is not in H
    with pytest.raises(ValueError):
        LocallyConstantFn.constant_fn(LV, L_SIDE, 1)(2)
    with pytest.raises(ValueError):
        LocallyConstantFn.constant_fn(LV, L_SIDE, 1).shift(2)  # ε_2 leaves H
