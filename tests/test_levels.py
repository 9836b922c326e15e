import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmcong.exact import p_valuation
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
    zeta_level,
)


LV = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)


def _values(eps):
    """ε's nonzero values as Fractions, class ↦ nums[class] / den."""
    return {x: Fraction(c, eps.den) for x, c in eps.nums.items()}


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
            assert set(_values(eps).values()) == {1}
            for x, v in _values(eps).items():
                total[x] += v
        assert all(v == 1 for v in total.values())


def test_frobenius_choice_validation_and_transfer():
    """A pick is its integer n, read by `delta_numerators`: n must be positive
    and a unit mod f, and its transfer n^p is the class cls^p, which lies in H."""
    from pmcong.zeta import delta_numerators

    for n in (0, 21):  # 21 shares a factor with the modulus
        with pytest.raises(ValueError):
            delta_numerators(LV, Q_SIDE, n, 2)
    assert pow(2, LV.p, LV.modulus) == LV.transfer_class(2) == 8
    assert LV.in_h(8)
    assert set(delta_numerators(LV, L_SIDE, 2**LV.p, 2)[0]) == set(LV.h_classes)


def test_zeta_level_plain_q():
    lv1 = zeta_level(1)
    assert lv1.modulus == 1
    assert lv1.classes(Q_SIDE) == (0,)
    lv4 = zeta_level(4)
    assert lv4.classes(Q_SIDE) == (1, 3)
    with pytest.raises(ValueError):
        zeta_level(12, p=3, conductor=7)  # conductor must divide modulus


def test_zeta_level_reads_s_and_p_off_its_inputs():
    assert zeta_level(63) is zeta_level(63)
    assert zeta_level(63).s_primes == frozenset({3, 7})
    assert zeta_level(63).p == 0
    assert zeta_level(1).s_primes == frozenset()
    cubic = zeta_level(63, p=3, conductor=7)
    assert cubic.p == 3 and cubic.s_primes == frozenset({3, 7})
    with pytest.raises(ValueError, match="read only with a conductor"):
        zeta_level(63, p=5)


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
    assert _values(fn) == {x: v for x, v in dense.items() if v}
    assert fn.den > 0 and math.gcd(fn.den, *fn.nums.values()) == 1
    assert fn.even == all(dense[x] == dense[level.neg_class(x)] for x in dense)
    assert fn.p_integral == all(v.denominator % 3 for v in dense.values())
    assert all(fn(x) == v for x, v in dense.items())


@settings(max_examples=40, deadline=None)
@given(_cases(sides=(L_SIDE,)))
def test_sparse_compose_transfer_matches_dense(case):
    level, _, (dense,) = case
    pulled = LocallyConstantFn.from_table(level, L_SIDE, dense).compose_transfer()
    reference = {x: dense[pow(x, 3, level.modulus)] for x in level.classes(Q_SIDE)}
    assert pulled.side == Q_SIDE
    assert _values(pulled) == {x: v for x, v in reference.items() if v}
    assert math.gcd(pulled.den, *pulled.nums.values()) == 1


_KS = st.sampled_from((2, 4, 6, 12))


@settings(max_examples=20, deadline=None)
@given(_cases(), _KS)
def test_sparse_zeta_of_matches_dense_sum(case, k):
    from pmcong.zeta import partial_zeta, scaled_zeta_of

    level, side, (dense,) = case
    fn = LocallyConstantFn.from_table(level, side, dense)
    expected = sum(v * partial_zeta(level, side, x, k) for x, v in dense.items())
    r = 1 if side == Q_SIDE else level.p
    assert scaled_zeta_of(level, side, fn, k) == expected / 2**r


def _outcome(call, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _reference_delta_table(level, side, g, k):
    from pmcong.zeta import partial_zeta

    f = level.modulus
    g_inv = pow(g, -1, f)
    return {
        x: partial_zeta(level, side, x, k) - g**k * partial_zeta(level, side, g_inv * x % f, k)
        for x in level.classes(side)
    }


def _residue(value, modulus, p):
    if value.denominator % p == 0:
        raise ArithmeticError(f"{value} is not p-integral and has no residue mod {modulus}")
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def _reference_lambda(level, side, g, k):
    from pmcong.zeta import norm_residue

    modulus = level.p**level.a
    deltas = _reference_delta_table(level, side, g, k)
    return {
        x: _residue(deltas[x], modulus, level.p)
        * pow(pow(norm_residue(level, x), -1, modulus), k, modulus)
        % modulus
        for x in level.classes(side)
    }


def _reference_delta_sum(level, side, g, eps_by_k):
    from pmcong.zeta import HypothesisViolated, norm_residue, partial_zeta

    p, a, f = level.p, level.a, level.modulus
    for k, eps in eps_by_k.items():
        if min((p_valuation(v, p) for v in _values(eps).values()), default=math.inf) < -a:
            raise HypothesisViolated(
                f"ε_{k} has a denominator beyond p^{a}; the finite level cannot "
                "certify the twisted-sum hypothesis"
            )
    for x in sorted(set().union(*(_values(eps) for eps in eps_by_k.values()))):
        twisted = sum(
            (_values(eps).get(x, 0) * norm_residue(level, x) ** (k - 1) for k, eps in eps_by_k.items()),
            Fraction(0),
        )
        if p_valuation(twisted, p) < 0:
            raise HypothesisViolated(f"twisted sum at class {x} is not p-integral")
    total = Fraction(0)
    for k, eps in eps_by_k.items():
        for x, v in _values(eps).items():
            total += v * partial_zeta(level, side, x, k)
            total -= g**k * v * partial_zeta(level, side, pow(g, -1, f) * x % f, k)
    return p_valuation(total, p)


@settings(max_examples=30, deadline=None)
@given(_cases(count=2), _KS, _KS, st.sampled_from((2, 5, 10, 11)))
def test_integer_view_matches_fraction_reference(case, k, k2, n):
    """Δ tables, λ residues and the twisted-sum valuation read the partial
    zeta values as integers over one denominator; they equal the same
    formulas in Fractions."""
    from pmcong.pseudomeasure import lambda_approx
    from pmcong.zeta import delta_sum_integrality, delta_table

    level, side, (da, db) = case
    pick = n if side == Q_SIDE else n**level.p
    assert delta_table(level, side, pick, k) == _reference_delta_table(level, side, pick, k)
    got = _outcome(lambda_approx, level, side, pick, k)
    assert got == _outcome(_reference_lambda, level, side, pick, k)
    a, a27, b, b27 = (
        LocallyConstantFn.from_table(level, side, {x: c * v for x, v in d.items()})
        for d in (da, db) for c in (1, 27)
    )
    for eps_by_k in ({k: a}, {k: a, k2: b} if k2 != k else {k: b}, {k: a27, k2: b27}):
        got = _outcome(delta_sum_integrality, level, side, pick, eps_by_k)
        assert got == _outcome(_reference_delta_sum, level, side, pick, eps_by_k)


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
