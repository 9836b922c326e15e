"""Characters of (Z/f)^x, primitive cores, generalized Bernoulli L-values.

L-value anchors are deliberately classical: zeta at 0 and -1, the quadratic
characters mod 4 and mod 5, and Euler-factor removal at 2.  The generalized
Bernoulli routine is additionally checked against a direct re-summation done
with independent polynomial evaluation in the test.
"""

from fractions import Fraction
from math import gcd

import pytest

from pmcong.cyclotomic import CyclotomicNumber, cyclo_reduce_rational
from pmcong.dirichlet import (
    characters_of,
    conductor_primitive,
    generalized_bernoulli,
    l_value_neg,
    series_coefficients,
)
from pmcong.exact import bernoulli_poly_at


def euler_phi(n):
    return sum(1 for x in range(1, n + 1) if gcd(x, n) == 1) if n > 1 else 1


def test_character_counts():
    for n in (1, 2, 3, 4, 7, 9, 12, 21, 63):
        assert len(characters_of(n)) == euler_phi(n)


def test_characters_multiplicative_exhaustive():
    for n in (7, 9, 12, 21):
        for chi in characters_of(n):
            units = [x for x in range(1, n) if gcd(x, n) == 1]
            for a in units:
                for b in units:
                    assert chi.value(a) * chi.value(b) == chi.value(a * b)
            assert chi.value(1) == CyclotomicNumber.one(chi.ambient_order)


def test_orthogonality_rows():
    # sum_x chi(x) = 0 for nontrivial chi, = phi(n) for the trivial one
    for n in (5, 7, 9, 12, 21):
        for chi in characters_of(n):
            total = CyclotomicNumber.zero(chi.ambient_order)
            for x in range(1, n):
                if gcd(x, n) == 1:
                    total = total + chi.value(x)
            expected = euler_phi(n) if chi.order() == 1 else 0
            assert cyclo_reduce_rational(total) == expected


def test_orthogonality_columns():
    # sum_chi chi(x) = 0 unless x = 1
    for n in (5, 7, 12):
        chars = characters_of(n)
        order = chars[0].ambient_order
        for x in range(1, n):
            if gcd(x, n) != 1:
                continue
            total = CyclotomicNumber.zero(order)
            for chi in chars:
                total = total + chi.value(x)
            assert cyclo_reduce_rational(total) == (len(chars) if x == 1 else 0)


def test_characters_trivial_on_subgroup():
    chars = characters_of(7, trivial_on=(1, 6))
    assert len(chars) == 3
    for chi in chars:
        assert chi.exponent_at(6) == 0
        assert chi.exponent_at(1) == 0
    orders = sorted(chi.order() for chi in chars)
    assert orders == [1, 3, 3]


def test_conductors_mod_12():
    got = sorted(conductor_primitive(chi).conductor for chi in characters_of(12))
    assert got == [1, 3, 4, 12]


def test_primitive_agrees_on_coprime_classes():
    for n in (1, 8, 12, 21, 63, 189, 275):
        for chi in characters_of(n):
            prim = conductor_primitive(chi)
            d = prim.conductor
            assert n % d == 0
            # the table is keyed by exactly the units mod the conductor
            units = {a for a in range(d) if gcd(a, d) == 1} if d > 1 else {0}
            assert set(prim._table) == units
            for a in range(1, n):
                if gcd(a, n) == 1:
                    assert prim.value(a) == chi.value(a)


def test_generalized_bernoulli_against_direct_sum():
    for n in (5, 7, 12):
        for chi in characters_of(n):
            prim = conductor_primitive(chi)
            f = prim.conductor
            for k in range(1, 5):
                acc = CyclotomicNumber.zero(prim.ambient_order)
                for a in range(1, f + 1):
                    if f > 1 and gcd(a, f) != 1:
                        continue
                    weight = bernoulli_poly_at(k, Fraction(a % f if f > 1 else 1, f))
                    # recomputed here from scratch; f=1 uses B_k(1)
                    if f == 1:
                        weight = bernoulli_poly_at(k, Fraction(1))
                    acc = acc + prim.value(a).scale(weight)
                acc = acc.scale(Fraction(f ** (k - 1)))
                assert acc == generalized_bernoulli(prim, k)


def rational_l(chi, k, s=()):
    return cyclo_reduce_rational(l_value_neg(chi, k, s))


def test_zeta_values():
    trivial = characters_of(1)[0]
    assert rational_l(trivial, 1) == Fraction(-1, 2)
    assert rational_l(trivial, 2) == Fraction(-1, 12)
    assert rational_l(trivial, 4) == Fraction(1, 120)
    assert rational_l(trivial, 2, (2,)) == Fraction(1, 12)
    assert rational_l(trivial, 2, (2, 3)) == Fraction(-1, 6)


def test_quadratic_character_values():
    chi5 = next(c for c in characters_of(5) if c.order() == 2)
    assert rational_l(chi5, 2) == Fraction(-2, 5)
    chi4 = next(c for c in characters_of(4) if c.order() > 1)
    assert rational_l(chi4, 3) == Fraction(-1, 2)
    assert rational_l(chi4, 1) == Fraction(1, 2)


def test_parity_vanishing():
    # chi and k of mismatched parity force L(1-k, chi) = 0 (chi nontrivial);
    # the one classical exception is the trivial character at k = 1.
    for n in (4, 5, 7, 12):
        for chi in characters_of(n):
            if chi.order() == 1:
                continue
            for k in range(1, 6):
                even_match = (chi.exponent_at(n - 1) == 0) == (k % 2 == 0)
                if not even_match:
                    assert rational_l(chi, k) == 0


def test_series_trivial_is_all_ones():
    trivial = conductor_primitive(characters_of(1)[0])
    assert series_coefficients((trivial,), 50) == [0] + [1] * 50


def test_series_zeta_times_l_chi4():
    chars = characters_of(4)
    prims = tuple(conductor_primitive(c) for c in chars)
    got = series_coefficients(prims, 200)
    for n in range(1, 201):
        expected = sum(
            1 if d % 4 == 1 else (-1 if d % 4 == 3 else 0)
            for d in range(1, n + 1)
            if n % d == 0
        )
        assert got[n] == expected


def test_series_s_removal_kills_multiples():
    chars = characters_of(7, trivial_on=(1, 6))
    prims = tuple(conductor_primitive(c) for c in chars)
    full = series_coefficients(prims, 100)
    pruned = series_coefficients(prims, 100, (7,))
    for n in range(1, 101):
        if n % 7 == 0:
            assert pruned[n] == 0
        else:
            assert pruned[n] == full[n]
    assert all(a >= 0 for a in full[1:])


def test_series_multiplicative():
    chars = characters_of(7, trivial_on=(1, 6))
    prims = tuple(conductor_primitive(c) for c in chars)
    a = series_coefficients(prims, 300)
    for m in range(2, 30):
        for n in range(2, 30):
            if gcd(m, n) == 1 and m * n <= 300:
                assert a[m * n] == a[m] * a[n]


def test_series_needs_characters():
    with pytest.raises(ValueError):
        series_coefficients((), 10)
