"""Scalar layer: Bernoulli data against an independent tableau, valuations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmcong.exact import (
    PValuation,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_at,
    p_valuation,
    poly_eval,
    poly_eval_mod,
)


def akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle: the Akiyama–Tanigawa triangle gives B_n with B_1 = +1/2;
    flip the sign of B_1 to land in the B_1 = −1/2 convention used here."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        row = [(m + 1) * (row[m] - row[m + 1]) for m in range(n + 1 - j)]
    value = row[0]
    return -value if n == 1 else value


def test_bernoulli_numbers_match_tableau():
    for n in range(0, 41):
        assert bernoulli_number(n) == akiyama_tanigawa(n)


def test_bernoulli_odd_vanishing_and_known_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    for n in range(3, 60, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_poly_forward_difference():
    # B_k(x+1) - B_k(x) = k x^(k-1), the identity the zeta tables lean on
    xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(22, 5)]
    for k in range(1, 12):
        for x in xs:
            lhs = bernoulli_poly_at(k, x + 1) - bernoulli_poly_at(k, x)
            assert lhs == k * x ** (k - 1)


def test_bernoulli_poly_reflection():
    xs = [Fraction(n, 7) for n in range(-10, 11)]
    for k in range(0, 10):
        for x in xs:
            assert bernoulli_poly_at(k, 1 - x) == (-1) ** k * bernoulli_poly_at(k, x)


def test_bernoulli_poly_coefficients_evaluate():
    for k in range(0, 9):
        coeffs = bernoulli_poly(k)
        assert len(coeffs) == k + 1
        for x in (Fraction(2, 3), Fraction(-5), Fraction(7, 4)):
            direct = sum(c * x**i for i, c in enumerate(coeffs))
            assert direct == bernoulli_poly_at(k, x)


def test_bernoulli_poly_at_zero_and_one():
    for k in range(0, 20):
        assert bernoulli_poly_at(k, Fraction(0)) == bernoulli_number(k)
        expected = bernoulli_number(k) + (1 if k == 1 else 0)
        assert bernoulli_poly_at(k, Fraction(1)) == expected


def test_p_valuation_exhaustive_small():
    for p in (2, 3, 5, 7):
        for num in range(-60, 61):
            for den in range(1, 30):
                value = Fraction(num, den)
                got = p_valuation(value, p)
                if num == 0:
                    assert not got.finite
                    continue
                v = 0
                while (value.numerator % p) == 0:
                    value = value / p
                    v += 1
                while (value.denominator % p) == 0:
                    value = value * p
                    v -= 1
                assert got == PValuation.of(v)


def test_p_valuation_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ValueError):
            p_valuation(Fraction(1), bad)


def test_valuation_ordering_and_infinity():
    inf = PValuation.infinite()
    assert inf > 10**9
    assert not (inf < inf)
    assert inf >= inf
    assert PValuation.of(-2) < 0 < PValuation.of(1)
    assert PValuation.of(3) >= 3
    assert inf + 5 == inf
    assert PValuation.of(2) + PValuation.of(-7) == PValuation.of(-5)


@given(
    st.fractions(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_additive_on_products(x, y, p):
    assert p_valuation(x * y, p) == p_valuation(x, p) + p_valuation(y, p)


@given(
    st.fractions(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_ultrametric(x, y, p):
    lower = min(p_valuation(x, p), p_valuation(y, p))
    assert p_valuation(x + y, p) >= lower


@settings(max_examples=300)
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=9),
    st.integers(-10**5, 10**5),
    st.integers(1, 10**9),
)
def test_poly_eval_mod_matches_the_power_sum(coeffs, x, m):
    assert poly_eval_mod(coeffs, x, m) == sum(c * pow(x, j, m) for j, c in enumerate(coeffs)) % m


@given(st.lists(st.integers(-100, 100), max_size=7), st.fractions(max_denominator=50))
def test_poly_eval_matches_the_power_sum(coeffs, x):
    assert poly_eval(coeffs, x) == sum(c * x**j for j, c in enumerate(coeffs))


def test_poly_eval_keeps_integers_integral():
    assert type(poly_eval([3, -2, 5], 7)) is int
    assert poly_eval([3, -2, 5], 7) == 234
    assert poly_eval([], 7) == 0
    assert type(poly_eval([Fraction(1, 2), 1], 3)) is Fraction
    assert type(poly_eval([1, 1], Fraction(1, 3))) is Fraction
