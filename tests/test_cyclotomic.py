"""Cyclotomic integers: polynomial identities and exact ring structure.

The reduction strategy (rewrite ζ^j for j ≥ φ(n) via the cyclotomic
polynomial) is validated against textbook identities rather than against
itself: products of Φ_d over divisors, known degrees, and Galois sums.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from pmcong.cyclotomic import (
    CyclotomicNumber,
    NotRational,
    cyclo_reduce_rational,
    cyclotomic_polynomial,
)
from pmcong.units import divisors


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def euler_phi(n):
    count = 0
    for x in range(1, n + 1):
        if gcd(x, n) == 1:
            count += 1
    return count


def test_cyclotomic_product_identity():
    # prod_{d | n} Phi_d(x) = x^n - 1, exercised well past the moduli in use
    for n in range(1, 64):
        product = [1]
        for d in divisors(n):
            product = poly_mul(product, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert product == expected


def test_cyclotomic_degrees_and_samples():
    for n in range(1, 64):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_order():
    for n in (1, 2, 3, 4, 6, 7, 9, 12):
        z = CyclotomicNumber.root(n, 1)
        power = CyclotomicNumber.one(n)
        for k in range(1, n):
            power = power * z
            assert power == CyclotomicNumber.root(n, k)
            if k >= 1 and n > 1:
                assert power != CyclotomicNumber.one(n)
        assert power * z == CyclotomicNumber.one(n)


def test_minimal_polynomial_kills_primitive_root():
    for n in (3, 4, 6, 7, 9, 12, 21):
        z = CyclotomicNumber.root(n, 1)
        total = CyclotomicNumber.zero(n)
        power = CyclotomicNumber.one(n)
        for c in cyclotomic_polynomial(n):
            total = total + power.scale(c)
            power = power * z
        assert total.is_zero()


def test_ring_axioms_on_sample_pool():
    for n in (3, 4, 7, 12):
        pool = [
            CyclotomicNumber.zero(n),
            CyclotomicNumber.one(n),
            CyclotomicNumber.root(n, 1),
            CyclotomicNumber.root(n, 1).scale(Fraction(-2, 3))
            + CyclotomicNumber.from_rational(n, Fraction(1, 5)),
            CyclotomicNumber.root(n, max(n - 1, 1)) - CyclotomicNumber.one(n),
        ]
        for a in pool:
            for b in pool:
                assert a * b == b * a
                assert a + b == b + a
                for c in pool:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
        for a in pool:
            assert a + CyclotomicNumber.zero(n) == a
            assert a * CyclotomicNumber.one(n) == a
            assert (a - a).is_zero()


def test_mul_root_agrees_with_multiplication():
    for n in (6, 7, 9, 12):
        z = CyclotomicNumber.root(n, 1)
        samples = [
            CyclotomicNumber.one(n),
            z + z * z,
            CyclotomicNumber.from_rational(n, Fraction(3, 4)) - z,
        ]
        for a in samples:
            for e in range(2 * n):
                shifted = a
                for _ in range(e):
                    shifted = shifted * z
                assert a.mul_root(e) == shifted


def test_exponent_sums_match_termwise_sum():
    """One reduction of integer buckets equals the sum of reduced roots."""
    rng = random.Random(54)
    for n in (1, 2, 3, 6, 7, 9, 12, 18, 54):
        for den in (1, 12, 35):
            sums = [rng.randint(-40, 40) for _ in range(n)]
            naive = CyclotomicNumber.zero(n)
            for t, c in enumerate(sums):
                naive = naive + CyclotomicNumber.root(n, t).scale(c)
            assert CyclotomicNumber.from_exponent_sums(n, sums, den) == naive.scale(
                Fraction(1, den)
            ), (n, den)
        unit = [0] * n
        unit[n - 1] = 1
        assert CyclotomicNumber.from_exponent_sums(n, unit) == CyclotomicNumber.root(n, -1)
    with pytest.raises(ValueError):
        CyclotomicNumber.from_exponent_sums(6, [1, 2, 3])


def test_galois_sum_of_primitive_roots_is_moebius():
    # sum over primitive n-th roots = mu(n)
    known = {7: -1, 9: 0, 12: 0, 21: 1, 6: 1}
    for n, mu in known.items():
        total = CyclotomicNumber.zero(n)
        for j in range(1, n + 1):
            if gcd(j, n) == 1:
                total = total + CyclotomicNumber.root(n, j)
        assert cyclo_reduce_rational(total) == mu


def test_rational_detection():
    z = CyclotomicNumber.root(3, 1)
    with pytest.raises(NotRational):
        cyclo_reduce_rational(z)
    assert cyclo_reduce_rational(z + z * z) == -1
    assert cyclo_reduce_rational(CyclotomicNumber.from_rational(3, Fraction(7, 3))) == Fraction(7, 3)
    half = CyclotomicNumber.from_rational(1, Fraction(1, 2))
    assert half.is_rational()
    assert half.rational_part() == Fraction(1, 2)


def test_cross_order_operations_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber.one(3) + CyclotomicNumber.one(4)
