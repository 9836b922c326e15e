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
        power = CyclotomicNumber.from_rational(n, 1)
        for k in range(1, n):
            power = power * z
            assert power == CyclotomicNumber.root(n, k)
            if k >= 1 and n > 1:
                assert power != CyclotomicNumber.from_rational(n, 1)
        assert power * z == CyclotomicNumber.from_rational(n, 1)


def test_minimal_polynomial_kills_primitive_root():
    for n in (3, 4, 6, 7, 9, 12, 21):
        z = CyclotomicNumber.root(n, 1)
        total = CyclotomicNumber.zero(n)
        power = CyclotomicNumber.from_rational(n, 1)
        for c in cyclotomic_polynomial(n):
            total = total + power.scale(c)
            power = power * z
        assert total.is_zero()


def sample_pool(n):
    return [
        CyclotomicNumber.zero(n),
        CyclotomicNumber.from_rational(n, 1),
        CyclotomicNumber.root(n, 1),
        CyclotomicNumber.root(n, 1).scale(Fraction(-2, 3))
        + CyclotomicNumber.from_rational(n, Fraction(1, 5)),
        CyclotomicNumber.root(n, max(n - 1, 1)) - CyclotomicNumber.from_rational(n, 1),
    ]


def fraction_product(a, b, n):
    """Reference product on Fraction coordinates: convolve, then divide by Φ_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        for j in range(deg + 1):
            prod[i - deg + j] -= c * phi[j]
    return tuple(prod[:deg])


def test_ring_axioms_on_sample_pool():
    for n in (3, 4, 7, 12):
        pool = sample_pool(n)
        for a in pool:
            for b in pool:
                assert a * b == b * a
                assert a + b == b + a
                for c in pool:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
        for a in pool:
            assert a + CyclotomicNumber.zero(n) == a
            assert a * CyclotomicNumber.from_rational(n, 1) == a
            assert (a - a).is_zero()


def test_mul_root_agrees_with_multiplication():
    for n in (6, 7, 9, 12):
        z = CyclotomicNumber.root(n, 1)
        samples = [
            CyclotomicNumber.from_rational(n, 1),
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
        assert total.rational_part() == mu


def test_rational_detection():
    z = CyclotomicNumber.root(3, 1)
    with pytest.raises(NotRational):
        z.rational_part()
    assert (z + z * z).rational_part() == -1
    assert CyclotomicNumber.from_rational(3, Fraction(7, 3)).rational_part() == Fraction(7, 3)
    half = CyclotomicNumber.from_rational(1, Fraction(1, 2))
    assert half.is_rational()
    assert half.rational_part() == Fraction(1, 2)


def test_cross_order_operations_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber.from_rational(3, 1) + CyclotomicNumber.from_rational(4, 1)


def units_mod(n):
    return [a for a in range(1, n + 1) if gcd(a, n) == 1]


def test_conjugate_is_a_ring_homomorphism_on_sample_pool():
    for n in (3, 4, 7, 12):
        pool = sample_pool(n)
        for a in units_mod(n):
            inverse = pow(a, -1, n) if n > 1 else 0
            assert CyclotomicNumber.root(n, 1).conjugate(a) == CyclotomicNumber.root(n, a)
            one = CyclotomicNumber.from_rational(n, 1)
            assert one.conjugate(a) == one
            for x in pool:
                assert x.conjugate(1) == x
                assert x.conjugate(a + n) == x.conjugate(a)
                assert x.conjugate(a).conjugate(inverse) == x
                for y in pool:
                    assert (x + y).conjugate(a) == x.conjugate(a) + y.conjugate(a)
                    assert (x * y).conjugate(a) == x.conjugate(a) * y.conjugate(a)
    # complex conjugation on Q(ζ_7) sends ζ to ζ^6; rational values are fixed
    assert CyclotomicNumber.root(7, 2).conjugate(-1) == CyclotomicNumber.root(7, 5)
    assert CyclotomicNumber.from_rational(12, Fraction(-3, 8)).conjugate(5) == (
        CyclotomicNumber.from_rational(12, Fraction(-3, 8))
    )
    with pytest.raises(ValueError):
        CyclotomicNumber.root(12, 1).conjugate(3)


def test_equal_values_share_one_canonical_form():
    for n in (1, 3, 4, 7, 12, 18):
        for x in sample_pool(n) + [CyclotomicNumber.root(n, 2).scale(Fraction(6, 35))]:
            variants = [
                (x.scale(Fraction(1, 3)).scale(3), x),
                (x.scale(Fraction(-2, 6)), -(x.scale(Fraction(1, 3)))),
                (x.scale(Fraction(-2, 6)), x.scale(Fraction(-1, 3))),
                (x + -x, CyclotomicNumber.zero(n)),
                (x - x, CyclotomicNumber.zero(n)),
            ]
            for left, right in variants:
                assert left == right
                assert hash(left) == hash(right)
                assert (left.nums, left.den) == (right.nums, right.den)
            assert x.den > 0
            assert gcd(x.den, *x.nums) == 1
        sums = [3 * t - 7 for t in range(n)]
        negated = CyclotomicNumber.from_exponent_sums(n, [-c for c in sums], -6)
        plain = CyclotomicNumber.from_exponent_sums(n, sums, 6)
        assert negated == plain and hash(negated) == hash(plain)
        assert plain.den > 0 and gcd(plain.den, *plain.nums) == 1
    zero = CyclotomicNumber.zero(7)
    assert (zero.nums, zero.den) == ((0,) * 6, 1)
    assert CyclotomicNumber.from_exponent_sums(7, [0] * 7, 12) == zero
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.from_exponent_sums(7, [1] * 7, 0)


def test_coords_are_the_fraction_coordinates():
    x = CyclotomicNumber.root(3, 1).scale(Fraction(-2, 3)) + CyclotomicNumber.from_rational(
        3, Fraction(1, 5)
    )
    assert x.coords == (Fraction(1, 5), Fraction(-2, 3))
    assert all(type(c) is Fraction for c in x.coords)
    assert (x.nums, x.den) == ((3, -10), 15)
    assert CyclotomicNumber.root(7, 6).coords == (-1,) * 6
    for n in (3, 4, 7, 12, 18):
        pool = sample_pool(n)
        for a in pool:
            assert a.coords == tuple(Fraction(c, a.den) for c in a.nums)
            for b in pool:
                assert (a * b).coords == fraction_product(a.coords, b.coords, n)
                assert (a + b).coords == tuple(p + q for p, q in zip(a.coords, b.coords))
                assert (a - b).coords == tuple(p - q for p, q in zip(a.coords, b.coords))


@pytest.mark.parametrize("n", [6, 18, 54, 162])
def test_products_of_wide_values_match_the_fraction_reference(n):
    """Products are one integer multiplication of packed numerators; every
    coordinate at ±(2^60 − 1) makes a convolution coefficient reach its bound."""
    rnd = random.Random(n)
    deg = len(cyclotomic_polynomial(n)) - 1
    top = 2**60 - 1
    values = [
        CyclotomicNumber(n, (top,) * deg),
        CyclotomicNumber(n, (-top,) * deg, 7),
        CyclotomicNumber(
            n, tuple(rnd.choice((0, top, -top, rnd.randint(-top, top))) for _ in range(deg)), 3
        ),
        CyclotomicNumber(n, tuple(rnd.randint(-5, 5) for _ in range(deg)), 10),
        CyclotomicNumber.zero(n),
    ]
    for a in values:
        for b in values:
            assert (a * b).coords == fraction_product(a.coords, b.coords, n)
