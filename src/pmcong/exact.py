"""Exact scalar arithmetic: rationals, Bernoulli and Horner evaluation, p-adic valuations.

Every quantity feeding a congruence verdict in this package is an integer, a
``fractions.Fraction``, or assembled from those.  Floating point is confined to
conservative search prefilters that can only over-approximate candidate sets,
never to verdicts.

Conventions
-----------
* ``Rational`` is ``fractions.Fraction``: always in lowest terms, denominator
  positive.
* Bernoulli numbers use the B_1 = -1/2 convention, so the forward difference
  B_k(x+1) - B_k(x) = k*x^(k-1) holds on the nose.
* ``bernoulli_poly(k)`` returns ascending coefficients of B_k(x).
* A p-adic valuation is a plain ``int``, and v_p(0) is ``math.inf``.  That
  float orders above every int and compares equal only to itself, so ``min``,
  ``>=`` and ``==`` need no special case; reports write it as ``"+inf"``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, inf

from .units import is_prime

__all__ = [
    "Rational",
    "bernoulli_number",
    "bernoulli_poly",
    "int_valuation",
    "p_valuation",
    "poly_eval",
    "poly_eval_mod",
]

Rational = Fraction


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_valuation(x: Rational | int, p: int) -> int | float:
    """v_p(x) for a rational x: an int, and ``math.inf`` for x = 0.

    Examples: v_3(9/2) = 2, v_3(2/9) = -2, v_5(10) = 1.
    """
    if not is_prime(p):
        raise ValueError(f"p_valuation requires a prime, got {p}")
    q = Fraction(x)
    if q == 0:
        return inf
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2, via sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k == 0:
        return Fraction(1)
    if k > 2 and k % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


@lru_cache(maxsize=None)
def bernoulli_poly(k: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of B_k(x) = sum_m C(k, m) B_{k-m} x^m."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return tuple(comb(k, m) * bernoulli_number(k - m) for m in range(k + 1))


def poly_eval(coeffs, x: Rational | int) -> Rational | int:
    """Σ_j c_j x^j for ascending coefficients, by Horner's rule.

    Integer coefficients at an integer point give an int; any Fraction among
    them gives a Fraction.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_mod(coeffs, x: int, m: int) -> int:
    """Σ_j c_j x^j mod m for ascending integer coefficients, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc
