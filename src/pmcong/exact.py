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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .units import is_prime

__all__ = [
    "Rational",
    "PValuation",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_at",
    "int_valuation",
    "p_valuation",
    "poly_eval",
    "poly_eval_mod",
]

Rational = Fraction


@dataclass(frozen=True)
class PValuation:
    """A p-adic valuation: an integer for nonzero inputs, infinite for zero.

    Supports comparison against plain integers and other valuations, and
    addition (valuations are additive under multiplication).
    """

    finite: bool
    value: int = 0

    def __post_init__(self) -> None:
        if not self.finite and self.value != 0:
            object.__setattr__(self, "value", 0)

    @staticmethod
    def of(value: int) -> "PValuation":
        return PValuation(True, value)

    @staticmethod
    def infinite() -> "PValuation":
        return PValuation(False)

    def _as_pair(self) -> tuple[int, int]:
        # (1, _) sorts above every finite (0, v)
        return (0, self.value) if self.finite else (1, 0)

    @staticmethod
    def _coerce(other: "PValuation | int") -> "PValuation":
        if isinstance(other, PValuation):
            return other
        if isinstance(other, int):
            return PValuation.of(other)
        return NotImplemented  # type: ignore[return-value]

    def __lt__(self, other: "PValuation | int") -> bool:
        o = self._coerce(other)
        return self._as_pair() < o._as_pair()

    def __le__(self, other: "PValuation | int") -> bool:
        o = self._coerce(other)
        return self._as_pair() <= o._as_pair()

    def __gt__(self, other: "PValuation | int") -> bool:
        o = self._coerce(other)
        return self._as_pair() > o._as_pair()

    def __ge__(self, other: "PValuation | int") -> bool:
        o = self._coerce(other)
        return self._as_pair() >= o._as_pair()

    def __add__(self, other: "PValuation | int") -> "PValuation":
        o = self._coerce(other)
        if not (self.finite and o.finite):
            return PValuation.infinite()
        return PValuation.of(self.value + o.value)

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"PValuation({self.value})" if self.finite else "PValuation(+inf)"


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_valuation(x: Rational | int, p: int) -> PValuation:
    """v_p(x) for a rational x; v_p(0) is infinite.

    Examples: v_3(9/2) = 2, v_3(2/9) = -2, v_5(10) = 1.
    """
    if not is_prime(p):
        raise ValueError(f"p_valuation requires a prime, got {p}")
    q = Fraction(x)
    if q == 0:
        return PValuation.infinite()
    return PValuation.of(int_valuation(q.numerator, p) - int_valuation(q.denominator, p))


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


def bernoulli_poly_at(k: int, x: Rational | int) -> Fraction:
    """B_k evaluated at a rational point, exactly."""
    return poly_eval(bernoulli_poly(k), Fraction(x))


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
