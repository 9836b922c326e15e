"""Exact arithmetic in cyclotomic fields Q(zeta_n), represented mod Phi_n.

Elements are coordinate vectors over the power basis 1, z, ..., z^(phi(n)-1)
of Q[x]/(Phi_n(x)), stored as integer numerators over one positive common
denominator in lowest terms.  That form is canonical, so equality is a tuple
comparison, and addition, multiplication and the reduction modulo Phi_n are
integer loops; ``coords`` gives the coordinates as Fractions.  Working modulo
the cyclotomic polynomial (rather than x^n - 1) makes rationality a coordinate
check: an element is rational iff every coordinate above the constant one
vanishes.

Phi_n itself is obtained by iterated exact integer polynomial division of
x^n - 1 by the Phi_d for proper divisors d | n; products and exponent sums are
reduced by long division by the monic Phi_n.  The Galois automorphisms
sigma_a: zeta_n -> zeta_n^a are available as ``conjugate(a)``.

Only ring operations are provided (the package multiplies by inverse roots of
unity via exponent negation, so no general field inversion is needed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import Rational

__all__ = [
    "CyclotomicNumber",
    "NotRational",
    "cyclotomic_polynomial",
    "cyclo_reduce_rational",
]


class NotRational(ValueError):
    """Raised when a cyclotomic number asserted rational has nonzero higher coordinates."""


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (den monic); asserts zero remainder.
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        out[i - d] = c
        if c:
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    if any(num[:d]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_n; Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d."""
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # (deg, ((j, c_j), ...)) with x^deg = sum_j c_j x^j mod Phi_n, zero c_j left out;
    # Phi_n of the orders in use is sparse (Phi_54 = x^18 - x^9 + 1)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, -c) for j, c in enumerate(phi[:deg]) if c)


def _reduce(order: int, poly: list[int]) -> tuple[int, ...]:
    # Remainder of an integer polynomial (ascending, at least deg long) mod Phi_n,
    # by long division from the top; poly is consumed.
    deg, tail = _phi_tail(order)
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            base = i - deg
            for j, t in tail:
                poly[base + j] += c * t
    return tuple(poly[:deg])


class CyclotomicNumber:
    """An element (sum_j nums[j] z^j) / den of Q(zeta_n), z = zeta_n, j < phi(n).

    Coordinates are integers over one positive common denominator, with
    gcd(den, *nums) == 1, so every element has exactly one representation:
    equality and hashing compare tuples, and ring operations are integer loops.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        if len(nums) != _phi_tail(order)[0]:
            raise ValueError(f"need {_phi_tail(order)[0]} coordinates for order {order}")
        if den == 0:
            raise ZeroDivisionError("cyclotomic number with denominator 0")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, (0,) * _phi_tail(order)[0])

    @staticmethod
    def from_rational(order: int, value: Rational | int) -> "CyclotomicNumber":
        q = Fraction(value)
        nums = (q.numerator,) + (0,) * (_phi_tail(order)[0] - 1)
        return CyclotomicNumber(order, nums, q.denominator)

    @staticmethod
    def one(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(order, 1)

    @staticmethod
    def root(order: int, exponent: int) -> "CyclotomicNumber":
        """zeta_n^exponent as an element of Q(zeta_n)."""
        sums = [0] * order
        sums[exponent % order] = 1
        return CyclotomicNumber.from_exponent_sums(order, sums)

    @staticmethod
    def from_exponent_sums(order: int, sums: list[int], den: int = 1) -> "CyclotomicNumber":
        """(sum_t sums[t] * zeta_n^t) / den for integer sums indexed by t in [0, n).

        Sums of many root-of-unity terms are accumulated as integers per
        exponent and reduced modulo Phi_n once here, not once per term.
        """
        if len(sums) != order:
            raise ValueError(f"need {order} exponent sums for order {order}")
        return CyclotomicNumber(order, _reduce(order, list(sums)), den)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        d1, d2 = self.den, other.den
        den = lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        nums = tuple(a * m1 + b * m2 for a, b in zip(self.nums, other.nums))
        return CyclotomicNumber(self.order, nums, den)

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        d1, d2 = self.den, other.den
        den = lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        nums = tuple(a * m1 - b * m2 for a, b in zip(self.nums, other.nums))
        return CyclotomicNumber(self.order, nums, den)

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, tuple(-c for c in self.nums), self.den)

    def scale(self, c: Rational | int) -> "CyclotomicNumber":
        q = Fraction(c)
        m = q.numerator
        return CyclotomicNumber(self.order, tuple(a * m for a in self.nums), self.den * q.denominator)

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        a, b = self.nums, other.nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        return CyclotomicNumber(self.order, _reduce(self.order, prod), self.den * other.den)

    def mul_root(self, exponent: int) -> "CyclotomicNumber":
        """Multiply by zeta_n^exponent (cheap coordinate shift)."""
        n = self.order
        sums = [0] * n
        for i, c in enumerate(self.nums, exponent):
            sums[i % n] += c
        return CyclotomicNumber.from_exponent_sums(n, sums, self.den)

    def conjugate(self, a: int) -> "CyclotomicNumber":
        """sigma_a(self) for the automorphism zeta_n -> zeta_n^a, gcd(a, n) = 1."""
        n = self.order
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not a unit mod {n}")
        a %= n
        if a == 1 % n:
            return self
        sums = [0] * n
        for j, c in enumerate(self.nums):
            sums[a * j % n] += c
        return CyclotomicNumber.from_exponent_sums(n, sums, self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises NotRational if higher coordinates are nonzero."""
        if not self.is_rational():
            raise NotRational(f"nonrational cyclotomic number of order {self.order}: {self.coords}")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclotomicNumber)
            and self.order == other.order
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.order, self.nums, self.den))

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.order}, nums={self.nums}, den={self.den})"


def cyclo_reduce_rational(z: CyclotomicNumber) -> Fraction:
    """Assert z is rational and return it as a Fraction (NotRational otherwise)."""
    return z.rational_part()
