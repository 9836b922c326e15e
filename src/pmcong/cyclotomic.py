"""Exact arithmetic in cyclotomic fields Q(zeta_n), represented mod Phi_n.

Elements are coordinate vectors over the power basis 1, z, ..., z^(phi(n)-1)
of Q[x]/(Phi_n(x)), with Fraction coordinates.  Working modulo the cyclotomic
polynomial (rather than x^n - 1) makes rationality a coordinate check: an
element is rational iff every coordinate above the constant one vanishes.

Phi_n itself is obtained by iterated exact integer polynomial division of
x^n - 1 by the Phi_d for proper divisors d | n.

Only ring operations are provided (the package multiplies by inverse roots of
unity via exponent negation, so no general field inversion is needed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # Row j = coordinates of x^j mod Phi_n, for j up to n + 2*deg (covers products
    # of reduced elements and root-of-unity shifts).
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for j in range(deg):
        rows.append(tuple(1 if i == j else 0 for i in range(deg)))
    top = [-c for c in phi[:deg]]  # x^deg = -(phi_0 + phi_1 x + ...)
    for _ in range(deg, n + 2 * deg + 1):
        prev = rows[-1]
        lead = prev[deg - 1]
        shifted = [0] + list(prev[:-1])
        if lead:
            for i in range(deg):
                shifted[i] += lead * top[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class CyclotomicNumber:
    """An element of Q(zeta_n) with exact Fraction coordinates mod Phi_n."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords: tuple[Fraction, ...]):
        deg = len(cyclotomic_polynomial(order)) - 1
        if len(coords) != deg:
            raise ValueError(f"need {deg} coordinates for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CyclotomicNumber":
        deg = len(cyclotomic_polynomial(order)) - 1
        return CyclotomicNumber(order, (Fraction(0),) * deg)

    @staticmethod
    def from_rational(order: int, value: Rational | int) -> "CyclotomicNumber":
        deg = len(cyclotomic_polynomial(order)) - 1
        coords = [Fraction(0)] * deg
        coords[0] = Fraction(value)
        return CyclotomicNumber(order, tuple(coords))

    @staticmethod
    def one(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(order, 1)

    @staticmethod
    def root(order: int, exponent: int) -> "CyclotomicNumber":
        """zeta_n^exponent as an element of Q(zeta_n)."""
        rows = _reduction_rows(order)
        row = rows[exponent % order]
        return CyclotomicNumber(order, tuple(Fraction(c) for c in row))

    @staticmethod
    def from_exponent_sums(order: int, sums: list[int], den: int = 1) -> "CyclotomicNumber":
        """(sum_t sums[t] * zeta_n^t) / den for integer sums indexed by t in [0, n).

        Sums of many root-of-unity terms are accumulated as integers per
        exponent and reduced modulo Phi_n once here, not once per term.
        """
        if len(sums) != order:
            raise ValueError(f"need {order} exponent sums for order {order}")
        rows = _reduction_rows(order)
        acc = [0] * len(rows[0])
        for t, c in enumerate(sums):
            if c:
                for i, r in enumerate(rows[t]):
                    if r:
                        acc[i] += c * r
        return CyclotomicNumber(order, tuple(Fraction(c, den) for c in acc))

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        return CyclotomicNumber(self.order, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        return CyclotomicNumber(self.order, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, tuple(-a for a in self.coords))

    def scale(self, c: Rational | int) -> "CyclotomicNumber":
        q = Fraction(c)
        return CyclotomicNumber(self.order, tuple(a * q for a in self.coords))

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        a, b = self.coords, other.coords
        deg = len(a)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        rows = _reduction_rows(self.order)
        out = [Fraction(0)] * deg
        for j, cj in enumerate(prod):
            if cj:
                row = rows[j]
                for i in range(deg):
                    if row[i]:
                        out[i] += cj * row[i]
        return CyclotomicNumber(self.order, tuple(out))

    def mul_root(self, exponent: int) -> "CyclotomicNumber":
        """Multiply by zeta_n^exponent (cheap coordinate shift)."""
        rows = _reduction_rows(self.order)
        deg = len(self.coords)
        e = exponent % self.order
        out = [Fraction(0)] * deg
        for i, ci in enumerate(self.coords):
            if ci:
                row = rows[i + e]
                for j in range(deg):
                    if row[j]:
                        out[j] += ci * row[j]
        return CyclotomicNumber(self.order, tuple(out))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises NotRational if higher coordinates are nonzero."""
        if not self.is_rational():
            raise NotRational(f"nonrational cyclotomic number of order {self.order}: {self.coords}")
        return self.coords[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclotomicNumber)
            and self.order == other.order
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coords))

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.order}, coords={self.coords})"


def cyclo_reduce_rational(z: CyclotomicNumber) -> Fraction:
    """Assert z is rational and return it as a Fraction (NotRational otherwise)."""
    return z.rational_part()
