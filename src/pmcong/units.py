"""Structure of the unit groups (Z/f)^x: generators, orders, discrete logs.

Moduli here are small (a few hundred), so discrete logs are materialized as a
full table at construction time.  Generators follow the classical pattern: a
primitive root for each odd prime-power factor, and <-1, 5> for powers of two.

Also hosts the small integer utilities (primality, factorization, Euler's φ
and the integer-list text syntax) the rest of the package shares.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "euler_phi",
    "parse_int_list",
    "UnitGroup",
    "unit_group",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here stay well under 10^9)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors."""
    fac = factorize(n) if n > 1 else {}
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def parse_int_list(text: str) -> tuple[int, ...]:
    """Integers separated by commas, whitespace, or both; empty text gives ()."""
    return tuple(int(part) for part in text.replace(",", " ").split())


def euler_phi(n: int) -> int:
    """|(Z/n)^×| for n ≥ 1, from the factorization."""
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _order_mod(a: int, m: int, group_order: int) -> int:
    # order of a in (Z/m)^x, given a multiple of it
    order = group_order
    for p in factorize(group_order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _primitive_root_prime_power(q: int, e: int) -> int:
    # odd prime q: a primitive root mod q^2 is primitive mod q^e for every e
    phi_q = q - 1
    g = 2
    while _order_mod(g, q, phi_q) != phi_q:
        g += 1
    if e == 1:
        return g
    if pow(g, phi_q, q * q) == 1:
        g += q
    return g


class UnitGroup:
    """(Z/f)^x with fixed generators, orders, and a full discrete-log table.

    For f = 1 the group is trivial and its single class is labeled 0 (every
    integer reduces to it).
    """

    __slots__ = ("modulus", "generators", "orders", "exponent", "elements", "_dlog")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        gens: list[int] = []
        orders: list[int] = []
        if modulus > 1:
            for q, e in sorted(factorize(modulus).items()):
                qe = q**e
                rest = modulus // qe
                for gen_local, order in self._component_generators(q, e):
                    # CRT lift: gen at the q-part, 1 elsewhere
                    g = self._crt(gen_local, qe, 1, rest)
                    gens.append(g)
                    orders.append(order)
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        self.exponent = lcm(*self.orders)
        dlog: dict[int, tuple[int, ...]] = {}
        for exps in itertools.product(*(range(o) for o in self.orders)):
            r = 1 % modulus
            for g, t in zip(self.generators, exps):
                r = r * pow(g, t, modulus) % modulus
            dlog.setdefault(r, exps)
        self._dlog = dlog
        self.elements = tuple(sorted(dlog))
        if len(self.elements) != euler_phi(modulus):
            raise ArithmeticError(f"generators do not span (Z/{modulus})^x")

    @staticmethod
    def _component_generators(q: int, e: int) -> list[tuple[int, int]]:
        if q == 2:
            if e == 1:
                return []
            if e == 2:
                return [(3, 2)]
            return [(2**e - 1, 2), (5, 2 ** (e - 2))]
        return [(_primitive_root_prime_power(q, e), (q - 1) * q ** (e - 1))]

    @staticmethod
    def _crt(a: int, m: int, b: int, n: int) -> int:
        if n == 1:
            return a % m
        # m, n coprime
        inv = pow(m, -1, n)
        return (a + m * ((b - a) * inv % n)) % (m * n)

    def dlog(self, a: int) -> tuple[int, ...]:
        r = a % self.modulus
        try:
            return self._dlog[r]
        except KeyError:
            raise ValueError(f"{a} is not a unit mod {self.modulus}") from None


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> UnitGroup:
    return UnitGroup(modulus)
