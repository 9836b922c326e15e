"""Dirichlet characters and exact special values of their L-functions.

Characters mod f are stored as exponent tuples against the fixed generators of
(Z/f)^x; a value chi(a) is the root of unity zeta_n^t with n the group exponent
and t = chi.exponent_at(a).  Values are materialized into CyclotomicNumber
only when L-values are assembled.

Special values at nonpositive integers come from generalized Bernoulli numbers
attached to the primitive core chi* of chi,

    B_{k,chi} = f^(k-1) * sum_{a=1..f} chi(a) B_k(a/f),      f = conductor,
    L(1-k, chi) = -B_{k,chi*}/k,

(see e.g. Washington, "Introduction to Cyclotomic Fields", Ch. 4), with
S-truncation applied as explicit Euler factors (1 - chi*(q) q^(k-1)) for
primes q in S not dividing the conductor.  Evaluating through the primitive
core keeps the two zeta routes used elsewhere (Hurwitz sums vs character
orthogonality) consistent: level moduli always have prime support exactly S,
so no Euler factor is dropped or counted twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .cyclotomic import CyclotomicNumber, cyclo_reduce_rational
from .exact import bernoulli_poly, poly_eval
from .units import UnitGroup, divisors, is_prime, unit_group

__all__ = [
    "DirichletCharacter",
    "PrimitiveData",
    "characters_of",
    "conductor_primitive",
    "generalized_bernoulli",
    "l_value_neg",
    "series_coefficients",
]


class DirichletCharacter:
    """A character of (Z/f)^x, f >= 1, given by generator exponents."""

    __slots__ = ("group", "exponents")

    def __init__(self, group: UnitGroup, exponents: tuple[int, ...]):
        if len(exponents) != len(group.generators):
            raise ValueError("exponent tuple does not match generator count")
        self.group = group
        self.exponents = tuple(e % o for e, o in zip(exponents, group.orders))

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def ambient_order(self) -> int:
        return self.group.exponent

    def exponent_at(self, a: int) -> int:
        """t with chi(a) = zeta_n^t, n = ambient_order; ValueError on non-units."""
        n = self.ambient_order
        t = 0
        for e, o, d in zip(self.exponents, self.group.orders, self.group.dlog(a)):
            t += e * (n // o) * d
        return t % n

    def weights(self) -> tuple[int, ...]:
        """w_i = e_i·(n/o_i): chi(a) = zeta_n^t with t = sum_i w_i·dlog_i(a) mod n."""
        n = self.ambient_order
        return tuple(e * (n // o) for e, o in zip(self.exponents, self.group.orders))

    def value(self, a: int) -> CyclotomicNumber:
        return CyclotomicNumber.root(self.ambient_order, self.exponent_at(a))

    def order(self) -> int:
        return lcm(*(o // gcd(e, o) for e, o in zip(self.exponents, self.group.orders)))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.group is not other.group and self.modulus != other.modulus:
            raise ValueError("characters of different moduli")
        return DirichletCharacter(
            self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def inverse(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, tuple(-e for e in self.exponents))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, exponents={self.exponents})"


def characters_of(modulus: int, trivial_on: tuple[int, ...] = ()) -> tuple[DirichletCharacter, ...]:
    """All characters mod `modulus` that are trivial on the given residues.

    Deterministic order: lexicographic in the exponent tuples.
    """
    group = unit_group(modulus)
    out = []
    import itertools

    for exps in itertools.product(*(range(o) for o in group.orders)):
        chi = DirichletCharacter(group, exps)
        if all(chi.exponent_at(x) == 0 for x in trivial_on):
            out.append(chi)
    return tuple(out)


class PrimitiveData:
    """The primitive core chi* of a character: conductor plus a value table.

    Exponents stay in the ambient order n of the original group so that values
    from different characters of one level combine in a single Q(zeta_n).
    """

    __slots__ = ("conductor", "ambient_order", "_table")

    def __init__(self, conductor: int, ambient_order: int, table: dict[int, int]):
        self.conductor = conductor
        self.ambient_order = ambient_order
        self._table = table

    def exponent_at(self, a: int) -> int | None:
        """Exponent of chi*(a), or None when gcd(a, conductor) > 1 (value 0)."""
        return self._table.get(a % self.conductor)

    def value(self, a: int) -> CyclotomicNumber:
        t = self.exponent_at(a)
        if t is None:
            return CyclotomicNumber.zero(self.ambient_order)
        return CyclotomicNumber.root(self.ambient_order, t)


def conductor_primitive(chi: DirichletCharacter) -> PrimitiveData:
    """Smallest d | f through which chi factors, with the factored value table.

    Every unit mod f reduces to a unit mod d, and chi is constant on the
    fibres of that reduction, so chi*(x mod d) = chi(x).  The exponents come
    from one discrete log per class of (Z/f)^x.
    """
    f = chi.modulus
    group = chi.group
    n = chi.ambient_order
    weights = chi.weights()
    exponent = {x: sum(map(mul, weights, group.dlog(x))) % n for x in group.elements}
    for d in divisors(f):
        # trivial on the kernel of (Z/f)^x -> (Z/d)^x ?
        if any(t for x, t in exponent.items() if x % d == 1 % d):
            continue
        return PrimitiveData(d, n, {x % d: t for x, t in exponent.items()})
    raise ArithmeticError(f"{chi!r} does not factor through its own modulus")


@lru_cache(maxsize=None)
def _bernoulli_row(k: int, f: int) -> tuple[tuple[int, ...], int]:
    # f^(k-1) * B_k(a/f) for a = 0..f, as integers over one common denominator:
    # with D the lcm of the denominators of the coefficients b_m of B_k,
    # F(y) = D * f^k * B_k(y/f) = sum_m D*b_m * f^(k-m) * y^m has integer
    # coefficients, and f^(k-1) * B_k(a/f) = F(a) / (D * f)
    coeffs = bernoulli_poly(k)
    d = lcm(*(c.denominator for c in coeffs))
    poly = [c.numerator * (d // c.denominator) * f ** (k - m) for m, c in enumerate(coeffs)]
    return tuple(poly_eval(poly, a) for a in range(f + 1)), d * f


def generalized_bernoulli(prim: PrimitiveData, k: int) -> CyclotomicNumber:
    """B_{k,chi} = f^(k-1) sum_{a=1..f} chi(a) B_k(a/f) for the primitive chi.

    Each term lands in the integer bucket of its root exponent; the buckets
    are reduced modulo Phi_n once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f = prim.conductor
    n = prim.ambient_order
    nums, den = _bernoulli_row(k, f)
    sums = [0] * n
    for a in range(1, f + 1):
        t = prim.exponent_at(a)
        if t is not None:
            sums[t] += nums[a]
    return CyclotomicNumber.from_exponent_sums(n, sums, den)


def l_value_neg(chi: DirichletCharacter, k: int, s_primes: frozenset[int] | tuple[int, ...] = ()) -> CyclotomicNumber:
    """L_S(1-k, chi) = -B_{k,chi*}/k * prod_{q in S, q coprime to cond}(1 - chi*(q) q^(k-1)).

    Exact value in Q(zeta_n); rational for real chi.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prim = conductor_primitive(chi)
    n = prim.ambient_order
    val = generalized_bernoulli(prim, k).scale(Fraction(-1, k))
    for q in sorted(set(s_primes)):
        t = prim.exponent_at(q)
        if t is None:
            continue  # q divides the conductor: no Euler factor present
        factor = CyclotomicNumber.one(n) - CyclotomicNumber.root(n, t).scale(q ** (k - 1))
        val = val * factor
    return val


def series_coefficients(
    prims: tuple[PrimitiveData, ...], bound: int, s_primes: tuple[int, ...] = ()
) -> list[int]:
    """Dirichlet-series coefficients a_1..a_bound of prod_i L_S(s, chi_i).

    Expands the Euler product over primes q <= bound outside S; the result of
    multiplying a Galois-stable family is asserted to be a rational integer in
    every degree.  Index 0 of the returned list is unused (set to 0).
    """
    if not prims:
        raise ValueError("need at least one character")
    n = prims[0].ambient_order
    skip = set(s_primes)
    coeffs: list[CyclotomicNumber] = [CyclotomicNumber.zero(n) for _ in range(bound + 1)]
    if bound >= 1:
        coeffs[1] = CyclotomicNumber.one(n)
    for q in range(2, bound + 1):
        if not is_prime(q) or q in skip:
            continue
        # local factor prod_i (1 - chi_i(q) T)^(-1) as a power series in T = q^{-s}
        max_j = 0
        qq = 1
        while qq * q <= bound:
            qq *= q
            max_j += 1
        local = _local_inverse_series(prims, q, max_j, n)
        # multiply into coeffs along q-power fibers (standard Euler sieve)
        for m in range(bound, 0, -1):
            if m % q == 0:
                continue
            base = coeffs[m]
            if base.is_zero():
                continue
            mq = m
            for j in range(1, max_j + 1):
                mq *= q
                if mq > bound:
                    break
                coeffs[mq] = coeffs[mq] + base * local[j]
    out = [0] * (bound + 1)
    for m in range(1, bound + 1):
        value = cyclo_reduce_rational(coeffs[m])
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral series coefficient at {m}: {value}")
        out[m] = int(value)
    return out


def _local_inverse_series(
    prims: tuple[PrimitiveData, ...], q: int, max_j: int, n: int
) -> list[CyclotomicNumber]:
    # coefficients of prod_i (1 - chi_i(q) T)^(-1) up to T^max_j
    poly = [CyclotomicNumber.one(n)]
    for prim in prims:
        v = prim.value(q)
        new = [CyclotomicNumber.zero(n) for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            new[i] = new[i] + c
            new[i + 1] = new[i + 1] - c * v
        poly = new
    # invert the polynomial as a power series: s with poly * s = 1
    series = [CyclotomicNumber.one(n)]
    for j in range(1, max_j + 1):
        acc = CyclotomicNumber.zero(n)
        for i in range(1, min(j, len(poly) - 1) + 1):
            acc = acc + poly[i] * series[j - i]
        series.append(-acc)
    return series
