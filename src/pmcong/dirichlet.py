"""Dirichlet characters and exact special values of their L-functions.

Characters mod f are stored as exponent tuples against the fixed generators of
(Z/f)^x; a value chi(a) is the root of unity zeta_n^t with n the group exponent
and t = chi.exponent_at(a).  Values are materialized into CyclotomicNumber
only when L-values are assembled.  Primitive cores read one discrete-log
table per modulus, shared by all its characters (`_reduction_table`).

Special values at nonpositive integers come from generalized Bernoulli numbers
attached to the primitive core chi* of chi,

    B_{k,chi} = f^(k-1) * sum_{a=1..f} chi(a) B_k(a/f),      f = conductor,
    L(1-k, chi) = -B_{k,chi*}/k,

(see e.g. Washington, "Introduction to Cyclotomic Fields", Ch. 4), with
S-truncation applied as explicit Euler factors (1 - chi*(q) q^(k-1)) for
primes q in S not dividing the conductor.  Evaluating through the primitive
core keeps the two zeta routes used elsewhere (Hurwitz sums vs character
orthogonality) consistent: level moduli always have prime support exactly S,
so no Euler factor is dropped or counted twice.  B_{k,chi} is summed in
integer buckets, one per root exponent, over one common denominator
(`_bernoulli_row`); that row belongs to the character route, and the
Hurwitz route in `zeta` keeps its own evaluation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul

from .cyclotomic import CyclotomicNumber
from .exact import bernoulli_poly, poly_eval
from .units import UnitGroup, divisors, unit_group

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

    def order(self) -> int:
        return lcm(*(o // gcd(e, o) for e, o in zip(self.exponents, self.group.orders)))

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


@lru_cache(maxsize=None)
def _reduction_table(modulus: int):
    """(logs, kernels) for (Z/modulus)^x, one table shared by all its characters.

    logs[i] is the discrete log of the i-th class of `group.elements`; kernels
    lists, for each divisor d of the modulus in ascending order, the positions
    of the classes = 1 mod d (the kernel of the reduction to (Z/d)^x).
    """
    group = unit_group(modulus)
    logs = tuple(group.dlog(x) for x in group.elements)
    kernels = tuple(
        (d, tuple(i for i, x in enumerate(group.elements) if x % d == 1 % d))
        for d in divisors(modulus)
    )
    return logs, kernels


def conductor_primitive(chi: DirichletCharacter) -> PrimitiveData:
    """Smallest d | f through which chi factors, with the factored value table.

    Every unit mod f reduces to a unit mod d, and chi is constant on the
    fibres of that reduction, so chi*(x mod d) = chi(x).  The exponents come
    from the modulus's shared discrete-log table, and chi factors through d
    when it is trivial on that table's kernel for d.
    """
    group = chi.group
    n = chi.ambient_order
    weights = chi.weights()
    logs, kernels = _reduction_table(chi.modulus)
    exponents = [sum(map(mul, weights, log)) % n for log in logs]
    for d, kernel in kernels:
        if any(exponents[i] for i in kernel):
            continue
        return PrimitiveData(d, n, {x % d: t for x, t in zip(group.elements, exponents)})
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
    val = generalized_bernoulli(prim, k).scale(Fraction(-1, k))
    for q in sorted(set(s_primes)):
        t = prim.exponent_at(q)
        if t is None:
            continue  # q divides the conductor: no Euler factor present
        val = val - val.mul_root(t).scale(q ** (k - 1))
    return val


def series_coefficients(
    prims: tuple[PrimitiveData, ...], bound: int, s_primes: tuple[int, ...] = ()
) -> list[int]:
    """Dirichlet-series coefficients a_1..a_bound of prod_i L_S(s, chi_i).

    One Dirichlet convolution per character, in exponent buckets: a_m is held
    as n integer counts, one per root zeta_n^t, and each d <= bound/m prime to
    S with chi*(d) = zeta_n^t adds a_m, shifted by t, into a_(m·d).  Each a_m
    is then reduced modulo Phi_n once; the product over a Galois-stable family
    must be a rational integer in every degree (NotRational otherwise).  Index
    0 of the returned list is unused (set to 0).
    """
    if not prims:
        raise ValueError("need at least one character")
    n = prims[0].ambient_order
    s_product = prod(s_primes)
    prime_to_s = [d for d in range(1, bound + 1) if gcd(d, s_product) == 1]
    series = [[0] * n for _ in range(bound + 1)]
    if bound >= 1:
        series[1][0] = 1
    for prim in prims:
        shifts = [(d, t) for d in prime_to_s if (t := prim.exponent_at(d)) is not None]
        new = [[0] * n for _ in range(bound + 1)]
        for m in range(1, bound + 1):
            counts = series[m]
            if not any(counts):
                continue
            for d, t in shifts:
                md = m * d
                if md > bound:
                    break
                new[md] = list(map(add, new[md], counts[n - t:] + counts[: n - t]))
        series = new
    out = [0] * (bound + 1)
    for m in range(1, bound + 1):
        # integer counts over denominator 1: a rational value is an integer
        out[m] = int(CyclotomicNumber.from_exponent_sums(n, series[m]).rational_part())
    return out
