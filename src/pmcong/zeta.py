"""S-truncated partial zeta values at negative integers, Δ-operators, and the
summed-integrality test.

Base side (classes x of (Z/f)^×): the partial zeta value is the Hurwitz sum

    ζ_S(1−k, δ^(x)) = −f^(k−1) · B_k(a/f) / k,   a ∈ [1, f], a ≡ x (mod f),

valid because S is the prime support of f, so the congruence class already
encodes coprimality to S.  `_q_table` evaluates it in integers (one
homogeneous Horner pass per class, over one denominator).  A second, independent
route assembles the same value from character orthogonality and L-values;
the two must agree exactly.

Extension side (classes y of the index-p subgroup H): ideals of L enter only
through their norms, so the partial zeta value is assembled by Artin
induction at the finite level:

    ζ_{L,S}(1−k, δ^(y)) = |G|^{−1} · Σ_{ψ ∈ Ĝ} ψ(y)^{−1} · Π(ψ),

where Π(ψ) is the product of L_S(1−k, ·) over the p characters of G that
share the restriction ψ|_H.  The cyclotomic result is asserted rational;
NotRational propagating out of here signals broken character bookkeeping.

Both character sums are one Fourier transform on G = ∏_i C_(o_i)
(`_exponent_sums`).  Values live in Z[x]/(x^n − 1), n the exponent of G, as
one packed non-negative integer per cell, every slot raised by one bias that
rotations fix and that is subtracted once per class, so a root
multiplication is a rotation of bits.  The mixed-radix Cooley–Tukey
transforms, one per coordinate, cost |G|·Σ_i Σ(prime factors of o_i)
rotations per table; each class is then reduced modulo Φ_n once and asserted
rational.  The Hurwitz route (`_q_table`) shares none of this code and no
helper with `dirichlet`: both routes read only `exact.bernoulli_poly`.

No character sweeps all of (Z/f)^× on its own: the L-values of one
(modulus, k) come from one walk over the Galois orbits (`_l_values`), the
fibres over H are χ times the characters of G/H (`_l_fibers`), and the
primitive cores read one discrete-log table per modulus
(`conductor_primitive`).

Every table is integer numerators over one positive denominator, (class ↦
numerator, den), the form `CyclotomicNumber` uses.  Δ, λ and the twisted
sums read one Δ table per (level, side, n, k) built from it, n the integer
that is the Frobenius pick (`delta_numerators`).  A returned rational costs
one Fraction; nothing is summed in Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import mul

from .cyclotomic import CyclotomicNumber, pack_slots, signed_slots
from .dirichlet import DirichletCharacter, characters_of, l_value_neg
from .exact import bernoulli_poly, int_valuation
from .levels import L_SIDE, Q_SIDE, LevelData, LocallyConstantFn
from .units import euler_phi, factorize, unit_group

__all__ = [
    "HypothesisViolated",
    "delta_numerators",
    "delta_of",
    "delta_sum_integrality",
    "delta_table",
    "norm_residue",
    "partial_zeta",
    "partial_zeta_q_characters",
    "scaled_zeta_of",
]


class HypothesisViolated(ValueError):
    """The twisted-sum precondition of the integrality test fails."""


@lru_cache(maxsize=None)
def _l_values(modulus: int, k: int) -> dict[tuple[int, ...], CyclotomicNumber]:
    """χ ↦ L_S(1−k, χ) in Q(ζ_n) for every character χ mod the modulus, keyed
    by exponent tuple, n the exponent of (Z/modulus)^×: one `l_value_neg` per
    Galois orbit.

    S is the prime support of the modulus: classes are coprime to it, so the
    character decomposition of a one-class sum needs the Euler factor of
    every prime of the modulus removed (for imprimitive characters these are
    the level-imprimitivity factors; `l_value_neg` skips conductor primes).

    Conjugate characters have conjugate L-values: for χ = ρ^a with a prime to
    n, L_S(1−k, χ) = σ_a(L_S(1−k, ρ)), σ_a: ζ_n ↦ ζ_n^a, since the Bernoulli
    sum and every Euler factor are rational combinations of character values
    and the conductor is the same (Washington, §4.1).  In lexicographic order
    the first tuple without a value is the least of its orbit, ρ; σ_a of its
    L-value fills the orbit's φ(ord ρ) members ρ^a, so the walk over a stops
    as soon as they are all filled.
    """
    group = unit_group(modulus)
    n = group.exponent
    s_primes = tuple(factorize(modulus))
    values: dict[tuple[int, ...], CyclotomicNumber] = {}
    for rep in itertools.product(*(range(o) for o in group.orders)):
        if rep in values:
            continue
        rho = DirichletCharacter(group, rep)
        value = l_value_neg(rho, k, s_primes)
        size = euler_phi(rho.order())
        for a in range(1, n + 1):
            if gcd(a, n) == 1:
                member = tuple(a * e % o for e, o in zip(rep, group.orders))
                if member not in values:
                    values[member] = value.conjugate(a)
                    size -= 1
                    if not size:
                        break
    return values


@lru_cache(maxsize=None)
def _q_table(level: LevelData, k: int) -> tuple[dict[int, int], int]:
    """The Hurwitz route: (nums, den) with nums[x] / den = −f^(k−1)·B_k(a/f)/k,
    a ∈ [1, f] the representative of x.

    With D the lcm of the denominators of the coefficients b_j of B_k and
    N_j = D·b_j, f^(k−1)·B_k(a/f) = Σ_j N_j·a^j·f^(k−j) / (D·f); the sum is
    one homogeneous integer Horner pass per class, negated over den = D·f·k.
    Nothing here is shared with the character route.
    """
    f = level.modulus
    coeffs = bernoulli_poly(k)
    d = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (d // c.denominator) for c in coeffs]
    # Horner from the top: acc ← acc·a + N_j·f^(k−j) for j = k−1, …, 0
    steps = [(nums[j], f ** (k - j)) for j in reversed(range(k))]
    table = {}
    for cls in level.classes(Q_SIDE):
        a = cls if cls >= 1 else f
        acc = nums[k]
        for n_j, f_power in steps:
            acc = acc * a + n_j * f_power
        table[cls] = -acc
    return table, d * f * k


def _dft(line: list[int], step: int, order: int, width: int) -> list[int]:
    """X(l) = Σ_e a(e)·ζ_n^(−e·l·step) for one packed line a, n = order.

    Mixed-radix Cooley–Tukey: with r the least prime factor of the length
    N = r·m and a split into the r decimated lines a(r·e' + j), each output is
    X(l) = Σ_j ζ_n^(−j·l·step)·Y_j(l mod m), Y_j the length-m transform of
    line j at the root ζ_n^(r·step).  That is N·(r − 1) rotations per stage.
    A rotation by t slots is multiplication by ζ_n^t in Z[x]/(x^n − 1).
    """
    size = len(line)
    if size == 1:
        return line
    r = min(factorize(size))
    m = size // r
    parts = [_dft(line[j::r], step * r, order, width) for j in range(r)]
    out = parts[0] * r
    span = order * width
    full = (1 << span) - 1
    for j in range(1, r):
        sub = parts[j]
        for l in range(size):
            shift = -j * l * step % order * width
            a = sub[l % m]
            out[l] += ((a << shift) & full) | (a >> (span - shift))
    return out


def _exponent_sums(order: int, terms: list[tuple[DirichletCharacter, int, CyclotomicNumber]], classes):
    """(den, the pairs (x, s_x)), with Σ_t s_x[t]·ζ_n^t = den·Σ w·χ(x)⁻¹·V over the terms (χ, w, V).

    den is the lcm of the denominators of every V.  Term (χ, w, V) puts the
    integer-scaled numerators w·(den/V.den)·V at χ's exponent tuple on the
    grid ∏_i C_(o_i) of (Z/f)^×; every other tuple is zero.  One transform
    per coordinate i (row–column) replaces the tuples e by the sums
    Σ_e a(e)·ζ_n^(−Σ_i e_i·(n/o_i)·l_i), and class x reads position
    l = dlog(x).

    Each cell is one packed non-negative integer whose every slot carries the
    bias top = max|numerator|, so it starts in [0, 2·top].  Rotations fix the
    all-top vector, so after the transform each slot carries exactly |G|·top
    above its sum, and a class reads the signed slots of its cell minus that
    offset.  With width bit_length(|G|·top) + 1, a biased slot (at most
    2·|G|·top) stays below 2^width and never carries into the next, and an
    unbiased one (|G|·top < 2^(width−1) in absolute value) reads back exactly.
    """
    group = terms[0][0].group
    den = lcm(*(v.den for _, _, v in terms))
    size = len(group.elements)
    top = max(w * (den // v.den) * max(map(abs, v.nums)) for _, w, v in terms)
    width = (size * top).bit_length() + 1
    strides = []  # row-major: the tuple e sits in cell Σ_i e_i·strides[i]
    stride = size
    for o in group.orders:
        stride //= o
        strides.append(stride)
    bias = pack_slots([top] * order, width)
    cells = [bias] * size
    for chi, w, v in terms:
        cell = sum(map(mul, chi.exponents, strides))
        cells[cell] = bias + w * (den // v.den) * pack_slots(v.nums, width)
    for o, stride in zip(group.orders, strides):
        block = o * stride
        for start in range(0, size, block):
            for first in range(start, start + stride):
                line = slice(first, first + block, stride)
                cells[line] = _dft(cells[line], order // o, order, width)
    offset = size * bias

    def read():
        for x in classes:
            cell = sum(map(mul, group.dlog(x), strides))
            yield x, signed_slots(cells[cell] - offset, order, width)

    return den, read()


def _orthogonality_table(
    order: int,
    terms: list[tuple[DirichletCharacter, int, CyclotomicNumber]],
    classes: tuple[int, ...],
    size: int,
) -> tuple[dict[int, int], int]:
    """(nums, den·size) with nums[x] / (den·size) = (Σ w·χ(x)⁻¹·V) / size over
    the terms (χ, w, V), den the lcm of the V's denominators.

    The exponent sums of every class come from one packed transform
    (`_exponent_sums`); each class is reduced modulo Φ_n once and must be a
    rational integer (NotRational otherwise).
    """
    den, sums = _exponent_sums(order, terms, classes)
    nums = {x: int(CyclotomicNumber.from_exponent_sums(order, s).rational_part()) for x, s in sums}
    return nums, den * size


@lru_cache(maxsize=None)
def _q_table_characters(level: LevelData, k: int) -> tuple[dict[int, int], int]:
    """Independent route: character orthogonality on the full class group."""
    f = level.modulus
    chars = characters_of(f)
    values = _l_values(f, k)
    terms = [(chi, 1, values[chi.exponents]) for chi in chars]
    return _orthogonality_table(chars[0].ambient_order, terms, level.classes(Q_SIDE), len(chars))


@lru_cache(maxsize=None)
def _l_fibers(level: LevelData) -> tuple[tuple[DirichletCharacter, ...], ...]:
    """The characters mod the level's modulus grouped by their restriction to H.

    χ and χ' restrict alike to H exactly when χ'/χ is trivial on H, so the
    fibre of χ is χ·ψ over the [G : H] characters ψ of G/H
    (`characters_of(f, trivial_on=H)`, the trivial one first).  The grouping
    does not depend on k, so it is made once per level.
    """
    f = level.modulus
    chars = characters_of(f)
    quotient = characters_of(f, trivial_on=level.h_classes)
    group = chars[0].group
    remaining = {chi.exponents: chi for chi in chars}
    fibers = []
    for chi in chars:
        if chi.exponents in remaining:
            products = (
                tuple((e + d) % o for e, d, o in zip(chi.exponents, psi.exponents, group.orders))
                for psi in quotient
            )
            fibers.append(tuple(remaining.pop(key, None) for key in products))
    expected = max(len(chars) // len(level.h_classes), 1)
    if len(quotient) != expected or remaining or any(None in members for members in fibers):
        raise ArithmeticError(
            f"characters mod {f} do not fall into fibers of {expected} over the subgroup"
        )
    return tuple(fibers)


@lru_cache(maxsize=None)
def _l_table(level: LevelData, k: int) -> tuple[dict[int, int], int]:
    if level.field is None:
        raise ValueError("extension-side values need a level with field data")
    f = level.modulus
    chars = characters_of(f)
    values = _l_values(f, k)
    terms = []
    for members in _l_fibers(level):
        prod = values[members[0].exponents]
        for psi in members[1:]:
            prod = prod * values[psi.exponents]
        # every member shares ψ(y) for y ∈ H; weight once per member
        terms.append((members[0], len(members), prod))
    return _orthogonality_table(chars[0].ambient_order, terms, level.h_classes, len(chars))


def partial_zeta(level: LevelData, side: str, cls: int, k: int) -> Fraction:
    """ζ_S(1−k, δ^(cls)) on the requested side."""
    if k < 1:
        raise ValueError("k must be ≥ 1")
    nums, den = (_q_table if side == Q_SIDE else _l_table)(level, k)
    return Fraction(nums[cls % level.modulus], den)


def partial_zeta_q_characters(level: LevelData, cls: int, k: int) -> Fraction:
    """Dual-route base-side value (cross-check against the Hurwitz route)."""
    nums, den = _q_table_characters(level, k)
    return Fraction(nums[cls % level.modulus], den)


def _delta_numerator(
    level: LevelData, side: str, n: int | None, eps: LocallyConstantFn, k: int
) -> tuple[int, int]:
    """(N, D) with N / D = Σ_x ε(x)·Δ_g(1−k, δ^(x)) = Δ_g(1−k, ε) for the pick g
    of norm n; ζ(1−k, ε) when n is None.

    The sum runs over the support of ε.  D is the table's denominator times
    ε's.
    """
    if eps.level != level or eps.side != side:
        raise ValueError("function does not live on the requested level/side")
    if n is None:
        nums, den = (_q_table if side == Q_SIDE else _l_table)(level, k)
    else:
        nums, den = delta_numerators(level, side, n, k)
    return sum(c * nums[x] for x, c in eps.nums.items()), den * eps.den


def scaled_zeta_of(level: LevelData, side: str, eps: LocallyConstantFn, k: int) -> Fraction:
    """ζ(1−k, ε) = Σ_x ε(x)·ζ(1−k, δ^(x)), scaled by 2^{−r}: r = 1 on the base, p on L."""
    r = 1 if side == Q_SIDE else level.p
    num, den = _delta_numerator(level, side, None, eps, k)
    return Fraction(num, den * 2**r)


def delta_of(level: LevelData, side: str, n: int, eps: LocallyConstantFn, k: int) -> Fraction:
    """Δ_g(1−k, ε) = ζ(1−k, ε) − n^k · ζ(1−k, ε_g), with ε_g(x) = ε(g·x), for
    the pick g of norm n."""
    return Fraction(*_delta_numerator(level, side, n, eps, k))


@lru_cache(maxsize=None)
def delta_numerators(level: LevelData, side: str, n: int, k: int) -> tuple[dict[int, int], int]:
    """(nums, den) with Δ_g(1−k, δ^(x)) = nums[x] / den for every class x of the side.

    The Frobenius pick g is the symbol of the positive integer n: it enters
    only through its norm n and its class g = n mod f, which must be a unit,
    and lie in H on the extension side (ValueError otherwise).  Two picks of
    one class with different norms give different tables, since n^k enters.
    This is the one place a pick is read and the one place Δ is computed.

    Shifting the indicator moves its support: (δ^(x))_g = δ^(g⁻¹x), so each
    entry needs just two partial zeta values, read as integers over the
    table's one denominator.
    """
    if n < 1:
        raise ValueError("the norm value must be a positive integer")
    g = level.class_of(n)
    if side == L_SIDE and not level.in_h(g):
        raise ValueError(f"extension-side Δ needs a pick inside the subgroup H, not class {g}")
    nums, den = (_q_table if side == Q_SIDE else _l_table)(level, k)
    f = level.modulus
    g_inv = pow(g, -1, f) if f > 1 else 0
    nk = n**k
    return {x: nums[x] - nk * nums[g_inv * x % f] for x in level.classes(side)}, den


def delta_table(level: LevelData, side: str, n: int, k: int) -> dict[int, Fraction]:
    """Δ_g(1−k, δ^(x)) for every class x of the side (see `delta_numerators`)."""
    nums, den = delta_numerators(level, side, n, k)
    return {x: Fraction(c, den) for x, c in nums.items()}


def norm_residue(level: LevelData, cls: int) -> int:
    """Finite-level cyclotomic-character value: the class mod p^a, in [1, p^a]."""
    mod = level.norm_exponent_modulus()
    r = cls % mod
    return r if r else mod


def delta_sum_integrality(
    level: LevelData,
    side: str,
    n: int,
    eps_by_k: dict[int, LocallyConstantFn],
) -> int | float:
    """Valuation of Σ_k Δ_g(1−k, ε_k) under the twisted-sum hypothesis (``inf`` for 0),
    g the pick of norm n.

    Hypothesis checked per class x: v_p(Σ_k ε_k(x)·ñ(x)^(k−1)) ≥ 0, with ñ(x)
    the norm residue mod p^a, on the union of the supports (elsewhere it is 0).
    Using the finite residue in place of the full norm is sound only when no
    ε_k has a denominator worse than p^a — the residue then determines the
    sum's integrality — so v_p(ε_k) ≥ −a is part of the check.  Violations
    raise instead of returning a misleading verdict.
    """
    if not level.scenario:
        raise ValueError("the twisted-sum check needs a scenario level")
    p, a = level.p, level.a
    for k, eps in eps_by_k.items():
        if k < 1:
            raise ValueError("k must be ≥ 1")
        if eps.den % p ** (a + 1) == 0:
            raise HypothesisViolated(
                f"ε_{k} has a denominator beyond p^{a}; the finite level cannot "
                "certify the twisted-sum hypothesis"
            )
    # the twisted sums as integers over the lcm of every ε_k's denominator
    scale = lcm(*(eps.den for eps in eps_by_k.values()))
    scale_valuation = int_valuation(scale, p)
    for x in sorted(set().union(*(eps.nums for eps in eps_by_k.values()))):
        n_tilde = norm_residue(level, x)
        twisted = sum(
            eps.nums[x] * (scale // eps.den) * n_tilde ** (k - 1)
            for k, eps in eps_by_k.items()
            if x in eps.nums
        )
        if twisted and int_valuation(twisted, p) < scale_valuation:
            raise HypothesisViolated(f"twisted sum at class {x} is not p-integral")
    parts = [_delta_numerator(level, side, n, eps, k) for k, eps in eps_by_k.items()]
    den = lcm(*(d for _, d in parts))
    total = sum(num * (den // d) for num, d in parts)
    if not total:
        return inf
    return int_valuation(total, p) - int_valuation(den, p)
