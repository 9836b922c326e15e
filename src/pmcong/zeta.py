"""S-truncated partial zeta values at negative integers, Δ-operators, and the
summed-integrality test.

Base side (classes x of (Z/f)^×): the partial zeta value is the Hurwitz sum

    ζ_S(1−k, δ^(x)) = −f^(k−1) · B_k(a/f) / k,   a ∈ [1, f], a ≡ x (mod f),

valid because S is the prime support of f, so the congruence class already
encodes coprimality to S.  A second, independent route assembles the same
value from character orthogonality and L-values; the two must agree exactly.

Extension side (classes y of the index-p subgroup H): ideals of L enter only
through their norms, so the partial zeta value is assembled by Artin
induction at the finite level:

    ζ_{L,S}(1−k, δ^(y)) = |G|^{−1} · Σ_{ψ ∈ Ĝ} ψ(y)^{−1} · Π(ψ),

where Π(ψ) is the product of L_S(1−k, ·) over the p characters of G that
share the restriction ψ|_H.  The cyclotomic result is asserted rational;
NotRational propagating out of here signals broken character bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .cyclotomic import CyclotomicNumber, cyclo_reduce_rational
from .dirichlet import DirichletCharacter, characters_of, l_value_neg
from .exact import PValuation, Rational, bernoulli_poly_at, p_valuation
from .levels import L_SIDE, Q_SIDE, FrobeniusChoice, LevelData, LocallyConstantFn
from .units import factorize, unit_group

__all__ = [
    "HypothesisViolated",
    "delta_of",
    "delta_sum_integrality",
    "delta_table",
    "norm_residue",
    "partial_zeta",
    "partial_zeta_q_characters",
    "scaled_zeta_of",
    "zeta_of",
]


class HypothesisViolated(ValueError):
    """The twisted-sum precondition of the integrality test fails."""


@lru_cache(maxsize=None)
def _orbit_representative(modulus: int, exponents: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(ρ, a) with χ = ρ^a, ρ the least exponent tuple in the Galois orbit {χ^b : b ∈ (Z/n)^×}."""
    group = unit_group(modulus)
    n = group.exponent
    rep, b = min(
        (tuple(b * e % o for e, o in zip(exponents, group.orders)), b)
        for b in range(1, n + 1)
        if gcd(b, n) == 1
    )
    return rep, pow(b, -1, n)


@lru_cache(maxsize=None)
def _l_value(modulus: int, exponents: tuple[int, ...], k: int):
    """L_S(1−k, χ) in Q(ζ_n), n the exponent of (Z/modulus)^×, one l_value_neg per Galois orbit.

    S is the prime support of the modulus: classes are coprime to it, so the
    character decomposition of a one-class sum needs the Euler factor of
    every prime of the modulus removed (for imprimitive characters these are
    the level-imprimitivity factors; `l_value_neg` skips conductor primes).

    Conjugate characters have conjugate L-values: for χ = ρ^a with a prime to
    n, L_S(1−k, χ) = σ_a(L_S(1−k, ρ)), σ_a: ζ_n ↦ ζ_n^a, since the Bernoulli
    sum and every Euler factor are rational combinations of character values
    and the conductor is the same (Washington, §4.1).  So `l_value_neg` runs
    on the orbit representative ρ only, and the rest are its conjugates.
    """
    rep, a = _orbit_representative(modulus, exponents)
    if rep != exponents:
        return _l_value(modulus, rep, k).conjugate(a)
    s_primes = tuple(factorize(modulus))
    return l_value_neg(DirichletCharacter(unit_group(modulus), exponents), k, s_primes)


@lru_cache(maxsize=None)
def _q_table(level: LevelData, k: int) -> dict[int, Fraction]:
    f = level.modulus
    table = {}
    for cls in level.classes(Q_SIDE):
        a = cls if cls >= 1 else f
        table[cls] = -(Fraction(f) ** (k - 1)) * bernoulli_poly_at(k, Fraction(a, f)) / k
    return table


def _orthogonality_table(
    order: int,
    terms: list[tuple[DirichletCharacter, int, CyclotomicNumber]],
    classes: tuple[int, ...],
    size: int,
) -> dict[int, Fraction]:
    """x ↦ (Σ w·χ(x)⁻¹·V) / size over the terms (χ, w, V), asserted rational.

    The integer numerators of every V are brought once to the lcm of the
    denominators of all V.  Per class, numerator j of V (weight w) lands in
    the integer bucket of root exponent j − χ(x), and the buckets are reduced
    modulo Φ_n once per class.  χ(x) is read from one discrete log per class.
    """
    group = terms[0][0].group
    den = lcm(*(v.den for _, _, v in terms))
    scaled = [
        (chi.weights(), [(j, w * c * (den // v.den)) for j, c in enumerate(v.nums) if c])
        for chi, w, v in terms
    ]
    table = {}
    for x in classes:
        logs = group.dlog(x)
        sums = [0] * order
        for weights, coords in scaled:
            e = sum(map(mul, weights, logs))
            for j, c in coords:
                sums[(j - e) % order] += c
        value = CyclotomicNumber.from_exponent_sums(order, sums, den * size)
        table[x] = cyclo_reduce_rational(value)
    return table


@lru_cache(maxsize=None)
def _q_table_characters(level: LevelData, k: int) -> dict[int, Fraction]:
    """Independent route: character orthogonality on the full class group."""
    f = level.modulus
    chars = characters_of(f)
    terms = [(chi, 1, _l_value(f, chi.exponents, k)) for chi in chars]
    return _orthogonality_table(chars[0].ambient_order, terms, level.classes(Q_SIDE), len(chars))


@lru_cache(maxsize=None)
def _l_fibers(level: LevelData) -> tuple[tuple[DirichletCharacter, ...], ...]:
    """The characters mod the level's modulus grouped by their restriction to H.

    The grouping does not depend on k, so it is made once per level.
    """
    f = level.modulus
    chars = characters_of(f)
    order = chars[0].ambient_order
    h = level.h_classes
    h_logs = [chars[0].group.dlog(y) for y in h]
    fibers: dict[tuple[int, ...], list[DirichletCharacter]] = {}
    for chi in chars:
        weights = chi.weights()
        restriction = tuple(sum(map(mul, weights, logs)) % order for logs in h_logs)
        fibers.setdefault(restriction, []).append(chi)
    expected = max(len(chars) // len(h), 1)
    if any(len(members) != expected for members in fibers.values()):
        raise ArithmeticError(
            f"characters mod {f} do not fall into fibers of {expected} over the subgroup"
        )
    return tuple(tuple(members) for members in fibers.values())


@lru_cache(maxsize=None)
def _l_table(level: LevelData, k: int) -> dict[int, Fraction]:
    if level.field is None:
        raise ValueError("extension-side values need a level with field data")
    f = level.modulus
    chars = characters_of(f)
    terms = []
    for members in _l_fibers(level):
        prod = _l_value(f, members[0].exponents, k)
        for psi in members[1:]:
            prod = prod * _l_value(f, psi.exponents, k)
        # every member shares ψ(y) for y ∈ H; weight once per member
        terms.append((members[0], len(members), prod))
    return _orthogonality_table(chars[0].ambient_order, terms, level.h_classes, len(chars))


def partial_zeta(level: LevelData, side: str, cls: int, k: int) -> Fraction:
    """ζ_S(1−k, δ^(cls)) on the requested side."""
    if k < 1:
        raise ValueError("k must be ≥ 1")
    if side == Q_SIDE:
        return _q_table(level, k)[cls % level.modulus]
    return _l_table(level, k)[cls % level.modulus]


def partial_zeta_q_characters(level: LevelData, cls: int, k: int) -> Fraction:
    """Dual-route base-side value (cross-check against the Hurwitz route)."""
    return _q_table_characters(level, k)[cls % level.modulus]


def zeta_of(level: LevelData, side: str, eps: LocallyConstantFn, k: int) -> Fraction:
    """Linear extension of partial_zeta to a locally constant function."""
    if eps.level != level or eps.side != side:
        raise ValueError("function does not live on the requested level/side")
    table = _q_table(level, k) if side == Q_SIDE else _l_table(level, k)
    return sum((v * table[x] for x, v in eps.support.items()), Fraction(0))


def scaled_zeta_of(level: LevelData, side: str, eps: LocallyConstantFn, k: int) -> Fraction:
    """Archimedean normalization 2^{−r}: r = 1 on the base, p on the extension."""
    r = 1 if side == Q_SIDE else level.p
    return zeta_of(level, side, eps, k) / 2**r


def delta_of(
    level: LevelData, side: str, g: FrobeniusChoice, eps: LocallyConstantFn, k: int
) -> Fraction:
    """Δ_g(1−k, ε) = ζ(1−k, ε) − n^k · ζ(1−k, ε_g), with ε_g(x) = ε(g·x)."""
    if side == L_SIDE and not level.in_h(g.cls):
        raise ValueError("extension-side Δ needs a pick inside the subgroup")
    shifted = eps.shift(g.cls)
    return zeta_of(level, side, eps, k) - g.n**k * zeta_of(level, side, shifted, k)


def delta_table(
    level: LevelData, side: str, g: FrobeniusChoice, k: int
) -> dict[int, Fraction]:
    """Δ_g(1−k, δ^(x)) for every class x of the side.

    Shifting the indicator moves its support: (δ^(x))_g = δ^(g⁻¹x), so each
    entry needs just two partial zeta values.
    """
    f = level.modulus
    table = _q_table(level, k) if side == Q_SIDE else _l_table(level, k)
    g_inv = pow(g.cls, -1, f) if f > 1 else 0
    out = {}
    for x in level.classes(side):
        out[x] = table[x] - g.n**k * table[(g_inv * x) % f]
    return out


def norm_residue(level: LevelData, cls: int) -> int:
    """Finite-level cyclotomic-character value: the class mod p^a, in [1, p^a]."""
    mod = level.norm_exponent_modulus()
    r = cls % mod
    return r if r else mod


def delta_sum_integrality(
    level: LevelData,
    side: str,
    g: FrobeniusChoice,
    eps_by_k: dict[int, LocallyConstantFn],
) -> PValuation:
    """Valuation of Σ_k Δ_g(1−k, ε_k) under the twisted-sum hypothesis.

    Hypothesis checked per class x: v_p(Σ_k ε_k(x)·ñ(x)^(k−1)) ≥ 0, with ñ(x)
    the norm residue mod p^a, on the union of the supports (elsewhere it is 0).
    Using the finite residue in place of the full norm is sound only when no
    ε_k has a denominator worse than p^a — the residue then determines the
    sum's integrality — so v_p(ε_k) ≥ −a is part of the check.  Violations
    raise instead of returning a misleading verdict.
    """
    if not level.scenario:
        raise ValueError("the twisted-sum check needs a scenario level")
    p = level.p
    a = level.a
    for k, eps in eps_by_k.items():
        if k < 1:
            raise ValueError("k must be ≥ 1")
        if eps.min_p_valuation() < -a:
            raise HypothesisViolated(
                f"ε_{k} has a denominator beyond p^{a}; the finite level cannot "
                "certify the twisted-sum hypothesis"
            )
    for x in sorted(set().union(*(eps.support for eps in eps_by_k.values()))):
        n_tilde = norm_residue(level, x)
        twisted = sum(
            (eps.support.get(x, 0) * n_tilde ** (k - 1) for k, eps in eps_by_k.items()),
            Fraction(0),
        )
        if p_valuation(twisted, p) < 0:
            raise HypothesisViolated(f"twisted sum at class {x} is not p-integral")
    total = sum(
        (delta_of(level, side, g, eps, k) for k, eps in eps_by_k.items()),
        Fraction(0),
    )
    return p_valuation(total, p)
