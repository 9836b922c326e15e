"""Formal q-expansions: Eisenstein coefficients and the q-expansion congruence.

Nothing here is an analytic function — a "q-expansion" is a finite table of
exact rational coefficients indexed by positive integers (base side) or by
totally positive algebraic integers of bounded trace (extension side).
`eisenstein_q` and `eisenstein_l` assemble Eisenstein series from divisor
data and return each as a plain pair (constant, coefficients): a dict keyed
by μ on the base, and by ν.coords on the extension.  The extension side
holds only the ν whose trace lies in pZ up to the bound: those are the only
ν the congruence below reads.  Each coefficient is an integer sum over ε's
numerators (`LocallyConstantFn`), made one Fraction over ε's denominator.
The congruence concerns the difference

    E  =  thin_p(restrict(G_{k,ε_L}))  −  G_{pk, ε_L∘ver},

where restriction sums coefficients along the trace and thinning by p keeps
every p-th one.  `verify_qexp_congruence` assembles E one coefficient at a
time,

    E(μ)  =  Σ_{tr ν = p·μ} c_L(ν)  −  c_Q(μ)      (1 ≤ μ ≤ B),

with c_L the coefficients of G_{k,ε_L}, c_Q those of G_{pk,ε_L∘ver}, and
constant term c_L(0) − c_Q(0).  The claim is that every E(μ) is divisible
by p.  The verification reports the per-coefficient valuations (ints, and
``math.inf`` for a vanishing E(μ)) with the orbit bookkeeping that explains
them: Σ acts on the pairs (𝔟, ν) behind each coefficient; moved orbits
contribute p·(one term), and the fixed pairs are exactly the pairs (d·o_L, μ)
extended from the base, where the two sides agree up to the Fermat defect
d^{p(k−1)} − d^{pk−1} ≡ 0 mod p.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import p_valuation
from .levels import L_SIDE, Q_SIDE, LevelData, LocallyConstantFn
from .numberfield import (
    AlgebraicInt,
    IdealFactored,
    artin_symbol,
    enumerate_ideals,
    factor_principal,
    sigma_ideal,
    tot_pos_up_to,
)
from .pseudomeasure import FlagViolation
from .units import divisors
from .zeta import scaled_zeta_of

__all__ = [
    "NotEven",
    "NuTable",
    "eisenstein_l",
    "eisenstein_q",
    "verify_qexp_congruence",
]


class NotEven(ValueError):
    """Eisenstein assembly requires an even function."""


def eisenstein_q(
    level: LevelData, eps: LocallyConstantFn, k: int, bound: int
) -> tuple[Fraction, dict[int, Fraction]]:
    """G_{k,ε} on the base as (constant, {μ: c(μ)}) for 1 ≤ μ ≤ bound.

    The constant is 2⁻¹ζ(1−k, ε) and c(μ) = Σ_{d|μ, (d, f) = 1} ε(d)d^(k−1).
    """
    if eps.level != level or eps.side != Q_SIDE:
        raise ValueError("eisenstein_q needs a base-side function on this level")
    if not eps.even:
        raise NotEven("Eisenstein assembly requires an even function")
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer ≥ 2")
    if bound < 1:
        raise ValueError("bound must be ≥ 1")
    f = level.modulus
    constant = scaled_zeta_of(level, Q_SIDE, eps, k)
    coeffs = {}
    for mu in range(1, bound + 1):
        total = sum(
            eps.nums.get(d % f, 0) * d ** (k - 1) for d in divisors(mu) if math.gcd(d, f) == 1
        )
        coeffs[mu] = Fraction(total, eps.den)
    return constant, coeffs


class _MuOrbits(NamedTuple):
    """Σ-orbit bookkeeping of the (𝔟, ν) pairs with tr ν = p·μ, ε- and k-free."""

    pairs: int
    moved: tuple[tuple[int, int], ...]  # (norm, class) of one pair per moved orbit
    fixed: tuple[tuple[int | None, int, int], ...]  # (base divisor d or None, norm, class)
    fixed_match: bool
    base_divisors: tuple[int, ...]  # d | μ prime to the modulus


class NuTable:
    """Field-level data behind G_{k,ε_L} up to a trace bound, for every (ε, k).

    Built once per (level, trace bound); every weighting pass then only
    multiplies precomputed (norm, class) terms by ε(class)·norm^(k−1).  It
    holds the totally positive ν grouped by trace, for the traces p, 2p, …
    up to the bound (E(μ) reads no other ν), and, for each ν, two
    independent term lists: the S-coprime divisors of (ν) generated from its
    factorization, and the ideals of the separately enumerated pool that
    divide (ν) (the direct route).  For each μ ≤ trace_bound // p it also
    holds the Σ-orbit partition of the pairs (𝔟, ν) with tr ν = p·μ.  It
    does no file I/O; `harness` compares a cache directory with `by_trace`.
    """

    def __init__(self, level: LevelData, trace_bound: int):
        field = level.field
        if field is None:
            raise ValueError("this level carries no extension field")
        if trace_bound < 1:
            raise ValueError("trace bound must be ≥ 1")
        self.level = level
        self.trace_bound = trace_bound
        f = level.modulus
        p = level.p
        self.by_trace = tot_pos_up_to(field, trace_bound)

        factored: dict[tuple[int, ...], IdealFactored] = {}
        divisor_ideals: dict[tuple[int, ...], list[IdealFactored]] = {}
        for nus in self.by_trace.values():
            for nu in nus:
                factored[nu.coords] = factor_principal(field, nu)
                divisor_ideals[nu.coords] = factored[nu.coords].divisors(level.s_primes)
        self.divisors = {
            coords: tuple((b.norm(), artin_symbol(b, f)) for b in ideals)
            for coords, ideals in divisor_ideals.items()
        }

        # the direct route reads the enumerated pool, never the divisor lists;
        # |N(ν)| is the norm of (ν), whose valuations factor_principal checked
        max_norm = max((b.norm() for b in factored.values()), default=1)
        pool: dict[int, list[IdealFactored]] = {}
        for ideal in enumerate_ideals(field, max_norm, level.s_primes):
            pool.setdefault(ideal.norm(), []).append(ideal)
        self.direct = {}
        for coords, principal in factored.items():
            exps = dict(principal.factors)
            self.direct[coords] = tuple(
                (n, artin_symbol(ideal, f))
                for n in divisors(principal.norm())
                for ideal in pool.get(n, ())
                if all(exps.get(pr, 0) >= e for pr, e in ideal.factors)
            )

        self.orbits = {
            mu: _mu_orbits(level, mu, self.by_trace[p * mu], divisor_ideals, factored)
            for mu in range(1, trace_bound // p + 1)
        }

    def covers(self, level: LevelData, trace_bound: int) -> bool:
        """Whether this table holds every ν of trace in pZ up to trace_bound at `level`."""
        return self.level == level and trace_bound <= self.trace_bound


def _mu_orbits(level: LevelData, mu: int, nus, divisor_ideals, factored) -> _MuOrbits:
    """Σ-orbits of the pairs (𝔟, ν), 𝔟 ⊇ (ν) coprime to S, over the ν of trace p·μ."""
    field = level.field
    f = level.modulus
    p = level.p
    pairs = {
        (ideal.key(), nu.coords): (ideal, nu)
        for nu in nus
        for ideal in divisor_ideals[nu.coords]
    }
    seen = set()
    moved = []
    fixed = []
    for key, (ideal, nu) in sorted(pairs.items()):
        if key in seen:
            continue
        orbit = [key]
        cur_ideal, cur_nu = ideal, nu
        while True:
            cur_ideal = sigma_ideal(field, cur_ideal)
            cur_nu = cur_nu.sigma()
            nxt = (cur_ideal.key(), cur_nu.coords)
            if nxt == key:
                break
            orbit.append(nxt)
        seen.update(orbit)
        if len(orbit) == 1:
            fixed.append((ideal, nu))
        else:
            if len(orbit) != p:
                raise ArithmeticError("pair orbit of unexpected length")
            # norm and class are Σ-invariant: one pair stands for its orbit
            moved.append((ideal.norm(), artin_symbol(ideal, f)))

    # fixed pairs must be exactly the base-extended divisor pairs (d·o_L, μ);
    # d·o_L = (ν) for ν = d, of trace p·d ≤ p·μ, whose factorization the
    # caller already holds
    expected = {}
    for d in divisors(mu):
        if math.gcd(d, f) != 1:
            continue
        expected[factored[field.from_rational(d).coords].key()] = d
    got = {ideal.key() for ideal, _ in fixed}
    fixed_match = got == set(expected) and all(
        nu == field.from_rational(mu) for _, nu in fixed
    )
    return _MuOrbits(
        pairs=len(pairs),
        moved=tuple(moved),
        fixed=tuple(
            (expected.get(ideal.key()), ideal.norm(), artin_symbol(ideal, f))
            for ideal, _ in fixed
        ),
        fixed_match=fixed_match,
        base_divisors=tuple(expected.values()),
    )


def _weigh(terms, nums, k: int) -> int:
    """Σ nums[class]·norm^(k−1) over the (norm, class) terms whose class is in `nums`:
    ε's numerators weighed, to be made one Fraction over ε's denominator."""
    return sum(nums[cls] * norm ** (k - 1) for norm, cls in terms if cls in nums)


def _fraction_sum(values: list[Fraction]) -> Fraction:
    """Σ values as integers over the lcm of their denominators: one Fraction, not one per term."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def eisenstein_l(
    level: LevelData,
    eps_l: LocallyConstantFn,
    k: int,
    trace_bound: int,
    table: NuTable | None = None,
) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """G_{k,ε_L} on the extension as (constant, {ν.coords: c(ν)}).

    Here c(ν) = Σ_{𝔟 ⊇ (ν), 𝔟 coprime to S} ε_L(𝔟)N𝔟^(k−1), at the ν of
    trace p, 2p, … up to trace_bound, the only ones the q-expansion
    congruence reads.  ε_L is evaluated at the
    class-field symbol of 𝔟, the norm reduced to the level's modulus; that
    symbol always lands in the extension-side subgroup.  The divisor terms
    come from `table`, which is built here when not given.
    """
    if eps_l.level != level or eps_l.side != L_SIDE:
        raise ValueError("eisenstein_l needs an extension-side function on this level")
    if not eps_l.even:
        raise NotEven("Eisenstein assembly requires an even function")
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer ≥ 2")
    if trace_bound < 1:
        raise ValueError("trace bound must be ≥ 1")
    if table is None:
        table = NuTable(level, trace_bound)
    elif not table.covers(level, trace_bound):
        raise ValueError("the ν-table does not cover this level and trace bound")
    constant = scaled_zeta_of(level, L_SIDE, eps_l, k)
    coeffs = {}
    for t, nus in table.by_trace.items():
        if t <= trace_bound:
            for nu in nus:
                total = _weigh(table.divisors[nu.coords], eps_l.nums, k)
                coeffs[nu.coords] = Fraction(total, eps_l.den)
    return constant, coeffs


def verify_qexp_congruence(
    level: LevelData,
    eps_l: LocallyConstantFn,
    k: int,
    bound: int,
    table: NuTable | None = None,
) -> dict:
    """Per-coefficient p-valuations of E, with orbit bookkeeping and dual routes.

    Route one reads G_{k,ε_L} (built by `eisenstein_l` from the table's
    divisor lists) and G_{pk,ε_L∘ver} (built by `eisenstein_q` from the base
    divisors), and forms E(μ) = Σ_{tr ν = p·μ} c_L(ν) − c_Q(μ) for each
    1 ≤ μ ≤ bound.  Route two recomputes each E(μ) by direct pair
    enumeration over independently enumerated ideals, minus its own
    base-divisor terms for c_Q(μ); `routes_agree` says whether the two match.  The pairs are then decomposed into Σ-orbits,
    the fixed pairs are checked to be exactly the base-extended ones
    (d·o_L, μ) for d | μ prime to S, and E(μ) is confirmed to equal (moved
    orbit sums) + (Fermat defects), both visibly divisible by p.  The
    verdict needs v_p(E(μ)) ≥ 1 for every μ and all of these checks.
    `table` (built here when not given) must cover the trace bound p·bound.
    """
    p = level.p
    if not eps_l.p_integral:
        raise FlagViolation("the congruence requires a p-integral ε_L")
    if table is None:
        table = NuTable(level, p * bound)
    eps_q = eps_l.compose_transfer()
    upstairs_constant, upstairs = eisenstein_l(level, eps_l, k, p * bound, table=table)
    downstairs_constant, downstairs = eisenstein_q(level, eps_q, p * k, bound)
    # ε_L∘ver reads only the images of ver, so its denominator divides ε_L's:
    # both are read as numerators over ε_L's one denominator
    nums, den = eps_l.nums, eps_l.den
    nums_q = {x: c * (den // eps_q.den) for x, c in eps_q.nums.items()}
    f = level.modulus

    valuations = {}
    bookkeeping = {}
    routes_agree = True
    for mu in range(1, bound + 1):
        # E(μ): G_{k,ε_L} summed over tr ν = p·μ minus the μ-th coefficient of G_{pk}
        nus = table.by_trace[p * mu]
        upstairs_sum = _fraction_sum([upstairs[nu.coords] for nu in nus])
        coefficient = upstairs_sum - downstairs[mu]
        valuations[mu] = p_valuation(coefficient, p)
        orbits = table.orbits[mu]
        base_terms = {d: nums_q.get(d % f, 0) * d ** (p * k - 1) for d in orbits.base_divisors}

        # E(μ) again: pool terms over tr ν = p·μ minus G_{pk}'s base divisor terms
        direct = sum(_weigh(table.direct[nu.coords], nums, k) for nu in nus)
        if coefficient != Fraction(direct - sum(base_terms.values()), den):
            routes_agree = False

        moved_sum = Fraction(p * _weigh(orbits.moved, nums, k), den)
        defects = 0
        for d, norm, cls in orbits.fixed:
            if d is None:
                continue
            # ε_L is p-integral, so defect/den and defect have one p-valuation
            defect = nums.get(cls, 0) * norm ** (k - 1) - base_terms[d]
            if not p_valuation(defect, p) >= 1:
                raise ArithmeticError("Fermat defect not divisible by p")
            defects += defect
        fermat = Fraction(defects, den)

        bookkeeping[mu] = {
            "pairs": orbits.pairs,
            "moved_orbits": len(orbits.moved),
            "moved_sum": moved_sum,
            "fixed_pairs": len(orbits.fixed),
            "fixed_match_base_divisors": orbits.fixed_match,
            "fermat_defect": fermat,
            "identity_holds": coefficient == moved_sum + fermat,
        }

    verdict = (
        all(v >= 1 for v in valuations.values())
        and routes_agree
        and all(b["fixed_match_base_divisors"] for b in bookkeeping.values())
        and all(b["identity_holds"] for b in bookkeeping.values())
    )
    return {
        "verdict": verdict,
        "k": k,
        "weight_out": p * k,
        "bound": bound,
        "constant_term": upstairs_constant - downstairs_constant,
        "valuations": valuations,
        "routes_agree": routes_agree,
        "bookkeeping": bookkeeping,
    }
