"""Finite-level pseudomeasure approximations and the transfer congruence.

A Frobenius pick g is passed as its integer norm n (its class is n mod f,
and ver(g) is the pick n^p).  The approximation attached to g at a level
with modulus exponent a is the residue table

    λ_g(x) = Δ_g(1−k, δ^(x)) · ñ(x)^(−k)  mod p^a,   x a class of the side,

whose values do not depend on the auxiliary k — that independence is a
theorem upstream and an acceptance check here, not an assumption.  The
transfer congruence compares, class by class on H:

    s(y) = λ_h(y) − Σ_{ver(x) = y} λ_g(x)  mod p^(a−1),     h = ver(g),

against the trace ideal of the Σ-action.  At the abelian levels built here Σ
acts trivially on H, so the trace ideal is p·(Z/p^(a−1))[H] and the verdict
is coefficient divisibility by p, witnessed by an explicit quotient
certificate.  Nothing here multiplies group-ring elements, so λ is a plain
class ↦ residue dict, cached per (level, side, n, k) like the Δ table it
reads; the group rings with nontrivial Σ-actions live in `sigma`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import int_valuation, p_valuation
from .levels import L_SIDE, Q_SIDE, LevelData, LocallyConstantFn
from .zeta import delta_numerators, delta_of, norm_residue

__all__ = [
    "FlagViolation",
    "LevelTooShallow",
    "lambda_approx",
    "verify_delta_congruence",
    "verify_transfer_congruence",
]


class LevelTooShallow(ValueError):
    """The modulus exponent is too small for the requested comparison."""


class FlagViolation(ValueError):
    """A function is missing a required flag (even / p-integral)."""


@lru_cache(maxsize=None)
def lambda_approx(level: LevelData, side: str, n: int, k: int) -> dict[int, int]:
    """λ_g at one level/side, g the pick of norm n: each class ↦ its residue mod p^a.

    A Δ that is not p-integral has no residue and raises `ArithmeticError`.
    """
    if not level.scenario:
        raise ValueError("pseudomeasure approximations need a scenario level")
    if k < 1:
        raise ValueError("k must be ≥ 1")
    p, a = level.p, level.a
    modulus = p**a
    nums, den = delta_numerators(level, side, n, k)
    # c / den = (c / p^e) / (den / p^e) with p^e ∥ den: p-integral iff p^e | c
    pe = p ** int_valuation(den, p)
    inv_den = pow(den // pe, -1, modulus)
    coeffs = {}
    for x, c in nums.items():
        if c % pe:
            raise ArithmeticError(
                f"{Fraction(c, den)} is not p-integral and has no residue mod {modulus}"
            )
        n_tilde = norm_residue(level, x)
        inv_nk = pow(pow(n_tilde, -1, modulus), k, modulus)
        coeffs[x] = c // pe * inv_den % modulus * inv_nk % modulus
    return coeffs


def verify_transfer_congruence(level: LevelData, n: int, k: int = 2) -> dict:
    """End-to-end check: ver_*(λ_g) ≡ λ_{ver(g)} modulo the trace ideal, g the
    pick of norm n and ver(g) the pick of norm n^p.

    The difference s(y) = λ_h(y) − Σ_{ver(x) = y} λ_g(x) mod p^(a−1) is taken
    class by class on H, the inner sum running over the fibres of ver that
    `LevelData.transfer_fibers` holds.  Returns a report with s, the
    membership verdict (every value divisible by p; at these levels the
    Σ-action on H is trivial, so the trace ideal is exactly p·R), and the
    quotient certificate α with p·α = s, re-verified before reporting.
    """
    p, a = level.p, level.a
    if a < 2:
        raise LevelTooShallow("the comparison ring (Z/p^(a−1))[H] needs a ≥ 2")
    lam_q = lambda_approx(level, Q_SIDE, n, k)
    lam_l = lambda_approx(level, L_SIDE, n**p, k)
    target_mod = p ** (a - 1)
    fibers = level.transfer_fibers
    difference = {
        y: (lam_l[y] - sum(lam_q[x] for x in fibers.get(y, ()))) % target_mod
        for y in level.h_classes
    }
    failing = sorted(y for y, c in difference.items() if c % p)
    verdict = not failing
    certificate = {}
    if verdict:
        certificate = {y: c // p for y, c in difference.items()}
        if any(
            (p * certificate[y]) % target_mod != difference[y] for y in difference
        ):
            raise ArithmeticError("certificate failed re-verification")
    return {
        "verdict": verdict,
        "k": k,
        "n": n,
        "h_class": pow(n, p, level.modulus),
        "comparison_modulus": target_mod,
        "difference": difference,
        "certificate": certificate,
        "failing_classes": failing,
    }


def verify_delta_congruence(
    level: LevelData, n: int, eps_l: LocallyConstantFn, k: int
) -> int | float:
    """Valuation of Δ_h(1−k, ε_L) − Δ_g(1−pk, ε_L∘ver), ``math.inf`` if 0; the claim is ≥ 1.

    g is the pick of norm n and h = ver(g) the pick of norm n^p.

    ε_L must be even and p-integral (Σ-invariance is automatic at levels where
    the subgroup sits inside an abelian class group, and is therefore not a
    separate runtime flag).
    """
    if eps_l.side != L_SIDE:
        raise FlagViolation("the congruence compares extension-side functions")
    if not eps_l.even:
        raise FlagViolation("ε_L must be even")
    if not eps_l.p_integral:
        raise FlagViolation("ε_L must be p-integral")
    p = level.p
    lhs = delta_of(level, L_SIDE, n**p, eps_l, k)
    rhs = delta_of(level, Q_SIDE, n, eps_l.compose_transfer(), p * k)
    return p_valuation(lhs - rhs, p)
