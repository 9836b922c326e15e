"""Finite-level pseudomeasure approximations and the transfer congruence.

The approximation attached to a Frobenius pick g at a level with modulus
exponent a is the residue table

    λ_g(x) = Δ_g(1−k, δ^(x)) · ñ(x)^(−k)  mod p^a,   x a class of the side,

whose values do not depend on the auxiliary k — that independence is a
theorem upstream and an acceptance check here, not an assumption.  The
transfer congruence compares, class by class on H:

    s(y) = λ_h(y) − Σ_{ver(x) = y} λ_g(x)  mod p^(a−1),     h = ver(g),

against the trace ideal of the Σ-action.  At the abelian levels built here Σ
acts trivially on H, so the trace ideal is p·(Z/p^(a−1))[H] and the verdict
is coefficient divisibility by p, witnessed by an explicit quotient
certificate.  Nothing here multiplies group-ring elements, so λ stays a plain
table; the group rings with nontrivial Σ-actions live in `sigma`.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import PValuation, p_valuation
from .levels import L_SIDE, Q_SIDE, FrobeniusChoice, LevelData, LocallyConstantFn
from .zeta import delta_of, delta_table, norm_residue

__all__ = [
    "FlagViolation",
    "IncompatibleLevels",
    "LevelTooShallow",
    "PseudomeasureApprox",
    "lambda_approx",
    "pairing",
    "project_level",
    "verify_delta_congruence",
    "verify_transfer_congruence",
]


class LevelTooShallow(ValueError):
    """The modulus exponent is too small for the requested comparison."""


class IncompatibleLevels(ValueError):
    """The two levels are not nested within one tower."""


class FlagViolation(ValueError):
    """A function is missing a required flag (even / p-integral)."""


def reduce_fraction(value: Fraction, modulus: int, p: int) -> int:
    """Canonical residue of a p-integral rational mod a power of p."""
    v = Fraction(value)
    if v.denominator % p == 0:
        raise ArithmeticError(f"{v} is not p-integral and has no residue mod {modulus}")
    return (v.numerator * pow(v.denominator, -1, modulus)) % modulus


class PseudomeasureApprox:
    """λ_g at one level/side: `coeffs` maps each class to its residue mod p^a."""

    __slots__ = ("level", "side", "g", "k", "modulus", "coeffs")

    def __init__(self, level, side, g, k, modulus, coeffs: dict[int, int]):
        self.level = level
        self.side = side
        self.g = g
        self.k = k
        self.modulus = modulus
        self.coeffs = coeffs

    def coefficient(self, cls: int) -> int:
        return self.coeffs.get(cls, 0)

    def __repr__(self) -> str:
        return (
            f"PseudomeasureApprox(side={self.side}, n={self.g.n}, k={self.k}, "
            f"mod {self.modulus})"
        )


def lambda_approx(level: LevelData, side: str, g: FrobeniusChoice, k: int) -> PseudomeasureApprox:
    """The finite-level pseudomeasure approximation for the pick g."""
    if not level.scenario:
        raise ValueError("pseudomeasure approximations need a scenario level")
    if k < 1:
        raise ValueError("k must be ≥ 1")
    p, a = level.p, level.a
    modulus = p**a
    deltas = delta_table(level, side, g, k)
    coeffs = {}
    for x in level.classes(side):
        n_tilde = norm_residue(level, x)
        inv_nk = pow(pow(n_tilde, -1, modulus), k, modulus)
        coeffs[x] = reduce_fraction(deltas[x], modulus, p) * inv_nk % modulus
    return PseudomeasureApprox(level, side, g, k, modulus, coeffs)


def pairing(eps: LocallyConstantFn, pm: PseudomeasureApprox) -> int:
    """⟨ε, λ⟩ = Σ_x ε(x)·λ(x) mod p^a, for p-integral ε on the same side."""
    if eps.level != pm.level or eps.side != pm.side:
        raise ValueError("function and pseudomeasure live on different domains")
    if not eps.p_integral:
        raise FlagViolation("pairing requires a p-integral function")
    modulus = pm.modulus
    p = pm.level.p
    total = 0
    for x, v in eps.support.items():
        c = pm.coefficient(x)
        if c:
            total += reduce_fraction(v, modulus, p) * c
    return total % modulus


def project_level(
    fine: LevelData, side: str, coeffs: dict[int, int], coarse: LevelData
) -> dict[int, int]:
    """Sum a residue table over the fibers of the class-group projection,
    landing in residues mod p^a of the coarse level."""
    if (
        fine.p != coarse.p
        or fine.s_primes != coarse.s_primes
        or fine.modulus % coarse.modulus
        or fine.a < coarse.a
        or (fine.field is None) != (coarse.field is None)
    ):
        raise IncompatibleLevels(f"{coarse!r} is not a coarsening of {fine!r}")
    modulus = coarse.p**coarse.a
    out = dict.fromkeys(coarse.classes(side), 0)
    for x, c in coeffs.items():
        y = x % coarse.modulus
        out[y] = (out[y] + c) % modulus
    return out


def verify_transfer_congruence(level: LevelData, g: FrobeniusChoice, k: int = 2) -> dict:
    """End-to-end check: ver_*(λ_g) ≡ λ_{ver(g)} modulo the trace ideal.

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
    h = g.transfer()
    lam_q = lambda_approx(level, Q_SIDE, g, k).coeffs
    lam_l = lambda_approx(level, L_SIDE, h, k).coeffs
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
        "n": g.n,
        "h_class": h.cls,
        "comparison_modulus": target_mod,
        "difference": difference,
        "certificate": certificate,
        "failing_classes": failing,
    }


def verify_delta_congruence(
    level: LevelData, g: FrobeniusChoice, eps_l: LocallyConstantFn, k: int
) -> PValuation:
    """Valuation of Δ_h(1−k, ε_L) − Δ_g(1−pk, ε_L∘ver); the claim is ≥ 1.

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
    h = g.transfer()
    lhs = delta_of(level, L_SIDE, h, eps_l, k)
    rhs = delta_of(level, Q_SIDE, g, eps_l.compose_transfer(), p * k)
    return p_valuation(lhs - rhs, p)
