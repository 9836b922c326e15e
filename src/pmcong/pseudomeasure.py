"""Finite-level pseudomeasure approximations and the transfer congruence.

The approximation attached to a Frobenius pick g at a level with modulus
exponent a is the group-ring element

    λ_g = Σ_x Δ_g(1−k, δ^(x)) · ñ(x)^(−k) · x   in  (Z/p^a)[classes],

whose coefficients do not depend on the auxiliary k — that independence is a
theorem upstream and an acceptance check here, not an assumption.  The
transfer congruence compares, inside (Z/p^(a−1))[H]:

    s = λ_{h}|_(mod p^(a−1))  −  ver_*(λ_g),     h = ver(g),

against the trace ideal of the Σ-action.  At the abelian levels built here Σ
acts trivially on H, so the trace ideal is p·R and the verdict is coefficient
divisibility by p, witnessed by an explicit quotient certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import PValuation, p_valuation
from .groupring import GroupRing, GroupRingElement
from .levels import L_SIDE, Q_SIDE, FrobeniusChoice, LevelData, LocallyConstantFn
from .zeta import delta_of, delta_table, norm_residue

__all__ = [
    "FlagViolation",
    "IncompatibleLevels",
    "LevelTooShallow",
    "PseudomeasureApprox",
    "group_ring_for",
    "lambda_approx",
    "pairing",
    "project_level",
    "transfer_ring",
    "verify_delta_congruence",
    "verify_transfer_congruence",
]


class LevelTooShallow(ValueError):
    """The modulus exponent is too small for the requested comparison."""


class IncompatibleLevels(ValueError):
    """The two levels are not nested within one tower."""


class FlagViolation(ValueError):
    """A function is missing a required flag (even / p-integral)."""


@lru_cache(maxsize=None)
def group_ring_for(level: LevelData, side: str, modulus: int) -> GroupRing:
    f = level.modulus
    return GroupRing(
        level.classes(side),
        mul=lambda x, y: (x * y) % f,
        identity=1 % f,
        modulus=modulus,
    )


def reduce_fraction(value: Fraction, modulus: int, p: int) -> int:
    """Canonical residue of a p-integral rational mod a power of p."""
    v = Fraction(value)
    if v.denominator % p == 0:
        raise ArithmeticError(f"{v} is not p-integral and has no residue mod {modulus}")
    return (v.numerator * pow(v.denominator, -1, modulus)) % modulus


class PseudomeasureApprox:
    """λ_g at one level/side, with the ring element and its provenance."""

    __slots__ = ("level", "side", "g", "k", "modulus", "elt")

    def __init__(self, level, side, g, k, modulus, elt: GroupRingElement):
        self.level = level
        self.side = side
        self.g = g
        self.k = k
        self.modulus = modulus
        self.elt = elt

    def coefficient(self, cls: int) -> int:
        return self.elt.coefficient(cls)

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
    ring = group_ring_for(level, side, modulus)
    deltas = delta_table(level, side, g, k)
    coeffs = {}
    for x in level.classes(side):
        n_tilde = norm_residue(level, x)
        inv_nk = pow(pow(n_tilde, -1, modulus), k, modulus)
        coeffs[x] = reduce_fraction(deltas[x], modulus, p) * inv_nk
    return PseudomeasureApprox(level, side, g, k, modulus, ring.from_coeffs(coeffs))


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
        c = pm.elt.coefficient(x)
        if c:
            total += reduce_fraction(v, modulus, p) * c
    return total % modulus


def transfer_ring(level: LevelData, elt: GroupRingElement) -> GroupRingElement:
    """Pushforward along ver, landing in (Z/p^(a−1))[H]."""
    p, a = level.p, level.a
    if a < 2:
        raise LevelTooShallow("transfer comparison needs modulus exponent a ≥ 2")
    target = group_ring_for(level, L_SIDE, p ** (a - 1))
    return elt.map_group(level.transfer_class, target)


def project_level(
    fine: LevelData, side: str, elt: GroupRingElement, coarse: LevelData
) -> GroupRingElement:
    """Sum coefficients over the fibers of the class-group projection."""
    if (
        fine.p != coarse.p
        or fine.s_primes != coarse.s_primes
        or fine.modulus % coarse.modulus
        or fine.a < coarse.a
        or (fine.field is None) != (coarse.field is None)
    ):
        raise IncompatibleLevels(f"{coarse!r} is not a coarsening of {fine!r}")
    target = group_ring_for(coarse, side, coarse.p**coarse.a)
    return elt.map_group(lambda x: x % coarse.modulus, target)


def verify_transfer_congruence(level: LevelData, g: FrobeniusChoice, k: int = 2) -> dict:
    """End-to-end check: ver_*(λ_g) ≡ λ_{ver(g)} modulo the trace ideal.

    Returns a report with the difference element s in (Z/p^(a−1))[H], the
    membership verdict (every coefficient divisible by p; at these levels the
    Σ-action on H is trivial, so the trace ideal is exactly p·R), and the
    quotient certificate α with p·α = s, re-verified before reporting.
    """
    p, a = level.p, level.a
    if a < 2:
        raise LevelTooShallow("the comparison ring (Z/p^(a−1))[H] needs a ≥ 2")
    h = g.transfer()
    lam_q = lambda_approx(level, Q_SIDE, g, k)
    lam_l = lambda_approx(level, L_SIDE, h, k)
    target_mod = p ** (a - 1)
    target = group_ring_for(level, L_SIDE, target_mod)
    s = lam_l.elt.reduce_to(target) - transfer_ring(level, lam_q.elt)

    difference = {y: s.coefficient(y) for y in level.h_classes}
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
