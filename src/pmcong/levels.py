"""Finite abelian levels and locally constant functions on them.

A level models one layer of the admissible tower: the base-side class group
G = (Z/f)^× together with the index-p subgroup H cut out by the degree-p
field L (classes whose reduction mod f_L is a p-th power).  Two tiers exist:

* scenario levels enforce the full running hypotheses — p ∈ S, f_L ∈ S,
  modulus f = p^a · ∏_{q ∈ S∖{p}} q with a ≥ 1 — so that the depth invariant
  m = a holds;
* zeta levels take any modulus f ≥ 1 (and f_L | f when the extension side is
  used) and exist for oracle computations at bare moduli such as f = f_L.

Either way S is the prime support of f and p is the degree of L (0 without
a field).  Every class is a unit mod f, so congruence-class membership mod f
already encodes coprimality to S.

A function on a level is integer numerators over one positive denominator in
lowest terms, the numerators stored by their support (class ↦ nonzero int),
so indicators cost O(support).  Evenness (invariance under the class of −1)
compares numerators, and p-integrality reads the denominator alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .numberfield import AbelianFieldSpec, field_spec
from .units import euler_phi, factorize, is_prime, unit_group

__all__ = [
    "LevelData",
    "LocallyConstantFn",
    "check_zeta_arguments",
    "even_orbit_indicators",
    "grid_cap_error",
    "scenario_level",
    "scenario_modulus",
    "zeta_level",
]

Q_SIDE = "Q"
L_SIDE = "L"

# Largest grid |G|·n, classes times slots per class, that may be handed to
# the packed character transform of `zeta` (see `grid_cap_error`).
_MAX_GRID_SLOTS = 2**24


class LevelData:
    """One finite level: modulus, both class groups, and the field data.

    S is read off the modulus as its prime support, p off the field as its
    degree (0 without a field).
    """

    def __init__(self, field: AbelianFieldSpec | None, modulus: int, a: int):
        self.field = field
        self.modulus = modulus
        self.s_primes = frozenset(factorize(modulus))
        self.p = 0 if field is None else field.p
        self.a = a
        self.group = unit_group(modulus)
        if field is not None:
            h = tuple(
                x for x in self.group.elements if field.coset_of[x % field.conductor] == 0
            )
        else:
            h = self.group.elements
        self.h_classes = h
        self._h_set = frozenset(h)
        self._q_set = frozenset(self.group.elements)
        self.transfer_fibers: dict[int, list[int]] = {}  # y ↦ the x with ver(x) = y
        for x in self.group.elements:
            self.transfer_fibers.setdefault(self.transfer_class(x), []).append(x)

    @property
    def scenario(self) -> bool:
        """True for a `scenario_level` (a ≥ 1), false for a bare `zeta_level` (a = 0)."""
        return self.a > 0

    # -- class bookkeeping -----------------------------------------------------
    def classes(self, side: str) -> tuple[int, ...]:
        return self.group.elements if side == Q_SIDE else self.h_classes

    def class_of(self, n: int) -> int:
        cls = n % self.modulus
        if self.modulus > 1 and gcd(cls, self.modulus) != 1:
            raise ValueError(f"{n} is not a unit mod {self.modulus}")
        return cls

    def in_h(self, cls: int) -> bool:
        return cls in self._h_set

    def has_class(self, side: str, cls: int) -> bool:
        return cls in (self._q_set if side == Q_SIDE else self._h_set)

    def neg_class(self, cls: int) -> int:
        return (-cls) % self.modulus

    def transfer_class(self, cls: int) -> int:
        """ver on classes: the p-th power map into the index-p subgroup."""
        out = pow(cls, self.p, self.modulus)
        if self.field is not None and not self.in_h(out):
            raise ArithmeticError(f"the transfer of {cls} lands outside the subgroup H")
        return out

    def norm_exponent_modulus(self) -> int:
        if not self.scenario:
            raise ValueError("norm residues require a scenario level")
        return self.p**self.a

    # -- identity-ish plumbing ---------------------------------------------------
    def key(self) -> tuple:
        return (
            self.p,
            None if self.field is None else self.field.conductor,
            self.modulus,
            self.a,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LevelData) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"LevelData(p={self.p}, modulus={self.modulus}, "
            f"S={sorted(self.s_primes)}, a={self.a}, scenario={self.scenario})"
        )


def grid_cap_error(modulus: int) -> str | None:
    """Why the packed character transform of `zeta` cannot run mod `modulus`, or None.

    The grid holds |G| · n slots for G = (Z/modulus)^×: φ(modulus) classes of
    n slots each, n the exponent of G.  Both are read off the factorization,
    so the cap is checked before any unit group or field is built.
    """
    slots = 1
    for q, e in factorize(modulus).items():
        # (Z/q^e)^× is cyclic of order φ(q^e), except that its exponent is
        # 2^(e−2) for q = 2 and e ≥ 3
        order = (q - 1) * q ** (e - 1)
        slots = lcm(slots, order // 2 if q == 2 and e >= 3 else order)
    cells = euler_phi(modulus)
    if cells * slots <= _MAX_GRID_SLOTS:
        return None
    return (
        f"the character transform needs |G| · n = {cells} · {slots} = "
        f"{cells * slots} slots, above the cap {_MAX_GRID_SLOTS}"
    )


def scenario_modulus(p: int, conductor: int, s_primes: tuple[int, ...], a: int) -> int:
    """p^a · ∏_{q ∈ S, q ≠ p} q, once the hypotheses that need no field hold."""
    s = frozenset(s_primes)
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if p not in s:
        raise ValueError("S must contain p")
    if conductor not in s:
        raise ValueError("S must contain the ramified prime (the conductor of L)")
    if not all(is_prime(q) for q in s):
        raise ValueError("S must consist of primes")
    if a < 1:
        raise ValueError("p-exponent a must be ≥ 1")
    return p**a * prod(s - {p})


@lru_cache(maxsize=None)
def scenario_level(p: int, conductor: int, s_primes: tuple[int, ...], a: int) -> LevelData:
    """Full-hypothesis level with modulus `scenario_modulus(p, conductor, S, a)`."""
    modulus = scenario_modulus(p, conductor, s_primes, a)
    return LevelData(field_spec(p, conductor), modulus, a)


def check_zeta_arguments(modulus: int, p: int | None = None, conductor: int | None = None) -> None:
    """Raise ValueError unless the hypotheses of `zeta_level` that need no field hold."""
    if modulus < 1:
        raise ValueError("modulus must be ≥ 1")
    if conductor is None:
        if p is not None:
            raise ValueError("the degree p is read only with a conductor")
    elif p is None:
        raise ValueError("a field side needs the degree p")
    elif modulus % conductor:
        raise ValueError("the field conductor must divide the modulus")


@lru_cache(maxsize=None)
def zeta_level(modulus: int, p: int | None = None, conductor: int | None = None) -> LevelData:
    """Relaxed level for bare zeta computations (oracles and spot values)."""
    check_zeta_arguments(modulus, p, conductor)
    field = None if conductor is None else field_spec(p, conductor)
    return LevelData(field, modulus, a=0)


class LocallyConstantFn:
    """ε(x) = nums[x] / den on one side's classes, `nums` holding the classes
    where ε is nonzero.  The constructor divides out gcd(den, *nums), as
    `CyclotomicNumber` does, and trusts the classes; user tables enter through
    `from_table`, which checks they cover the side exactly.
    """

    __slots__ = ("level", "side", "nums", "den", "even", "p_integral")

    def __init__(self, level: LevelData, side: str, nums: dict[int, int], den: int = 1):
        if side not in (Q_SIDE, L_SIDE):
            raise ValueError("side must be 'Q' or 'L'")
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {x: c // g for x, c in nums.items()}
            den //= g
        self.level = level
        self.side = side
        self.nums = nums
        self.den = den
        self.even = all(nums.get(level.neg_class(x)) == c for x, c in nums.items())
        p = level.p
        self.p_integral = p == 0 or den % p != 0

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def delta_fn(level: LevelData, side: str, cls: int) -> "LocallyConstantFn":
        base = cls % level.modulus
        if not level.has_class(side, base):
            raise ValueError(f"{cls} is not a class of side {side}")
        return LocallyConstantFn(level, side, {base: 1})

    @staticmethod
    def constant_fn(level: LevelData, side: str, value) -> "LocallyConstantFn":
        return LocallyConstantFn.from_table(level, side, dict.fromkeys(level.classes(side), value))

    @staticmethod
    def from_table(level: LevelData, side: str, table: dict[int, object]) -> "LocallyConstantFn":
        values = {int(k): Fraction(v) for k, v in table.items()}
        if set(values) != set(level.classes(side)):
            raise ValueError("value table must cover the side's classes exactly")
        den = lcm(*(v.denominator for v in values.values()))
        nums = {x: v.numerator * (den // v.denominator) for x, v in values.items() if v}
        return LocallyConstantFn(level, side, nums, den)

    # -- evaluation and pullback ---------------------------------------------------
    def __call__(self, cls: int) -> Fraction:
        x = cls % self.level.modulus
        if not self.level.has_class(self.side, x):
            raise ValueError(f"{cls} is not a class of side {self.side}")
        return Fraction(self.nums.get(x, 0), self.den)

    def compose_transfer(self) -> "LocallyConstantFn":
        """ε_L∘ver on the full group: x ↦ ε_L(x^p); its denominator divides ε_L's."""
        if self.side != L_SIDE:
            raise ValueError("only extension-side functions compose with the transfer")
        fibers = self.level.transfer_fibers
        nums = {x: c for y, c in self.nums.items() for x in fibers.get(y, ())}
        return LocallyConstantFn(self.level, Q_SIDE, nums, self.den)

    def __repr__(self) -> str:
        return (
            f"LocallyConstantFn(side={self.side}, support={len(self.nums)}, "
            f"even={self.even}, p_integral={self.p_integral})"
        )


def even_orbit_indicators(level: LevelData, side: str) -> tuple[LocallyConstantFn, ...]:
    """Indicator functions of the {x, −x} orbits, in ascending representative order."""
    reps = sorted({min(x, level.neg_class(x)) for x in level.classes(side)})
    return tuple(
        LocallyConstantFn(level, side, dict.fromkeys({x, level.neg_class(x)}, 1)) for x in reps
    )
