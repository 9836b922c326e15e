"""Finite abelian levels, locally constant functions on them, and Frobenius picks.

A level models one layer of the admissible tower: the base-side class group
G = (Z/f)^× together with the index-p subgroup H cut out by the degree-p
field L (classes whose reduction mod f_L is a p-th power).  Two tiers exist:

* scenario levels enforce the full running hypotheses — S exactly the prime
  support of f, p ∈ S, f_L ∈ S, modulus f = p^a · ∏_{q ∈ S∖{p}} q with a ≥ 1 —
  so that congruence-class membership mod f already encodes coprimality to S
  and the depth invariant m = a holds;
* zeta levels only require S ⊆ primes(f) (and f_L | f when the extension side
  is used) and exist for oracle computations at bare moduli such as f = f_L.

Functions on a level are stored by their support (class ↦ nonzero value), so
indicators and shifts cost O(support).  Evenness (invariance under the class
of −1), p-integrality and the least p-adic valuation are decided over the
support; as v_p(0) = ∞, the zero function has valuation ∞.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exact import PValuation, p_valuation
from .numberfield import AbelianFieldSpec, field_spec
from .units import factorize, is_prime, unit_group

__all__ = [
    "FrobeniusChoice",
    "LevelData",
    "LocallyConstantFn",
    "even_orbit_indicators",
    "scenario_level",
    "zeta_level",
]

Q_SIDE = "Q"
L_SIDE = "L"


class LevelData:
    """One finite level: modulus, S, both class groups, and the field data."""

    def __init__(
        self,
        p: int,
        field: AbelianFieldSpec | None,
        modulus: int,
        s_primes: frozenset[int],
        a: int,
        scenario: bool,
    ):
        self.p = p
        self.field = field
        self.modulus = modulus
        self.s_primes = frozenset(s_primes)
        self.a = a
        self.scenario = scenario
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
            tuple(sorted(self.s_primes)),
            self.a,
            self.scenario,
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


@lru_cache(maxsize=None)
def scenario_level(p: int, conductor: int, s_primes: tuple[int, ...], a: int) -> LevelData:
    """Full-hypothesis level with modulus p^a · ∏_{q ∈ S, q ≠ p} q."""
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
    field = field_spec(p, conductor)
    modulus = p**a
    for q in sorted(s - {p}):
        modulus *= q
    return LevelData(p, field, modulus, s, a, scenario=True)


@lru_cache(maxsize=None)
def zeta_level(
    modulus: int,
    s_primes: tuple[int, ...],
    p: int | None = None,
    conductor: int | None = None,
) -> LevelData:
    """Relaxed level for bare zeta computations (oracles and spot values)."""
    s = frozenset(s_primes)
    if modulus < 1:
        raise ValueError("modulus must be ≥ 1")
    if any(modulus % q for q in s):
        raise ValueError("every S-prime must divide the modulus")
    field = None
    if conductor is not None:
        if p is None:
            raise ValueError("a field side needs the degree p")
        field = field_spec(p, conductor)
        if modulus % conductor:
            raise ValueError("the field conductor must divide the modulus")
    return LevelData(p if p is not None else 0, field, modulus, s, a=0, scenario=False)


class LocallyConstantFn:
    """A function on one side's classes: `support` maps each class where it is
    nonzero to its Fraction value.  The constructor trusts the support; user
    tables enter through `from_table`, which checks they cover the side exactly.
    """

    __slots__ = ("level", "side", "support", "even", "p_integral")

    def __init__(self, level: LevelData, side: str, support: dict[int, Fraction]):
        if side not in (Q_SIDE, L_SIDE):
            raise ValueError("side must be 'Q' or 'L'")
        self.level = level
        self.side = side
        self.support = support
        self.even = all(support.get(level.neg_class(x)) == v for x, v in support.items())
        p = level.p
        self.p_integral = p == 0 or all(v.denominator % p != 0 for v in support.values())

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def delta_fn(level: LevelData, side: str, cls: int) -> "LocallyConstantFn":
        base = cls % level.modulus
        if not level.has_class(side, base):
            raise ValueError(f"{cls} is not a class of side {side}")
        return LocallyConstantFn(level, side, {base: Fraction(1)})

    @staticmethod
    def constant_fn(level: LevelData, side: str, value) -> "LocallyConstantFn":
        return LocallyConstantFn.from_table(level, side, dict.fromkeys(level.classes(side), value))

    @staticmethod
    def from_table(level: LevelData, side: str, table: dict[int, object]) -> "LocallyConstantFn":
        values = {int(k): Fraction(v) for k, v in table.items()}
        if set(values) != set(level.classes(side)):
            raise ValueError("value table must cover the side's classes exactly")
        return LocallyConstantFn(level, side, {x: v for x, v in values.items() if v})

    # -- evaluation and operators -------------------------------------------------
    def __call__(self, cls: int) -> Fraction:
        x = cls % self.level.modulus
        if not self.level.has_class(self.side, x):
            raise ValueError(f"{cls} is not a class of side {self.side}")
        return self.support.get(x, Fraction(0))

    def shift(self, g_cls: int) -> "LocallyConstantFn":
        """ε_g with ε_g(x) = ε(g·x): the support moves to g⁻¹·supp ε."""
        f = self.level.modulus
        if not self.level.has_class(self.side, g_cls % f):
            raise ValueError(f"{g_cls} is not a class of side {self.side}")
        g_inv = pow(g_cls, -1, f) if f > 1 else 0
        support = {(g_inv * y) % f: v for y, v in self.support.items()}
        return LocallyConstantFn(self.level, self.side, support)

    def compose_transfer(self) -> "LocallyConstantFn":
        """ε_L∘ver on the full group: x ↦ ε_L(x^p)."""
        if self.side != L_SIDE:
            raise ValueError("only extension-side functions compose with the transfer")
        fibers = self.level.transfer_fibers
        table = {x: v for y, v in self.support.items() for x in fibers.get(y, ())}
        return LocallyConstantFn(self.level, Q_SIDE, table)

    def scale(self, factor) -> "LocallyConstantFn":
        c = Fraction(factor)
        support = {x: v * c for x, v in self.support.items()} if c else {}
        return LocallyConstantFn(self.level, self.side, support)

    def __add__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        if self.level != other.level or self.side != other.side:
            raise ValueError("mismatched function domains")
        a, b = self.support, other.support
        total = {x: a.get(x, 0) + b.get(x, 0) for x in a.keys() | b.keys()}
        return LocallyConstantFn(self.level, self.side, {x: v for x, v in total.items() if v})

    def __sub__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return not self.support

    def min_p_valuation(self):
        """min_x v_p(ε(x)); PValuation.infinite() for the zero function."""
        p = self.level.p
        if p == 0:
            return None
        return min((p_valuation(v, p) for v in self.support.values()), default=PValuation.infinite())

    def __repr__(self) -> str:
        return (
            f"LocallyConstantFn(side={self.side}, support={len(self.support)}, "
            f"even={self.even}, p_integral={self.p_integral})"
        )


def even_orbit_indicators(level: LevelData, side: str) -> tuple[LocallyConstantFn, ...]:
    """Indicator functions of the {x, −x} orbits, in ascending representative order."""
    reps = sorted({min(x, level.neg_class(x)) for x in level.classes(side)})
    return tuple(
        LocallyConstantFn(level, side, dict.fromkeys({x, level.neg_class(x)}, Fraction(1)))
        for x in reps
    )


class FrobeniusChoice:
    """A Frobenius pick: the symbol of a positive integer n, with norm value n."""

    __slots__ = ("level", "n", "cls")

    def __init__(self, level: LevelData, n: int):
        if n < 1:
            raise ValueError("the norm value must be a positive integer")
        self.level = level
        self.n = n
        self.cls = level.class_of(n)

    def transfer(self) -> "FrobeniusChoice":
        """The image pick under ver: class cls^p with norm n^p."""
        return FrobeniusChoice(self.level, self.n**self.level.p)

    def __repr__(self) -> str:
        return f"FrobeniusChoice(n={self.n}, cls={self.cls})"
