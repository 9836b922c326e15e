"""Group rings (Z/m)[G] over explicit finite groups, for the σ-suite.

The carrier is generic — group elements are whatever hashable values the
caller supplies, with multiplication given as a callable.  The σ-suite builds
(Z/p^m)[H] over the kernel of a synthetic setup (coordinate tuples), where it
multiplies out the conjugation-element identity and states trace-ideal
membership.  The unit-group levels need no ring: their pseudomeasures are
residue tables (see `pseudomeasure`).
"""

from __future__ import annotations

__all__ = ["GroupRing", "GroupRingElement"]


class GroupRing:
    """(Z/modulus)[elements] with multiplication law `mul`."""

    def __init__(self, elements, mul, identity, modulus: int):
        if modulus < 2:
            raise ValueError("coefficient modulus must be ≥ 2")
        self.elements = tuple(elements)
        self._element_set = frozenset(self.elements)
        self.mul = mul
        self.identity = identity
        self.modulus = modulus
        self._table = None

    def multiplication_table(self) -> dict:
        if self._table is None:
            self._table = {
                (x, y): self.mul(x, y) for x in self.elements for y in self.elements
            }
        return self._table

    def same_ring(self, other: "GroupRing") -> bool:
        """Structural equality: same carrier, same law, same coefficient modulus.

        A setup builds its ring once (``GaloisSetup.h_ring``), so the σ-suite
        meets only the identity case.  Rings built apart compare by their
        multiplication tables, which keeps distinct group laws on a shared
        carrier apart.
        """
        if self is other:
            return True
        return (
            self.modulus == other.modulus
            and self.identity == other.identity
            and self.elements == other.elements
            and self.multiplication_table() == other.multiplication_table()
        )

    def one(self) -> "GroupRingElement":
        return self.delta(self.identity)

    def delta(self, x, coeff: int = 1) -> "GroupRingElement":
        return GroupRingElement(self, {x: coeff})

    def from_coeffs(self, coeffs: dict) -> "GroupRingElement":
        return GroupRingElement(self, dict(coeffs))

    def __repr__(self) -> str:
        return f"GroupRing(|G|={len(self.elements)}, mod={self.modulus})"


class GroupRingElement:
    """Immutable-by-convention element; coefficients stored reduced, zeros dropped."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict):
        clean = {}
        for x, c in coeffs.items():
            if x not in ring._element_set:
                raise ValueError(f"{x!r} is not a group element")
            r = int(c) % ring.modulus
            if r:
                clean[x] = r
        self.ring = ring
        self.coeffs = clean

    def coefficient(self, x) -> int:
        return self.coeffs.get(x, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            out[x] = out.get(x, 0) + c
        return GroupRingElement(self.ring, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.ring, {x: -c for x, c in self.coeffs.items()})

    def scale(self, factor: int) -> "GroupRingElement":
        return GroupRingElement(self.ring, {x: c * factor for x, c in self.coeffs.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out: dict = {}
        mul = self.ring.mul
        for x, c in self.coeffs.items():
            for y, d in other.coeffs.items():
                z = mul(x, y)
                out[z] = out.get(z, 0) + c * d
        return GroupRingElement(self.ring, out)

    def _check(self, other: "GroupRingElement") -> None:
        if not self.ring.same_ring(other.ring):
            raise ValueError("elements of different group rings")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.ring.same_ring(other.ring)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        ring_sig = (self.ring.modulus, self.ring.identity, len(self.ring.elements))
        return hash((ring_sig, tuple(sorted(self.coeffs.items(), key=repr))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "GroupRingElement(0)"
        parts = [f"{c}·[{x}]" for x, c in list(self.coeffs.items())[:6]]
        more = "…" if len(self.coeffs) > 6 else ""
        return f"GroupRingElement({' + '.join(parts)}{more} mod {self.ring.modulus})"