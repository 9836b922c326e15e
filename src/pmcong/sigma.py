"""Coset transfer and Σ-trace ideals on explicit finite groups.

Everything here is desk-scale group theory, validated by brute force: a group
is a multiplication table, tabulated over element positions and validated
once when the group is built, the transfer map is computed literally from
coset representatives by lookups in that table, and trace-ideal membership is
integer linear algebra with a certificate that is re-expanded before it is
believed.  This is the symbolic
counterpart of the numeric pipeline — it exercises nontrivial Σ-actions
(semidirect products, non-split abelian towers) that unit-group levels over Q
can never produce, where the Σ-action on the subgroup is always trivial.

Synthetic setups can be written in a small text format, one directive per
line, with ``#`` starting a comment:

    orders: 7              cyclic factor orders of the abelian kernel H
    p: 3                   index of H in the synthetic group (a prime)
    modulus_exponent: 2    ambient coefficient ring (Z/p^m)[H]
    action: 2              Σ-generator action on H as an r x r integer
                           matrix, row-major, rows separated by ';'
                           (omitted: identity action, direct product)
    fiber: (1 0) (0 1) (1 1)
                           one archimedean fiber of involutions, each an
                           H-element given by its r coordinates; the
                           Σ-generator must send slot j to slot j+1 mod
                           the fiber length, which is 1 or p; repeatable

The group built from such a text is H ⋊ C_p with the given action; its
elements are pairs (h, t).  A table holds |G|² entries, so orders above
`MAX_TABULATED_ORDER` (|G| = ∏d_i · p for a text) are rejected before
anything is built.  Setups over subgroups of plain abelian groups
(where the extension need not split, e.g. C_9 over C_3) are constructed
directly with `GaloisSetup`.

A kernel is validated from generators chosen greedily from its elements: it
is a subgroup iff it equals their span, abelian iff they commute pairwise,
and normal iff the Σ-generator conjugates each of them back into it.

Certificates are deterministic — fixed pivoting in the Smith normal form,
free parameters zeroed, coefficients reduced to canonical residues — rather
than globally minimal in any metric; re-verification by expansion is the
soundness guarantee.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from .groupring import GroupRing, GroupRingElement
from .units import factorize, is_prime, parse_int_list

__all__ = [
    "BadConjugationData",
    "CATALOG",
    "FiniteGroup",
    "GaloisSetup",
    "MAX_TABULATED_ORDER",
    "NotAbelianKernel",
    "NotFixed",
    "TraceIdeal",
    "abelian_group",
    "abelian_isomorphism_types",
    "coset_transfer",
    "index_p_functionals",
    "parse_setup",
    "run_sigma_suite",
    "semidirect_setup",
    "smith_normal_form",
    "verify_conjugation_identity",
]


class NotAbelianKernel(ValueError):
    """The designated subgroup is not abelian, so the transfer target is ambiguous."""


class NotFixed(ValueError):
    """A trace-ideal query was made with an element outside the fixed-point ring."""


class BadConjugationData(ValueError):
    """Fiber data is malformed: non-involutions, bad length, or Σ-instability."""


# ---------------------------------------------------------------------------
# explicit finite groups

#: Largest group order that is tabulated; a Cayley table holds |G|² positions
#: (about 32 MB of list slots at this order).
MAX_TABULATED_ORDER = 2048


def _check_order(order: int) -> None:
    if order > MAX_TABULATED_ORDER:
        raise ValueError(
            f"group order {order} exceeds the tabulation limit {MAX_TABULATED_ORDER}"
        )


class FiniteGroup:
    """A finite group given by its carrier, multiplication, and identity.

    The law is tabulated once at construction: ``table[i][j]`` is the position
    of ``elements[i]·elements[j]`` in carrier order, and every later product,
    inverse and power is a lookup in it.  Building the table validates the
    law: each product lies in the carrier, the identity is two-sided, every
    row contains the identity (every element has an inverse), and the law is
    associative (Light's test over a generating set).
    """

    def __init__(self, elements, mul, identity):
        elements = tuple(elements)
        _check_order(len(elements))
        position = _positions(elements)
        table = []
        for x in elements:
            row = []
            for y in elements:
                z = mul(x, y)
                if z not in position:
                    raise ValueError(f"{x!r}·{y!r} = {z!r} is not an element")
                row.append(position[z])
            table.append(row)
        self._install(elements, position, table, identity)
        self._check_associative()

    @classmethod
    def _from_table(cls, elements, table, identity) -> "FiniteGroup":
        """A group from a ready table over positions in carrier order; the
        caller has checked the order against the limit before building it."""
        elements = tuple(elements)
        group = cls.__new__(cls)
        group._install(elements, _positions(elements), table, identity)
        return group

    def _install(self, elements, position, table, identity):
        if identity not in position:
            raise ValueError("identity is not an element")
        e = position[identity]
        natural = list(range(len(elements)))
        if table[e] != natural or [row[e] for row in table] != natural:
            x = next(x for i, x in enumerate(elements) if table[e][i] != i or table[i][e] != i)
            raise ValueError(f"{identity!r} is not a two-sided identity for {x!r}")
        try:
            inverse = [row.index(e) for row in table]
        except ValueError:
            x = next(x for x, row in zip(elements, table) if e not in row)
            raise ValueError(f"{x!r} has no inverse") from None
        self.elements = elements
        self.position = position
        self.table = table
        self.identity = identity
        self.identity_position = e
        self.inverse_position = inverse

    def _check_associative(self):
        """Light's test: (x·g)·y = x·(g·y) for all x, y and each generator g.

        The g that pass are closed under products, so a passing generating
        set proves the whole law associative.  Generators are picked greedily
        until their right-product closure of the identity is the carrier.
        """
        table = self.table
        generators, _ = _span(table, self.identity_position, range(len(table)))
        for g in generators:
            g_row = table[g]
            for x, row in enumerate(table):
                # the row of x·g against x·(g·y) for every y
                left = table[row[g]]
                if left != list(map(row.__getitem__, g_row)):
                    y = next(y for y, z in enumerate(g_row) if left[y] != row[z])
                    x, g, y = (self.elements[i] for i in (x, g, y))
                    raise ValueError(
                        f"the law is not associative: ({x!r}·{g!r})·{y!r} ≠ {x!r}·({g!r}·{y!r})"
                    )

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.position

    def mul(self, x, y):
        position = self.position
        return self.elements[self.table[position[x]][position[y]]]

    def inverse(self, x):
        return self.elements[self.inverse_position[self.position[x]]]

    def power(self, x, n: int):
        """x^n for any integer n, by square-and-multiply on the table; a
        negative power is the power of the inverse."""
        i = self.position[x]
        if n < 0:
            i, n = self.inverse_position[i], -n
        table = self.table
        out = self.identity_position
        while n:
            if n & 1:
                out = table[out][i]
            i = table[i][i]
            n >>= 1
        return self.elements[out]

    def conjugate(self, g, x):
        """g·x·g⁻¹."""
        return self.mul(self.mul(g, x), self.inverse(g))


def _span(table, identity, candidates):
    """(generators, span): greedy generators from `candidates` and their span.

    A candidate outside the span so far becomes a generator.  The span is the
    closure of the identity under right products by the generators, which in
    a finite group is the subgroup they generate; each span element meets
    each generator exactly once.  Everything is a position in `table`.
    """
    span = [identity]
    in_span = bytearray(len(table))
    in_span[identity] = 1
    generators = []
    for g in candidates:
        if in_span[g]:
            continue
        generators.append(g)
        fresh, by = list(span), (g,)
        while fresh:
            grown = []
            for x in fresh:
                row = table[x]
                for h in by:
                    y = row[h]
                    if not in_span[y]:
                        in_span[y] = 1
                        grown.append(y)
            span.extend(grown)
            fresh, by = grown, generators
    return generators, span


def _positions(elements) -> dict:
    position = {x: i for i, x in enumerate(elements)}
    if len(position) != len(elements):
        raise ValueError("duplicate group elements")
    return position


def abelian_group(orders) -> FiniteGroup:
    """∏ Z/d_i with componentwise addition; elements are coordinate tuples.

    Each tuple is also packed as a mixed-radix integer with radix 2d_i − 1.
    The packed sum of two reduced tuples never carries out of a digit, so the
    table entry for a pair is one integer addition and one lookup in a list
    of ∏(2d_i − 1) reduced positions.
    """
    orders = tuple(int(d) for d in orders)
    if not orders or any(d < 1 for d in orders):
        raise ValueError("orders must be positive integers")
    _check_order(math.prod(orders))
    elements = tuple(itertools.product(*(range(d) for d in orders)))
    radices = [2 * d - 1 for d in orders]
    # packed codes and reduced positions, both built digit by digit in carrier order
    codes = [0]
    for r, d in zip(radices, orders):
        codes = [c * r + a for c in codes for a in range(d)]
    reduce = [0]
    for r, d in zip(radices, orders):
        reduce = [c * d + a % d for c in reduce for a in range(r)]
    table = [[reduce[cx + cy] for cy in codes] for cx in codes]
    return FiniteGroup._from_table(elements, table, elements[0])


def _partitions(n: int):
    """Partitions of n as descending tuples."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def abelian_isomorphism_types(n: int) -> list[tuple[int, ...]]:
    """All abelian groups of order n, as sorted tuples of prime-power cyclic orders."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [(1,)]
    per_prime = []
    for q, e in sorted(factorize(n).items()):
        per_prime.append([tuple(q**part for part in lam) for lam in _partitions(e)])
    types = []
    for combo in itertools.product(*per_prime):
        factors = tuple(sorted(c for chunk in combo for c in chunk))
        types.append(factors)
    return sorted(types)


def index_p_functionals(orders, p: int) -> list[tuple[int, ...]]:
    """Functionals ∏Z/d_i → Z/p whose kernels are the index-p subgroups.

    A surjection to Z/p factors through the mod-p quotient, which only sees
    coordinates with p | d_i; normalizing the first nonzero coefficient to 1
    picks one functional per kernel, giving (p^r − 1)/(p − 1) of them.
    """
    orders = tuple(orders)
    positions = [i for i, d in enumerate(orders) if d % p == 0]
    if not positions:
        return []
    out = []
    for coeffs in itertools.product(range(p), repeat=len(positions)):
        nonzero = [c for c in coeffs if c]
        if not nonzero or nonzero[0] != 1:
            continue
        full = [0] * len(orders)
        for i, c in zip(positions, coeffs):
            full[i] = c
        out.append(tuple(full))
    return out


# ---------------------------------------------------------------------------
# Galois-style setups: ambient group, abelian kernel of prime index, Σ-action


class GaloisSetup:
    """An ambient finite group with a normal abelian subgroup of prime index.

    The quotient Σ is cyclic of order p, generated by the image of
    `sigma_rep`; it acts on H by conjugation.  Optional fiber data designates
    involutions in H, grouped so that the Σ-generator cyclically shifts each
    fiber — the shape taken by archimedean Frobenius classes.
    """

    def __init__(
        self,
        group: FiniteGroup,
        h_elements,
        p: int,
        modulus_exponent: int = 1,
        sigma_rep=None,
        fibers=(),
    ):
        if not is_prime(p):
            raise ValueError("the index p must be prime")
        if modulus_exponent < 1:
            raise ValueError("modulus exponent must be ≥ 1")
        self.group = group
        self.h_elements = tuple(h_elements)
        self.h_set = frozenset(self.h_elements)
        self.p = p
        self.modulus_exponent = modulus_exponent
        if len(self.h_set) != len(self.h_elements):
            raise ValueError("duplicate subgroup elements")
        if len(group.elements) != p * len(self.h_elements):
            raise ValueError("subgroup does not have index p")
        if group.identity not in self.h_set:
            raise ValueError("subgroup is missing the identity")
        # all group arithmetic below is on positions in the group's table
        table = group.table
        position = group.position
        h_positions = [position.get(a) for a in self.h_elements]
        if None in h_positions:
            raise ValueError("subgroup element outside the group")
        in_h = bytearray(len(group))
        for a in h_positions:
            in_h[a] = 1
        # the span covers H, so H is a subgroup iff the span stays inside it
        generators, span = _span(table, group.identity_position, h_positions)
        if any(not in_h[x] for x in span):
            raise ValueError("subgroup not closed under multiplication")
        self.h_is_abelian = all(
            table[a][b] == table[b][a]
            for k, a in enumerate(generators)
            for b in generators[k + 1 :]
        )

        if sigma_rep is None:
            sigma_rep = next(x for x in group.elements if x not in self.h_set)
        elif sigma_rep in self.h_set or sigma_rep not in group:
            raise ValueError("sigma_rep must be a group element outside the subgroup")
        self.sigma_rep = sigma_rep

        # coset representatives sigma_rep^i by successive products, their
        # inverses, and the coset index of every position; filling the index
        # exhaustively doubles as a check that the cosets tile the group
        s = position[sigma_rep]
        reps = [group.identity_position]
        for _ in range(p - 1):
            reps.append(table[reps[-1]][s])
        coset = [-1] * len(group)
        for i, r in enumerate(reps):
            row = table[r]
            for a in h_positions:
                x = row[a]
                if coset[x] >= 0:
                    raise ValueError("coset representatives do not tile the group")
                coset[x] = i
        self.rep_positions = reps
        self.rep_inverse_positions = [group.inverse_position[r] for r in reps]
        self.coset_of_position = coset
        self.reps = tuple(group.elements[r] for r in reps)
        self.coset_index = dict(zip(group.elements, coset))

        # the cosets σ^i·H tile G, so σHσ⁻¹ ⊆ H already makes H normal
        s_inv = group.inverse_position[s]
        if any(not in_h[table[table[s][g]][s_inv]] for g in generators):
            raise ValueError("subgroup is not normal")

        self._orbits = None
        self.fibers = tuple(tuple(f) for f in fibers)
        self._validate_fibers()

    def _validate_fibers(self):
        mul = self.group.mul
        for fiber in self.fibers:
            if len(fiber) not in (1, self.p):
                raise BadConjugationData(
                    f"fiber length {len(fiber)} is neither 1 nor p={self.p}"
                )
            for c in fiber:
                if c not in self.h_set:
                    raise BadConjugationData(f"{c!r} is not in the subgroup")
                if mul(c, c) != self.group.identity:
                    raise BadConjugationData(f"{c!r} is not an involution")
            for j, c in enumerate(fiber):
                if self.sigma_action(c) != fiber[(j + 1) % len(fiber)]:
                    raise BadConjugationData(
                        "Σ-generator does not shift the fiber cyclically"
                    )

    def sigma_action(self, h):
        """Conjugation by the chosen Σ-generator representative."""
        return self.group.conjugate(self.sigma_rep, h)

    def orbits(self) -> tuple[tuple, ...]:
        """Σ-orbits on H, each listed from its first element in carrier order."""
        if self._orbits is None:
            seen = set()
            orbits = []
            for h in self.h_elements:
                if h in seen:
                    continue
                orbit = [h]
                seen.add(h)
                x = self.sigma_action(h)
                while x != h:
                    orbit.append(x)
                    seen.add(x)
                    x = self.sigma_action(x)
                orbits.append(tuple(orbit))
            self._orbits = tuple(orbits)
        return self._orbits

    def h_ring(self, modulus: int | None = None) -> GroupRing:
        if modulus is None:
            modulus = self.p**self.modulus_exponent
        return GroupRing(self.h_elements, self.group.mul, self.group.identity, modulus)

    def __repr__(self):
        return (
            f"GaloisSetup(|G|={len(self.group)}, |H|={len(self.h_elements)}, "
            f"p={self.p}, m={self.modulus_exponent})"
        )


def _matrix_identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def semidirect_setup(
    orders, p: int, action=None, modulus_exponent: int = 1, fibers=()
) -> GaloisSetup:
    """H ⋊ C_p for H = ∏Z/d_i and a matrix action of the C_p-generator.

    The action is validated exhaustively — additivity on all pairs,
    bijectivity, and order dividing p — before any group is built, so a bad
    matrix fails loudly rather than producing a non-group.
    """
    orders = tuple(int(d) for d in orders)
    r = len(orders)
    if not is_prime(p):
        raise ValueError("p must be prime")
    _check_order(math.prod(orders) * p)
    if action is None:
        action = _matrix_identity(r)
    action = [[int(c) for c in row] for row in action]
    if len(action) != r or any(len(row) != r for row in action):
        raise ValueError(f"action matrix must be {r}x{r}")

    kernel = abelian_group(orders)
    base = kernel.elements
    add = kernel.table
    m = len(base)
    # image[i] is the position of the action applied to base[i]
    image = [
        kernel.position[
            tuple(sum(a * c for a, c in zip(row, h)) % d for row, d in zip(action, orders))
        ]
        for h in base
    ]
    if len(set(image)) != m:
        raise ValueError("action matrix is not invertible on H")
    for x in range(m):
        # image(x + y) against image(x) + image(y), for every y at once
        if [image[z] for z in add[x]] != [add[image[x]][w] for w in image]:
            raise ValueError("action matrix is not additive on H")
    # acts[s][i] is the s-th power of the action applied to base[i]; iterating
    # the tabulated map agrees with matrix powers once the action is additive
    acts = [list(range(m))]
    for _ in range(p - 1):
        acts.append([image[i] for i in acts[-1]])
    if [image[i] for i in acts[-1]] != acts[0]:
        raise ValueError("action matrix does not have order dividing p")

    # (h1, s)·(h2, t) = (h1 + acts[s](h2), s + t); (h, t) sits at t·m + pos(h)
    elements = tuple((h, t) for t in range(p) for h in base)
    # slices of one position list, so that every table row shares its ints
    natural = list(range(p * m))
    cosets = [natural[t * m : (t + 1) * m] for t in range(p)]
    table = []
    for s in range(p):
        blocks = cosets[s:] + cosets[:s]
        for i in range(m):
            row = add[i]
            moved = [row[j] for j in acts[s]]
            table.append([block[k] for block in blocks for k in moved])
    group = FiniteGroup._from_table(elements, table, (kernel.identity, 0))
    h_elements = elements[:m]
    fiber_elements = tuple(tuple((tuple(c), 0) for c in fiber) for fiber in fibers)
    return GaloisSetup(
        group,
        h_elements,
        p,
        modulus_exponent=modulus_exponent,
        fibers=fiber_elements,
    )


# ---------------------------------------------------------------------------
# the transfer map


def coset_transfer(setup: GaloisSetup, g, reps=None):
    """The transfer ver: 𝔊 → H computed literally from a coset traversal.

    With transversal x_0, …, x_{p−1}, each g·x_i lands in some coset x_j·H,
    contributing h_i = x_j⁻¹·g·x_i; ver(g) is the product of the h_i.  H
    abelian makes the product order irrelevant and the result independent of
    the transversal — properties the test suite checks exhaustively rather
    than trusts.  Every product is a lookup in the group's table.
    """
    if not setup.h_is_abelian:
        raise NotAbelianKernel("transfer needs an abelian kernel")
    group = setup.group
    i = group.position.get(g)
    if i is None:
        raise ValueError(f"{g!r} is not an element of the group")
    table = group.table
    coset = setup.coset_of_position
    if reps is None:
        reps = setup.rep_positions
        inverses = setup.rep_inverse_positions
    else:
        reps = [group.position.get(r) for r in reps]
        if None in reps or sorted(coset[x] for x in reps) != list(range(setup.p)):
            raise ValueError("custom representatives do not form a transversal")
        inverses = [None] * setup.p
        for x in reps:
            inverses[coset[x]] = group.inverse_position[x]
    row = table[i]
    out = group.identity_position
    for x in reps:
        t = row[x]
        out = table[out][table[inverses[coset[t]]][t]]
    return group.elements[out]


# ---------------------------------------------------------------------------
# Smith normal form and trace-ideal membership


def smith_normal_form(matrix):
    """(D, U, V) with U·M·V = D diagonal, d_i | d_{i+1}, U and V unimodular.

    Textbook algorithm: move a minimal-magnitude pivot to the corner, clear
    its row and column by Euclidean steps, enforce the divisibility chain by
    folding offending entries into the pivot's column, recurse.
    """
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    u = _matrix_identity(n)
    v = _matrix_identity(m)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(n, m)):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, m):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    dirty = dirty or bool(a[i][t])
            for j in range(t + 1, m):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    dirty = dirty or bool(a[t][j])
            if dirty:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold the offending row in and restart
        if t < n and t < m and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return a, u, v


class TraceIdeal:
    """T = {Σ_σ α^σ : α ∈ (Z/p^m)[H]} with certificate-producing membership.

    The trace map is linear, so T is spanned by the traces of the delta
    basis; membership is an integer linear system solved through one Smith
    normal form shared across queries.
    """

    def __init__(self, setup: GaloisSetup, modulus_exponent: int | None = None):
        if not setup.h_is_abelian:
            raise NotAbelianKernel("trace ideals live over an abelian kernel")
        self.setup = setup
        m = setup.modulus_exponent if modulus_exponent is None else modulus_exponent
        if m < 1:
            raise ValueError("modulus exponent must be ≥ 1")
        self.modulus = setup.p**m
        self.ring = setup.h_ring(self.modulus)
        self._basis = self.ring.elements
        self._position = {h: i for i, h in enumerate(self._basis)}
        self.generators = [self.trace(self.ring.delta(h)) for h in self._basis]
        self._solver = None

    def trace(self, elt: GroupRingElement) -> GroupRingElement:
        """Σ-trace: sum of the p conjugates."""
        out = elt
        moved = elt
        for _ in range(self.setup.p - 1):
            moved = moved.map_group(self.setup.sigma_action)
            out = out + moved
        return out

    def is_fixed(self, elt: GroupRingElement) -> bool:
        return elt.map_group(self.setup.sigma_action) == elt

    def _vector(self, elt: GroupRingElement) -> list[int]:
        return [elt.coefficient(h) for h in self._basis]

    def _ensure_solver(self):
        if self._solver is not None:
            return
        n = len(self._basis)
        cols = [self._vector(g) for g in self.generators]
        # n x (n + n): generator columns, then the modulus block
        mat = [
            [cols[j][i] for j in range(n)]
            + [self.modulus if i == j else 0 for j in range(n)]
            for i in range(n)
        ]
        self._solver = smith_normal_form(mat)

    def membership(self, elt: GroupRingElement):
        """(verdict, certificate): certificate α has trace(α) = elt when true."""
        if not self.ring.same_ring(elt.ring):
            raise ValueError("element lives in a different ring")
        if not self.is_fixed(elt):
            raise NotFixed("element is not Σ-invariant")
        self._ensure_solver()
        d, u, v = self._solver
        n = len(self._basis)
        e = self._vector(elt)
        w = [sum(u[i][j] * e[j] for j in range(n)) for i in range(n)]
        z = []
        for i in range(n):
            di = d[i][i]
            if di == 0:
                if w[i]:
                    return False, None
                z.append(0)
            else:
                if w[i] % di:
                    return False, None
                z.append(w[i] // di)
        z += [0] * n
        x = [sum(v[i][j] * z[j] for j in range(2 * n)) % self.modulus for i in range(n)]
        cert = self.ring.from_coeffs(
            {h: x[self._position[h]] for h in self._basis if x[self._position[h]]}
        )
        if self.trace(cert) != elt:
            raise ArithmeticError("trace certificate failed re-expansion")
        return True, cert


# ---------------------------------------------------------------------------
# the conjugation-element identity


def verify_conjugation_identity(setup: GaloisSetup) -> dict:
    """Expand ∏_w(1+c_w) − ∏_v(1+ver(c_v)) in (Z/p^m)[H] and certify it lies in T.

    ver(c_v) is the product of the fiber over v.  Fixed subsets of the c_w
    (unions of fibers) reproduce the ver-side expansion exactly; every other
    subset sits in a free Σ-orbit whose terms sum to a trace — which is why
    the difference lands in the trace ideal.
    """
    ring = setup.h_ring()
    mul = setup.group.mul
    c_l = ring.one()
    for fiber in setup.fibers:
        for c in fiber:
            c_l = c_l * (ring.one() + ring.delta(c))
    ver_ck = ring.one()
    for fiber in setup.fibers:
        prod = setup.group.identity
        for c in fiber:
            prod = mul(prod, c)
        ver_ck = ver_ck * (ring.one() + ring.delta(prod))
    difference = c_l - ver_ck
    ideal = TraceIdeal(setup)
    member, cert = ideal.membership(difference)
    return {
        "verdict": member,
        "modulus": ring.modulus,
        "fibers": len(setup.fibers),
        "labels": sum(len(f) for f in setup.fibers),
        "difference_is_zero": difference.is_zero(),
        "difference": difference,
        "certificate": cert,
    }


# ---------------------------------------------------------------------------
# text format


_FIBER_TUPLE = re.compile(r"\(([^()]*)\)")


def parse_setup(text: str) -> GaloisSetup:
    """Build a synthetic setup from the documented text format."""
    orders = None
    p = None
    modulus_exponent = 1
    action = None
    fibers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "orders":
            orders = parse_int_list(value)
        elif key == "p":
            p = int(value)
        elif key == "modulus_exponent":
            modulus_exponent = int(value)
        elif key == "action":
            action = [parse_int_list(row) for row in value.split(";")]
        elif key == "fiber":
            cells = _FIBER_TUPLE.findall(value)
            if not cells:
                raise ValueError(f"line {lineno}: fiber needs parenthesized tuples")
            fibers.append([parse_int_list(c) for c in cells])
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    if orders is None or p is None:
        raise ValueError("setup text must define 'orders' and 'p'")
    for fiber in fibers:
        for c in fiber:
            if len(c) != len(orders):
                raise BadConjugationData(
                    f"fiber entry {c} has wrong arity for orders {tuple(orders)}"
                )
    return semidirect_setup(
        orders, p, action=action, modulus_exponent=modulus_exponent, fibers=fibers
    )


#: Synthetic setups with genuinely nontrivial Σ-actions, in the text format.
CATALOG = {
    "f21": "orders: 7\np: 3\nmodulus_exponent: 2\naction: 2\n",
    "f39": "orders: 13\np: 3\nmodulus_exponent: 2\naction: 3\n",
    "f93": "orders: 31\np: 3\nmodulus_exponent: 2\naction: 5\n",
    "c11_c5": "orders: 11\np: 5\nmodulus_exponent: 2\naction: 3\n",
    "heisenberg3": "orders: 3 3\np: 3\nmodulus_exponent: 2\naction: 1 1 ; 0 1\n",
    "a4": (
        "# alternating group on 4 letters as V4 x| C3\n"
        "orders: 2 2\n"
        "p: 3\n"
        "modulus_exponent: 2\n"
        "action: 0 1 ; 1 1\n"
        "fiber: (1 0) (0 1) (1 1)\n"
    ),
    "two_fiber_48": (
        "orders: 2 2 2 2\n"
        "p: 3\n"
        "modulus_exponent: 2\n"
        "action: 0 1 0 0 ; 1 1 0 0 ; 0 0 0 1 ; 0 0 1 1\n"
        "fiber: (1 0 0 0) (0 1 0 0) (1 1 0 0)\n"
        "fiber: (0 0 1 0) (0 0 0 1) (0 0 1 1)\n"
    ),
}


# ---------------------------------------------------------------------------
# the suite


def _check_abelian_sweep(max_order: int) -> dict:
    groups = 0
    kernels = 0
    failures = []
    for n in range(2, max_order + 1):
        for orders in abelian_isomorphism_types(n):
            group = abelian_group(orders)
            groups += 1
            for p in sorted(factorize(n)):
                powers = [group.power(g, p) for g in group.elements]
                for functional in index_p_functionals(orders, p):
                    # the functional's values in carrier order, coordinate by coordinate
                    values = [0]
                    for c, d in zip(functional, orders):
                        values = [v + c * a for v in values for a in range(d)]
                    h_elements = [
                        x for x, v in zip(group.elements, values) if v % p == 0
                    ]
                    setup = GaloisSetup(group, h_elements, p)
                    kernels += 1
                    for g, g_p in zip(group.elements, powers):
                        if coset_transfer(setup, g) != g_p:
                            failures.append((orders, p, functional, g))
    return {
        "verdict": not failures,
        "groups": groups,
        "kernels": kernels,
        "failures": failures[:5],
    }


def _check_f21_brute_force(rng: random.Random) -> dict:
    setup = parse_setup(CATALOG["f21"])
    group = setup.group
    mul = group.mul
    ok = True
    # literal definition with a randomized transversal, three times over
    for _ in range(3):
        reps = [mul(r, rng.choice(setup.h_elements)) for r in setup.reps]
        for g in group.elements:
            if coset_transfer(setup, g, reps=reps) != coset_transfer(setup, g):
                ok = False
    # for kernel elements the traversal collapses to h·h^σ·h^σ²
    for h in setup.h_elements:
        expected = mul(mul(h, setup.sigma_action(h)), setup.sigma_action(setup.sigma_action(h)))
        if coset_transfer(setup, h) != expected:
            ok = False
    # homomorphism, exhaustively
    ver = {g: coset_transfer(setup, g) for g in group.elements}
    for x in group.elements:
        for y in group.elements:
            if ver[mul(x, y)] != mul(ver[x], ver[y]):
                ok = False
    return {"verdict": ok, "group_order": len(group)}


def _check_membership_trivial_action() -> dict:
    # (Z/9)[C_2] under a trivial Σ-action of order 3: T should be exactly 3·R
    group = abelian_group((2, 3))
    h_elements = [x for x in group.elements if x[1] == 0]
    setup = GaloisSetup(group, h_elements, 3, modulus_exponent=2)
    ideal = TraceIdeal(setup)
    ring = ideal.ring
    basis = ring.elements
    enumerated = set()
    all_elts = []
    for coeffs in itertools.product(range(9), repeat=len(basis)):
        elt = ring.from_coeffs(dict(zip(basis, coeffs)))
        all_elts.append((coeffs, elt))
        enumerated.add(tuple(ideal.trace(elt).coefficient(h) for h in basis))
    ok = True
    members = 0
    for coeffs, elt in all_elts:
        verdict, cert = ideal.membership(elt)
        if verdict != (coeffs in enumerated):
            ok = False
        if verdict:
            members += 1
            if ideal.trace(cert) != elt:
                ok = False
    return {"verdict": ok, "elements": len(all_elts), "members": members}


def _check_membership_order3_action() -> dict:
    # (Z/9)[C_7] with the order-3 action x -> 2x; fixed ring has 9^3 elements
    setup = parse_setup(CATALOG["f21"])
    ideal = TraceIdeal(setup)
    ring = ideal.ring
    basis = ring.elements
    generators = [tuple(g.coefficient(h) for h in basis) for g in ideal.generators]

    closure = {tuple([0] * len(basis))}
    frontier = [tuple([0] * len(basis))]
    while frontier:
        current = frontier.pop()
        for g in generators:
            nxt = tuple((a + b) % 9 for a, b in zip(current, g))
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)

    orbits = setup.orbits()
    ok = True
    members = 0
    checked = 0
    for values in itertools.product(range(9), repeat=len(orbits)):
        coeffs = {}
        for orbit, val in zip(orbits, values):
            for h in orbit:
                coeffs[h] = val
        elt = ring.from_coeffs(coeffs)
        vector = tuple(elt.coefficient(h) for h in basis)
        verdict, cert = ideal.membership(elt)
        checked += 1
        if verdict != (vector in closure):
            ok = False
        if verdict:
            members += 1
            if ideal.trace(cert) != elt:
                ok = False
    return {
        "verdict": ok,
        "fixed_elements": checked,
        "members": members,
        "ideal_size": len(closure),
    }


def _check_catalog(rng: random.Random) -> dict:
    ok = True
    details = {}
    for name, text in sorted(CATALOG.items()):
        setup = parse_setup(text)
        group = setup.group
        mul = group.mul
        ver = {g: coset_transfer(setup, g) for g in group.elements}
        hom = all(
            ver[mul(x, y)] == mul(ver[x], ver[y])
            for x in group.elements
            for y in group.elements
        )
        reps = [mul(r, rng.choice(setup.h_elements)) for r in setup.reps]
        rep_free = all(
            coset_transfer(setup, g, reps=reps) == ver[g] for g in group.elements
        )
        details[name] = hom and rep_free
        ok = ok and details[name]
    return {"verdict": ok, "setups": details}


def run_sigma_suite() -> dict:
    """Run the symbolic battery; every check is exact and self-certifying."""
    rng = random.Random(20240901)
    checks = {
        "abelian_transfer_is_pth_power": _check_abelian_sweep(100),
        "f21_matches_brute_force": _check_f21_brute_force(rng),
        "membership_exhaustive_trivial_action": _check_membership_trivial_action(),
        "membership_exhaustive_order3_action": _check_membership_order3_action(),
        "catalog_homomorphism_and_transversals": _check_catalog(rng),
    }
    single = verify_conjugation_identity(parse_setup(CATALOG["a4"]))
    double = verify_conjugation_identity(parse_setup(CATALOG["two_fiber_48"]))
    checks["conjugation_identity_single_fiber"] = {
        "verdict": single["verdict"],
        "labels": single["labels"],
    }
    checks["conjugation_identity_two_fibers"] = {
        "verdict": double["verdict"],
        "labels": double["labels"],
    }
    checks["two_power_scalar"] = {
        "verdict": all(pow(2, p, p) == 2 for p in (3, 5, 7, 11, 13)),
        "primes": [3, 5, 7, 11, 13],
    }
    return {
        "verdict": all(c["verdict"] for c in checks.values()),
        "checks": checks,
    }
