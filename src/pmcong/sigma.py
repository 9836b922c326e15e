"""Coset transfer and Σ-trace ideals on explicit finite groups.

Everything here is desk-scale group theory, validated by brute force: a group
is a multiplication table, tabulated over element positions and validated
once when the group is built, and all work runs on lists of those positions.
The transfer map is computed literally from coset representatives by lookups
in that table, for a whole list of positions in one batch: each position is
moved back into H once, g·x_i is read from the row of g, and one table
product per (g, x_i) accumulates ver(g).
Trace ideals work on coefficient vectors: the Σ-generator permutes the basis
indices, and membership is linear algebra over Z/p^m with a certificate that
is re-expanded by the vector trace before it is believed.  This is the symbolic
counterpart of the numeric pipeline — it exercises nontrivial Σ-actions
(semidirect products, non-split abelian towers) that unit-group levels over Q
can never produce, where the Σ-action on the subgroup is always trivial.

Synthetic setups H ⋊ C_p are built by `semidirect_setup`, and `CATALOG` holds
its keyword arguments for seven setups with nontrivial Σ-actions.  A table
holds |G|² entries, so orders above `MAX_TABULATED_ORDER` (|G| = ∏d_i · p for
a semidirect setup) are rejected before anything is built.  Setups over
subgroups of plain abelian groups (where the extension need not split, e.g.
C_9 over C_3) are constructed directly with `GaloisSetup`.

A kernel is validated from generators chosen greedily from its elements: it
is a subgroup iff it equals their span, abelian iff they commute pairwise,
and normal iff the Σ-generator conjugates each of them back into it.

Certificates are deterministic — the Smith normal form over Z/p^m pivots on
the first entry of least p-valuation, free parameters are zeroed, and
coefficients are reduced to canonical residues — rather than globally minimal
in any metric; re-verification by expansion is the soundness guarantee.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from .exact import int_valuation
from .groupring import GroupRing, GroupRingElement
from .units import factorize, is_prime

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

#: Largest group order that is tabulated; a group holds one Cayley table of
#: |G|² positions (about 32 MB of list slots at this order).
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

    def mul(self, x, y):
        position = self.position
        return self.elements[self.table[position[x]][position[y]]]

    def inverse(self, x):
        return self.elements[self.inverse_position[self.position[x]]]

    def conjugate(self, g, x):
        """g·x·g⁻¹."""
        return self.mul(self.mul(g, x), self.inverse(g))


def _span(table, identity, candidates):
    """(generators, span): greedy generators from `candidates` and their span.

    A candidate outside the span so far becomes a generator.  The span is the
    closure of the identity under right products by the generators, which in
    a finite group is the subgroup they generate.  The span so far is closed
    under the earlier generators, so its elements meet only the new one; each
    new element meets every generator.  Everything is a position in `table`.
    """
    span = [identity]
    in_span = bytearray(len(table))
    in_span[identity] = 1
    generators = []
    for g in candidates:
        if in_span[g]:
            continue
        generators.append(g)
        size = len(span)
        for x in span[:size]:
            y = table[x][g]
            if not in_span[y]:
                in_span[y] = 1
                span.append(y)
        for x in itertools.islice(span, size, None):  # walks the span as it grows
            row = table[x]
            for h in generators:
                y = row[h]
                if not in_span[y]:
                    in_span[y] = 1
                    span.append(y)
    return generators, span


def _positions(elements) -> dict:
    position = {x: i for i, x in enumerate(elements)}
    if len(position) != len(elements):
        raise ValueError("duplicate group elements")
    return position


def abelian_group(orders) -> FiniteGroup:
    """∏ Z/d_i with componentwise addition; elements are coordinate tuples.

    The table is built one factor at a time.  With the new coordinate last,
    (i, a) sits at position i·d + a, and the row of (i, a) is, for each j in
    carrier order, the block of positions k·d + (a + b) mod d over b, where
    k is the position of i·j in the table so far.  Every block is a slice of
    one doubled range, and a row concatenates the blocks that the row of i
    picks, so no entry is computed on its own.
    """
    orders = tuple(int(d) for d in orders)
    if not orders or any(d < 1 for d in orders):
        raise ValueError("orders must be positive integers")
    _check_order(math.prod(orders))
    elements = tuple(itertools.product(*(range(d) for d in orders)))
    table = [[0]]
    for d in orders:
        doubled = [list(range(k, k + d)) * 2 for k in range(0, len(table) * d, d)]
        # blocks[a][k]: the positions k·d + (a + b) mod d for b = 0, …, d − 1
        blocks = [[ks[a : a + d] for ks in doubled] for a in range(d)]
        table = [
            functools.reduce(operator.iadd, map(by_k.__getitem__, row), [])
            for row in table
            for by_k in blocks
        ]
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
        self.p = p
        self.modulus_exponent = modulus_exponent
        n = len(group)
        if n != p * len(self.h_elements):
            raise ValueError("subgroup does not have index p")
        # all group arithmetic below is on positions in the group's table
        table = group.table
        h_positions = list(map(group.position.get, self.h_elements))
        if None in h_positions:
            raise ValueError("subgroup element outside the group")
        in_h = bytearray(n)
        for a in h_positions:
            in_h[a] = 1
        if sum(in_h) != len(h_positions):
            raise ValueError("duplicate subgroup elements")
        if not in_h[group.identity_position]:
            raise ValueError("subgroup is missing the identity")
        # the span covers H, so H is a subgroup iff the span stays inside it
        generators, span = _span(table, group.identity_position, h_positions)
        if not all(map(in_h.__getitem__, span)):
            raise ValueError("subgroup not closed under multiplication")
        self.h_is_abelian = all(
            table[a][b] == table[b][a]
            for k, a in enumerate(generators)
            for b in generators[k + 1 :]
        )

        if sigma_rep is None:
            s = in_h.index(0)
        else:
            s = group.position.get(sigma_rep)
            if s is None or in_h[s]:
                raise ValueError("sigma_rep must be a group element outside the subgroup")
        self.sigma_rep = group.elements[s]

        # coset representatives sigma_rep^i by successive products, their
        # inverses, and the coset index of every position; the p·|H| products
        # x_i·h tile G iff they reach all |G| positions
        reps = [group.identity_position]
        for _ in range(p - 1):
            reps.append(table[reps[-1]][s])
        coset_of = [-1] * n
        for i, r in enumerate(reps):
            row = table[r]
            for a in h_positions:
                coset_of[row[a]] = i
        if -1 in coset_of:
            raise ValueError("coset representatives do not tile the group")
        self.rep_positions = reps
        self.rep_inverse_positions = [group.inverse_position[r] for r in reps]
        self.reps = tuple(group.elements[r] for r in reps)
        self.coset_of_position = coset_of

        # the cosets σ^i·H tile G, so σHσ⁻¹ ⊆ H already makes H normal
        s_inv = group.inverse_position[s]
        if any(not in_h[table[table[s][g]][s_inv]] for g in generators):
            raise ValueError("subgroup is not normal")

        self._orbits = None
        self._ring = None
        self.fibers = tuple(tuple(f) for f in fibers)
        self._validate_fibers()

    @functools.cached_property
    def h_set(self) -> frozenset:
        return frozenset(self.h_elements)

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

    def h_ring(self) -> GroupRing:
        """(Z/p^m)[H], built once per setup."""
        if self._ring is None:
            modulus = self.p**self.modulus_exponent
            self._ring = GroupRing(self.h_elements, self.group.mul, self.group.identity, modulus)
        return self._ring

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

    The elements are pairs (h, t).  `action` is an r × r integer matrix
    (omitted: the identity, a direct product), and the coefficient ring is
    (Z/p^m)[H] with m = `modulus_exponent`.  Each fiber lists involutions of
    H by their r coordinates; the generator must send entry j to entry
    j + 1 mod the fiber length, which is 1 or p.

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
    """The transfer ver: 𝔊 → H computed literally from a coset transversal.

    With transversal x_0, …, x_{p−1}, each g·x_i lands in some coset x_j·H,
    contributing h_i = x_j⁻¹·g·x_i; ver(g) is the product of the h_i.  H
    abelian makes the product order irrelevant and the result independent of
    the transversal — properties the test suite checks exhaustively rather
    than trusts.  This is the one-position case of `_transfer_positions`.
    """
    group = setup.group
    i = group.position.get(g)
    if i is None:
        raise ValueError(f"{g!r} is not an element of the group")
    return group.elements[_transfer_positions(setup, [i], reps)[0]]


def _transfer_positions(setup: GaloisSetup, positions, reps=None) -> list[int]:
    """ver at every table position in `positions`, from one transversal.

    Every t in G is first moved back to x_j⁻¹·t, where x_j represents the
    coset of t.  Then g·x_i is read from the row of g, and ver(g) is the
    product of the moved-back g·x_i in transversal order: one table product
    per (g, x_i) after the first.
    """
    if not setup.h_is_abelian:
        raise NotAbelianKernel("transfer needs an abelian kernel")
    group = setup.group
    table = group.table
    coset_of = setup.coset_of_position
    if reps is None:
        reps = setup.rep_positions
        inverses = setup.rep_inverse_positions
    else:
        reps = [group.position.get(r) for r in reps]
        if None in reps or sorted(coset_of[x] for x in reps) != list(range(setup.p)):
            raise ValueError("custom representatives do not form a transversal")
        inverses = [None] * setup.p
        for x in reps:
            inverses[coset_of[x]] = group.inverse_position[x]
    inverse_rows = [table[x] for x in inverses]
    back = [inverse_rows[j][t] for t, j in enumerate(coset_of)]
    rows = [table[g] for g in positions]
    x, *rest = reps
    out = [back[row[x]] for row in rows]
    for x in rest:
        out = [table[a][back[row[x]]] for a, row in zip(out, rows)]
    return out


# ---------------------------------------------------------------------------
# Smith normal form and trace-ideal membership


def smith_normal_form(matrix, p: int, m: int):
    """(D, U, V) with U·M·V ≡ D (mod p^m), U and V invertible mod p^m, and D
    diagonal: p^(v_1), p^(v_2), … with v_1 ≤ v_2 ≤ …, then zeros.

    Z/p^m is a local ring: a nonzero residue is a unit times a power of p, so
    divisibility is an order on valuations (Cohen, §2.4).  Each step swaps the
    first entry of least valuation v, in row-major order, to the corner and
    scales its row by the inverse of its unit part, so the pivot is p^v.  Every
    other entry of its column and row is a multiple of p^v, so one pass clears
    each, and every later pivot has valuation ≥ v.
    """
    q = p**m
    a = [[x % q for x in row] for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    u = _matrix_identity(rows)
    v = _matrix_identity(cols)
    for t in range(min(rows, cols)):
        # (v, i, j) orders by valuation, then row-major; columns before t are clear
        nonzero = [(int_valuation(x, p), i, j) for i in range(t, rows) for j, x in enumerate(a[i]) if x]
        if not nonzero:
            break
        valuation, i, j = min(nonzero)
        power = p**valuation
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in itertools.chain(a, v):
            row[t], row[j] = row[j], row[t]
        inverse = pow(a[t][t] // power, -1, q)
        a[t] = [x * inverse % q for x in a[t]]
        u[t] = [x * inverse % q for x in u[t]]
        for i in range(t + 1, rows):  # row_i -= (a[i][t] / p^v)·row_t
            c = a[i][t] // power
            a[i] = [(x - c * y) % q for x, y in zip(a[i], a[t])]
            u[i] = [(x - c * y) % q for x, y in zip(u[i], u[t])]
        for j in range(t + 1, cols):  # col_j -= (a[t][j] / p^v)·col_t
            c = a[t][j] // power
            for row in itertools.chain(a, v):
                row[j] = (row[j] - c * row[t]) % q
    return a, u, v


class TraceIdeal:
    """T = {Σ_σ α^σ : α ∈ (Z/p^m)[H]} with certificate-producing membership.

    Elements are worked on as coefficient vectors over the basis
    ``ring.elements``, with residues in [0, p^m).  The Σ-generator permutes
    the basis indices, so a conjugate is a reindexed vector and the trace is
    a sum of p of them.  The trace map is linear, so T is spanned by the
    traces of the basis vectors, the columns of the n×n generator matrix M.
    Membership is the system M·x = b over Z/p^m, solved through one Smith
    form of M shared across queries.  Group-ring elements appear only at the
    methods that take or return one.
    """

    def __init__(self, setup: GaloisSetup):
        if not setup.h_is_abelian:
            raise NotAbelianKernel("trace ideals live over an abelian kernel")
        self.setup = setup
        self.ring = setup.h_ring()
        self.modulus = self.ring.modulus
        self._basis = self.ring.elements
        index = {h: i for i, h in enumerate(self._basis)}
        # pulls[k][j] is the index i with σ^k(basis[i]) = basis[j], so the
        # k-th conjugate of a vector v is [v[i] for i in pulls[k]]
        inverse = [0] * len(self._basis)
        for i, h in enumerate(self._basis):
            inverse[index[setup.sigma_action(h)]] = i
        pulls = [list(range(len(self._basis)))]
        for _ in range(setup.p - 1):
            pulls.append([inverse[i] for i in pulls[-1]])
        self._pulls = pulls
        #: the traces of the basis vectors, as coefficient vectors
        self.generators = [
            self._trace_vector([int(i == j) for i in range(len(self._basis))])
            for j in range(len(self._basis))
        ]

    def _vector(self, elt: GroupRingElement) -> list[int]:
        return [elt.coefficient(h) for h in self._basis]

    def _element(self, vector) -> GroupRingElement:
        return self.ring.from_coeffs({h: c for h, c in zip(self._basis, vector) if c})

    def _trace_vector(self, vector) -> list[int]:
        """Σ-trace of a coefficient vector: the sum of its p conjugates."""
        conjugates = (map(vector.__getitem__, pull) for pull in self._pulls)
        return [sum(column) % self.modulus for column in zip(*conjugates)]

    def _is_fixed_vector(self, vector) -> bool:
        return list(map(vector.__getitem__, self._pulls[1])) == list(vector)

    @functools.cached_property
    def _solver(self):
        """(diagonal, U, V): the Smith form of the generator matrix, 0 = p^m written p^m."""
        d, u, v = smith_normal_form(
            list(zip(*self.generators)), self.setup.p, self.setup.modulus_exponent
        )
        return [row[i] or self.modulus for i, row in enumerate(d)], u, v

    def membership(self, elt: GroupRingElement):
        """(verdict, certificate): certificate α has trace(α) = elt when true."""
        if not self.ring.same_ring(elt.ring):
            raise ValueError("element lives in a different ring")
        verdict, cert = self._solve(self._vector(elt))
        return verdict, None if cert is None else self._element(cert)

    def _solve(self, vector):
        """(verdict, certificate vector) for a vector of residues mod p^m.

        The certificate is re-expanded by the trace before it is returned.
        """
        if not self._is_fixed_vector(vector):
            raise NotFixed("element is not Σ-invariant")
        diagonal, u, v = self._solver
        # M·x = b ⇔ D·(V⁻¹·x) = U·b = w: solvable iff each w_i is a multiple of
        # p^(v_i), and w_i = 0 past the rank, where the diagonal holds p^m
        w = [sum(map(operator.mul, row, vector)) % self.modulus for row in u]
        if any(map(operator.mod, w, diagonal)):
            return False, None
        z = list(map(operator.floordiv, w, diagonal))
        x = [sum(map(operator.mul, row, z)) % self.modulus for row in v]
        if self._trace_vector(x) != list(vector):
            raise ArithmeticError("trace certificate failed re-expansion")
        return True, x


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
# the catalog


#: Synthetic setups with genuinely nontrivial Σ-actions, as keyword arguments
#: of `semidirect_setup`.
CATALOG = {
    "f21": dict(orders=(7,), p=3, modulus_exponent=2, action=((2,),)),
    "f39": dict(orders=(13,), p=3, modulus_exponent=2, action=((3,),)),
    "f93": dict(orders=(31,), p=3, modulus_exponent=2, action=((5,),)),
    "c11_c5": dict(orders=(11,), p=5, modulus_exponent=2, action=((3,),)),
    "heisenberg3": dict(orders=(3, 3), p=3, modulus_exponent=2, action=((1, 1), (0, 1))),
    # the alternating group on 4 letters as V4 ⋊ C3
    "a4": dict(
        orders=(2, 2),
        p=3,
        modulus_exponent=2,
        action=((0, 1), (1, 1)),
        fibers=(((1, 0), (0, 1), (1, 1)),),
    ),
    "two_fiber_48": dict(
        orders=(2, 2, 2, 2),
        p=3,
        modulus_exponent=2,
        action=((0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1)),
        fibers=(
            ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)),
            ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)),
        ),
    ),
}


# ---------------------------------------------------------------------------
# the suite


def _pth_powers(table, p: int) -> list[int]:
    """x^p at every position x, by square-and-multiply on whole lists."""
    powers = None
    squares = list(range(len(table)))
    while True:
        if p & 1:
            powers = squares if powers is None else [table[a][b] for a, b in zip(powers, squares)]
        p >>= 1
        if not p:
            return powers
        squares = [table[a][a] for a in squares]


def _is_homomorphism(table, ver) -> bool:
    """ver(x·y) = ver(x)·ver(y) for all x, y, one row of positions per x."""
    return all(
        list(map(ver.__getitem__, row)) == list(map(table[v].__getitem__, ver))
        for row, v in zip(table, ver)
    )


def _check_abelian_sweep(max_order: int) -> dict:
    groups = 0
    kernels = 0
    failures = []
    for n in range(2, max_order + 1):
        for orders in abelian_isomorphism_types(n):
            group = abelian_group(orders)
            groups += 1
            everything = range(n)
            for p in sorted(factorize(n)):
                powers = _pth_powers(group.table, p)
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
                    ver = _transfer_positions(setup, everything)
                    if ver != powers:
                        failures.extend(
                            (orders, p, functional, group.elements[g])
                            for g in everything
                            if ver[g] != powers[g]
                        )
    return {
        "verdict": not failures,
        "groups": groups,
        "kernels": kernels,
        "failures": failures[:5],
    }


def _check_f21_brute_force(rng: random.Random) -> dict:
    setup = semidirect_setup(**CATALOG["f21"])
    group = setup.group
    mul = group.mul
    everything = range(len(group))
    ver = _transfer_positions(setup, everything)
    ok = True
    # literal definition with a randomized transversal, three times over
    for _ in range(3):
        reps = [mul(r, rng.choice(setup.h_elements)) for r in setup.reps]
        if _transfer_positions(setup, everything, reps=reps) != ver:
            ok = False
    # for kernel elements the traversal collapses to h·h^σ·h^σ²
    position = group.position
    expected = []
    for h in setup.h_elements:
        h_sigma = setup.sigma_action(h)
        expected.append(position[mul(mul(h, h_sigma), setup.sigma_action(h_sigma))])
    if _transfer_positions(setup, [position[h] for h in setup.h_elements]) != expected:
        ok = False
    # homomorphism, exhaustively
    if not _is_homomorphism(group.table, ver):
        ok = False
    return {"verdict": ok, "group_order": len(group)}


def _check_membership_trivial_action() -> dict:
    # (Z/9)[C_2] under a trivial Σ-action of order 3: T should be exactly 3·R
    group = abelian_group((2, 3))
    h_elements = [x for x in group.elements if x[1] == 0]
    setup = GaloisSetup(group, h_elements, 3, modulus_exponent=2)
    ideal = TraceIdeal(setup)
    vectors = [list(c) for c in itertools.product(range(9), repeat=len(h_elements))]
    enumerated = {tuple(ideal._trace_vector(vector)) for vector in vectors}
    ok = True
    members = 0
    for vector in vectors:
        verdict, cert = ideal._solve(vector)
        if verdict != (tuple(vector) in enumerated):
            ok = False
        if verdict:
            members += 1
            if ideal._trace_vector(cert) != vector:
                ok = False
    return {"verdict": ok, "elements": len(vectors), "members": members}


def _trace_ideal_closure(ideal: TraceIdeal, fixed_count: int):
    """(ok, closure): the sums of the generators of a (Z/9)-trace ideal,
    walked from zero; the route the Smith form is checked against.

    Traces are Σ-fixed, so the closure lies in the `fixed_count` fixed
    vectors; a vector outside them, or a closure past their count, is a false
    verdict (a faulty trace would otherwise walk toward all 9^n vectors).
    """
    n = len(ideal.generators)
    ok = True
    closure = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier and ok:
        current = frontier.pop()
        for g in ideal.generators:
            nxt = tuple([(a + b) % 9 for a, b in zip(current, g)])
            if nxt not in closure:
                if len(closure) == fixed_count or not ideal._is_fixed_vector(nxt):
                    ok = False
                    break
                closure.add(nxt)
                frontier.append(nxt)
    return ok, closure


def _check_membership_order3_action() -> dict:
    # (Z/9)[C_7] with the order-3 action x -> 2x; fixed ring has 9^3 elements
    setup = semidirect_setup(**CATALOG["f21"])
    ideal = TraceIdeal(setup)
    n = len(setup.h_elements)
    index = {h: i for i, h in enumerate(setup.h_elements)}
    orbits = [[index[h] for h in orbit] for orbit in setup.orbits()]
    ok, closure = _trace_ideal_closure(ideal, 9 ** len(orbits))

    members = 0
    checked = 0
    for values in itertools.product(range(9), repeat=len(orbits)):
        vector = [0] * n
        for orbit, val in zip(orbits, values):
            for i in orbit:
                vector[i] = val
        verdict, cert = ideal._solve(vector)
        checked += 1
        if verdict != (tuple(vector) in closure):
            ok = False
        if verdict:
            members += 1
            if ideal._trace_vector(cert) != vector:
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
    for name, kwargs in sorted(CATALOG.items()):
        setup = semidirect_setup(**kwargs)
        group = setup.group
        everything = range(len(group))
        ver = _transfer_positions(setup, everything)
        hom = _is_homomorphism(group.table, ver)
        reps = [group.mul(r, rng.choice(setup.h_elements)) for r in setup.reps]
        rep_free = _transfer_positions(setup, everything, reps=reps) == ver
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
    single = verify_conjugation_identity(semidirect_setup(**CATALOG["a4"]))
    double = verify_conjugation_identity(semidirect_setup(**CATALOG["two_fiber_48"]))
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
