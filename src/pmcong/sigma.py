"""Coset transfer, Σ-trace ideals, and orbit decompositions on explicit finite groups.

Everything here is desk-scale group theory, validated by brute force: a group
is a multiplication table, the transfer map is computed literally from coset
representatives, and trace-ideal membership is integer linear algebra with a
certificate that is re-expanded before it is believed.  This is the symbolic
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
elements are pairs (h, t).  Setups over subgroups of plain abelian groups
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
import random
import re

from .groupring import GroupRing, GroupRingElement
from .units import factorize, is_prime, parse_int_list

__all__ = [
    "BadConjugationData",
    "CATALOG",
    "EquivarianceViolated",
    "FiniteGroup",
    "GaloisSetup",
    "NotAbelianKernel",
    "NotFixed",
    "TraceIdeal",
    "abelian_group",
    "abelian_isomorphism_types",
    "coset_transfer",
    "decompose_difference",
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


class EquivarianceViolated(ValueError):
    """Input coordinates are not Σ-equivariant."""


class BadConjugationData(ValueError):
    """Fiber data is malformed: non-involutions, bad length, or Σ-instability."""


# ---------------------------------------------------------------------------
# explicit finite groups


class FiniteGroup:
    """A finite group given by its carrier, multiplication, and identity."""

    def __init__(self, elements, mul, identity, inverse=None):
        self.elements = tuple(elements)
        self._element_set = frozenset(self.elements)
        if len(self._element_set) != len(self.elements):
            raise ValueError("duplicate group elements")
        if identity not in self._element_set:
            raise ValueError("identity is not an element")
        self.mul = mul
        self.identity = identity
        self._inverse_fn = inverse
        self._inverse_map = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._element_set

    def inverse(self, x):
        if self._inverse_fn is not None:
            return self._inverse_fn(x)
        if self._inverse_map is None:
            inv = {}
            for a in self.elements:
                for b in self.elements:
                    if self.mul(a, b) == self.identity:
                        inv[a] = b
                        break
            self._inverse_map = inv
        return self._inverse_map[x]

    def power(self, x, n: int):
        out = self.identity
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def conjugate(self, g, x):
        """g·x·g⁻¹."""
        return self.mul(self.mul(g, x), self.inverse(g))


def abelian_group(orders) -> FiniteGroup:
    """∏ Z/d_i with componentwise addition; elements are coordinate tuples.

    Each tuple is also packed as a mixed-radix integer with radix 2d_i − 1.
    The packed sum of two reduced tuples never carries out of a digit, so a
    product is one integer addition and one lookup in a table of ∏(2d_i − 1)
    reduced tuples.
    """
    orders = tuple(int(d) for d in orders)
    if not orders or any(d < 1 for d in orders):
        raise ValueError("orders must be positive integers")
    elements = tuple(itertools.product(*(range(d) for d in orders)))
    radices = [2 * d - 1 for d in orders]

    def pack(x):
        c = 0
        for a, r in zip(x, radices):
            c = c * r + a
        return c

    code = {x: pack(x) for x in elements}
    # every digit vector in increasing packed order, reduced to its carrier tuple
    canonical = {x: x for x in elements}
    digits = ([a % d for a in range(r)] for d, r in zip(orders, radices))
    reduce = [canonical[x] for x in itertools.product(*digits)]
    negative = {
        x: canonical[tuple((-a) % d for a, d in zip(x, orders))] for x in elements
    }

    def mul(x, y):
        return reduce[code[x] + code[y]]

    return FiniteGroup(elements, mul, elements[0], inverse=negative.__getitem__)


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
        mul = group.mul
        if any(a not in group for a in self.h_elements):
            raise ValueError("subgroup element outside the group")
        # in a finite group, {1} closed under right products by generators is their span
        generators = []
        span = {group.identity}
        for a in self.h_elements:
            if a in span:
                continue
            generators.append(a)
            frontier = list(span)
            while frontier:
                x = frontier.pop()
                for g in generators:
                    y = mul(x, g)
                    if y not in self.h_set:
                        raise ValueError("subgroup not closed under multiplication")
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
        self.h_is_abelian = all(
            mul(a, b) == mul(b, a)
            for i, a in enumerate(generators)
            for b in generators[i + 1 :]
        )

        if sigma_rep is None:
            sigma_rep = next(x for x in group.elements if x not in self.h_set)
        elif sigma_rep in self.h_set or sigma_rep not in group:
            raise ValueError("sigma_rep must be a group element outside the subgroup")
        self.sigma_rep = sigma_rep

        # coset representatives sigma_rep^i, their inverses, and the coset-index
        # lookup; building the lookup exhaustively doubles as a check that the
        # cosets tile the group
        self.reps = tuple(group.power(sigma_rep, i) for i in range(p))
        self.rep_inverses = tuple(group.inverse(r) for r in self.reps)
        index = {}
        for i, r in enumerate(self.reps):
            for h in self.h_elements:
                x = mul(r, h)
                if x in index:
                    raise ValueError("coset representatives do not tile the group")
                index[x] = i
        self.coset_index = index

        # the cosets σ^i·H tile G, so σHσ⁻¹ ⊆ H already makes H normal
        if any(self.sigma_action(g) not in self.h_set for g in generators):
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
    if action is None:
        action = _matrix_identity(r)
    action = [[int(c) for c in row] for row in action]
    if len(action) != r or any(len(row) != r for row in action):
        raise ValueError(f"action matrix must be {r}x{r}")

    kernel = abelian_group(orders)
    base = kernel.elements
    add = kernel.mul
    image = {
        h: tuple(sum(a * c for a, c in zip(row, h)) % d for row, d in zip(action, orders))
        for h in base
    }
    if len(set(image.values())) != len(base):
        raise ValueError("action matrix is not invertible on H")
    for x in base:
        for y in base:
            if image[add(x, y)] != add(image[x], image[y]):
                raise ValueError("action matrix is not additive on H")
    # acts[s][h] is the s-th power of the action applied to h; iterating the
    # tabulated map agrees with matrix powers once the action is additive on H
    acts = [{h: h for h in base}]
    for _ in range(p - 1):
        acts.append({h: image[x] for h, x in acts[-1].items()})
    if any(image[acts[-1][h]] != h for h in base):
        raise ValueError("action matrix does not have order dividing p")

    elements = tuple((h, t) for t in range(p) for h in base)
    identity = (kernel.identity, 0)

    def mul(x, y):
        (h1, s), (h2, t) = x, y
        return (add(h1, acts[s][h2]), (s + t) % p)

    def inv(x):
        h, s = x
        s2 = (p - s) % p
        return (kernel.inverse(acts[s2][h]), s2)

    group = FiniteGroup(elements, mul, identity, inverse=inv)
    h_elements = tuple((h, 0) for h in base)
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
    than trusts.
    """
    if not setup.h_is_abelian:
        raise NotAbelianKernel("transfer needs an abelian kernel")
    group = setup.group
    if g not in group:
        raise ValueError(f"{g!r} is not an element of the group")
    mul = group.mul
    index = setup.coset_index
    if reps is None:
        reps = setup.reps
        inverses = setup.rep_inverses
    else:
        reps = tuple(reps)
        if sorted(index.get(r, -1) for r in reps) != list(range(setup.p)):
            raise ValueError("custom representatives do not form a transversal")
        inverses = [None] * setup.p
        for r in reps:
            inverses[index[r]] = group.inverse(r)
    out = group.identity
    for x in reps:
        t = mul(g, x)
        out = mul(out, mul(inverses[index[t]], t))
    return out


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
# orbit decomposition of an H-indexed difference


def decompose_difference(setup: GaloisSetup, l_coeffs, q_coeffs) -> dict:
    """Split an H-indexed difference into orbit traces plus a p-divisible fixed part.

    `l_coeffs` assigns coefficients to subgroup elements, `q_coeffs` to
    ambient-group elements; the latter are pushed forward along ver and
    subtracted.  On free orbits the (necessarily constant) difference is a
    trace on the nose; at Σ-fixed elements membership forces divisibility by
    p, which is the verdict.  Fixed elements outside the image of ver are
    reported separately — their ambient contribution is an empty sum.
    """
    group = setup.group
    mod = setup.p**setup.modulus_exponent
    for h in l_coeffs:
        if h not in setup.h_set:
            raise ValueError(f"{h!r} is not a subgroup element")
    for x in q_coeffs:
        if x not in group:
            raise ValueError(f"{x!r} is not a group element")

    def lval(h):
        return l_coeffs.get(h, 0) % mod

    def qval(x):
        return q_coeffs.get(x, 0) % mod

    for h in setup.h_elements:
        if lval(setup.sigma_action(h)) != lval(h):
            raise EquivarianceViolated("subgroup coordinates are not Σ-invariant")
    for x in group.elements:
        if qval(group.conjugate(setup.sigma_rep, x)) != qval(x):
            raise EquivarianceViolated("ambient coordinates are not Σ-invariant")

    pushed = {h: 0 for h in setup.h_elements}
    image = set()
    for x in group.elements:
        y = coset_transfer(setup, x)
        image.add(y)
        pushed[y] = (pushed[y] + qval(x)) % mod

    diff = {h: (lval(h) - pushed[h]) % mod for h in setup.h_elements}
    ring = setup.h_ring(mod)
    verdict = True
    orbit_traces = []
    fixed_quotients = {}
    fixed_outside_image = []
    cert_coeffs = {}
    for orbit in setup.orbits():
        rep = orbit[0]
        val = diff[rep]
        if len(orbit) > 1:
            if any(diff[h] != val for h in orbit):
                raise EquivarianceViolated("difference is not constant on an orbit")
            if val:
                orbit_traces.append((rep, val))
                cert_coeffs[rep] = cert_coeffs.get(rep, 0) + val
        else:
            if rep not in image:
                fixed_outside_image.append(rep)
            if val % setup.p:
                verdict = False
                continue
            if val:
                fixed_quotients[rep] = val // setup.p
                cert_coeffs[rep] = cert_coeffs.get(rep, 0) + val // setup.p
    report = {
        "verdict": verdict,
        "modulus": mod,
        "orbit_traces": orbit_traces,
        "fixed_quotients": fixed_quotients,
        "fixed_outside_image": fixed_outside_image,
        "difference": diff,
        "certificate": None,
    }
    if verdict:
        cert = ring.from_coeffs(cert_coeffs)
        ideal = TraceIdeal(setup)
        if ideal.trace(cert) != ring.from_coeffs(diff):
            raise ArithmeticError("orbit decomposition certificate failed re-expansion")
        report["certificate"] = cert
    return report


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
                    h_elements = [
                        x
                        for x in group.elements
                        if sum(c * xi for c, xi in zip(functional, x)) % p == 0
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
