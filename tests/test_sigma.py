"""Group-theoretic engine: transfers, Smith forms, trace ideals, the suite."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pmcong.sigma as sigma
from pmcong.cli import main
from pmcong.exact import int_valuation
from pmcong.harness import jsonable
from pmcong.levels import L_SIDE, Q_SIDE, scenario_level
from pmcong.sigma import (
    CATALOG,
    MAX_TABULATED_ORDER,
    BadConjugationData,
    FiniteGroup,
    GaloisSetup,
    NotAbelianKernel,
    NotFixed,
    TraceIdeal,
    abelian_group,
    abelian_isomorphism_types,
    coset_transfer,
    index_p_functionals,
    run_sigma_suite,
    semidirect_setup,
    smith_normal_form,
    verify_conjugation_identity,
)
from pmcong.units import factorize

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# Smith normal form over Z/p^m, checked against exact determinants and an
# enumerated column span


def _det(matrix):
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _column_span(matrix, q):
    """The Z/q-span of the columns of `matrix`, enumerated."""
    span = {(0,) * len(matrix)}
    for column in zip(*matrix):
        multiples = {tuple(k * x % q for x in column) for k in range(q)}
        span = {tuple((a + b) % q for a, b in zip(s, c)) for s in span for c in multiples}
    return span


def _check_snf(matrix, p, m):
    q = p**m
    d, u, v = smith_normal_form(matrix, p, m)
    n = len(matrix)
    k = len(matrix[0])
    assert len(d) == n and all(len(row) == k for row in d)
    for i in range(n):
        for j in range(k):
            if i != j:
                assert d[i][j] == 0
    # the diagonal is ascending powers p^v with v < m, then zeros
    diag = [d[i][i] for i in range(min(n, k))]
    rank = len([x for x in diag if x])
    assert not any(diag[rank:])
    valuations = [int_valuation(x, p) for x in diag[:rank]]
    assert diag[:rank] == [p**e for e in valuations]
    assert valuations == sorted(valuations) and all(e < m for e in valuations)
    # U and V are residues mod p^m, invertible because their determinants are units
    assert all(0 <= x < q for row in u + v for x in row)
    assert _det(u).numerator % p and _det(v).numerator % p
    assert [[x % q for x in row] for row in _mat_mul(_mat_mul(u, matrix), v)] == d
    return diag


def test_smith_normal_form_fixed_examples():
    assert _check_snf([[2, 4], [6, 8]], 2, 3) == [2, 4]
    assert _check_snf([[2, 0], [0, 3]], 3, 2) == [1, 3]
    assert _check_snf([[2, 0], [0, 3]], 2, 2) == [1, 2]
    assert _check_snf([[1, 0], [0, 0]], 5, 1) == [1, 0]
    assert _check_snf([[0, 0], [0, 0]], 3, 2) == [0, 0]
    assert _check_snf([[6, 4, 2]], 2, 3) == [2]
    assert _check_snf([[5]], 5, 2) == [5]
    # a multiple of p^m is zero in Z/p^m, and a negative entry is its residue
    assert _check_snf([[9], [-18]], 3, 2) == [0]
    assert _check_snf([[-3, 9], [0, 27]], 3, 3) == [3, 0]


def test_smith_normal_form_random_matrices():
    """p ∈ {2, 3, 5}, m ∈ {1, 2, 3}, shapes up to 4×4, entries of mixed
    valuation: the decomposition, and where the span is small enough to
    enumerate, its size ∏ p^(m − v_i)."""
    rng = random.Random(1729)
    enumerated = 0
    for p, m in itertools.product((2, 3, 5), (1, 2, 3)):
        q = p**m
        for _ in range(15):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            matrix = [
                [rng.randint(-2 * q, 2 * q) * p ** rng.randint(0, m) for _ in range(k)]
                for _ in range(n)
            ]
            diag = _check_snf(matrix, p, m)
            if q ** min(n, k) <= 6561:
                enumerated += 1
                assert len(_column_span(matrix, q)) == math.prod(q // x for x in diag if x)
    assert enumerated >= 80


# ---------------------------------------------------------------------------
# abelian classification helpers


def test_abelian_isomorphism_type_counts():
    # counts follow the partition formula prime by prime
    for n, count in [(1, 1), (8, 3), (12, 2), (16, 5), (30, 1), (36, 4), (64, 11)]:
        types = abelian_isomorphism_types(n)
        assert len(types) == count
        seen = set()
        for orders in types:
            prod = 1
            for d in orders:
                prod *= d
            assert prod == n
            key = tuple(sorted(orders))
            assert key not in seen
            seen.add(key)


def test_index_p_functional_counts_and_kernels():
    for orders, p in [((3, 9, 2), 3), ((7,), 7), ((2, 2, 2), 2), ((5, 3), 2)]:
        fns = index_p_functionals(orders, p)
        r = sum(1 for d in orders if d % p == 0)
        assert len(fns) == (p**r - 1) // (p - 1)
        group = abelian_group(orders)
        kernels = set()
        for coeffs in fns:
            nonzero = [c for c in coeffs if c]
            assert nonzero and nonzero[0] == 1
            kernel = frozenset(
                h
                for h in group.elements
                if sum(c * x for c, x in zip(coeffs, h)) % p == 0
            )
            assert len(kernel) * p == len(group)
            kernels.add(kernel)
        assert len(kernels) == len(fns)
    assert index_p_functionals((4, 9), 5) == []


@pytest.mark.parametrize(
    "orders", [(1,), (1, 4), (2, 2, 2), (3, 9, 2), (4, 25), (2,) * 6]
)
def test_packed_abelian_law_is_componentwise(orders):
    """The mixed-radix lookup law equals (a ± b) mod d_i on every pair."""
    group = abelian_group(orders)
    assert group.elements == tuple(itertools.product(*(range(d) for d in orders)))
    assert group.identity == (0,) * len(orders)
    for x in group.elements:
        assert group.inverse(x) == tuple((-a) % d for a, d in zip(x, orders))
        for y in group.elements:
            expected = tuple((a + b) % d for a, b, d in zip(x, y, orders))
            assert group.mul(x, y) == expected


# a loop of order 5 (a Latin square with identity 0) that is not a group:
# (1·1)·2 = 2 but 1·(1·2) = 4
_LOOP5 = [[int(c) for c in row] for row in "01234 10342 24013 32401 43120".split()]

# a loop of order 6 where Light's test passes at the first greedy generator 1,
# which spans only {0, 1}, and fails at the second, 2: (2·2)·4 = 3 but 2·(2·4) = 2
_LOOP6 = [[int(c) for c in row] for row in "012345 103254 234501 325410 450132 541023".split()]


@pytest.mark.parametrize(
    "elements, mul, identity, message",
    [
        (range(6), lambda x, y: x + y, 0, r"1·5 = 6 is not an element"),
        (range(4), max, 0, r"1 has no inverse"),
        (range(3), lambda x, y: y, 0, r"0 is not a two-sided identity for 1"),
        (range(2), lambda x, y: (x + y) % 2, 1, r"1 is not a two-sided identity for 0"),
        (range(5), lambda x, y: _LOOP5[x][y], 0, r"not associative: \(1·1\)·2 ≠ 1·\(1·2\)"),
        (range(6), lambda x, y: _LOOP6[x][y], 0, r"not associative: \(2·2\)·4 ≠ 2·\(2·4\)"),
    ],
    ids=[
        "product-outside", "no-inverse", "one-sided-identity", "not-an-identity", "loop",
        "loop-at-a-later-generator",
    ],
)
def test_finite_group_rejects_laws_that_are_not_groups(elements, mul, identity, message):
    """A law that leaves the carrier, lacks a two-sided identity, leaves an
    element without an inverse, or is not associative is refused when the
    group is built."""
    with pytest.raises(ValueError, match=message):
        FiniteGroup(elements, mul, identity)


def test_oversized_groups_are_rejected_before_anything_is_built(monkeypatch):
    def no_products(x, y):
        raise AssertionError("the law was evaluated")

    def no_kernel(orders):
        raise AssertionError("the kernel was built")

    limit = f"exceeds the tabulation limit {MAX_TABULATED_ORDER}"
    big = MAX_TABULATED_ORDER + 1
    with pytest.raises(ValueError, match=f"group order {big} {limit}"):
        FiniteGroup(range(big), no_products, 0)
    with pytest.raises(ValueError, match=f"group order {big} {limit}"):
        abelian_group((big,))
    monkeypatch.setattr(sigma, "abelian_group", no_kernel)
    with pytest.raises(ValueError, match=f"group order 12288 {limit}"):
        semidirect_setup((64, 64), 3)
    with pytest.raises(ValueError, match=f"group order 2050 {limit}"):
        semidirect_setup((1025,), 2)
    # the suite's largest group, order 100, stays far inside the limit
    assert MAX_TABULATED_ORDER >= 100


# ---------------------------------------------------------------------------
# setup construction and validation


def _units63_group():
    els = tuple(x for x in range(63) if math.gcd(x, 63) == 1)
    return FiniteGroup(els, lambda a, b: (a * b) % 63, 1)


def _units63_setup():
    group = _units63_group()
    h = tuple(x for x in group.elements if x % 7 in (1, 6))
    return GaloisSetup(group, h, 3)


def _s3_group():
    els = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))

    def mul(a, b):
        return tuple(a[b[i]] for i in range(3))

    return FiniteGroup(els, mul, (0, 1, 2))


def _power(group, x, n):
    """x^n for n ≥ 0 by repeated multiplication."""
    out = group.identity
    for _ in range(n):
        out = group.mul(out, x)
    return out


def test_setup_rejects_bad_data():
    group = abelian_group((6,))
    h = ((0,), (3,))
    GaloisSetup(group, h, 3)  # the good version goes through
    with pytest.raises(ValueError):
        GaloisSetup(group, h, 4)  # index must be prime
    with pytest.raises(ValueError):
        GaloisSetup(group, h, 3, modulus_exponent=0)
    with pytest.raises(ValueError):
        GaloisSetup(group, group.elements, 3)  # wrong index
    with pytest.raises(ValueError):
        GaloisSetup(group, ((0,), (3,), (3,)), 2)  # duplicates
    with pytest.raises(ValueError):
        GaloisSetup(group, ((1,), (4,)), 3)  # identity missing
    with pytest.raises(ValueError):
        GaloisSetup(group, ((0,), (1,)), 3)  # not inverse-closed
    with pytest.raises(ValueError):
        GaloisSetup(abelian_group((9,)), ((0,), (4,), (5,)), 3)  # not closed
    with pytest.raises(ValueError):
        GaloisSetup(group, h, 3, sigma_rep=(3,))  # rep inside the subgroup
    with pytest.raises(ValueError, match="group element"):
        GaloisSetup(group, h, 3, sigma_rep=(7,))  # rep outside the group


def test_setup_rejects_non_normal_subgroup():
    group = _s3_group()
    h = ((0, 1, 2), (1, 0, 2))
    # the default representative is an involution, so the cosets cannot tile
    with pytest.raises(ValueError, match="tile"):
        GaloisSetup(group, h, 3)
    # with a 3-cycle they do tile, and the normality check fires instead
    with pytest.raises(ValueError, match="normal"):
        GaloisSetup(group, h, 3, sigma_rep=(1, 2, 0))


def test_closure_failure_between_spanned_element_and_later_generator():
    """In (Z/2)³ the set {000, 100, 010, 001} fails closure first at
    100·010, a product of an element spanned by the first generator with the
    second generator; the span walk must still form it."""
    group = abelian_group((2, 2, 2))
    h = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="closed"):
        GaloisSetup(group, h, 2)


def test_kernel_validation_matches_brute_force():
    """Generator-based subgroup, commutativity and normality checks against the
    pairwise definitions, on every subset of index-p size containing 1."""
    groups = [
        abelian_group((6,)),
        abelian_group((2, 4)),
        abelian_group((2, 2, 2)),
        abelian_group((9,)),
        _s3_group(),
        semidirect_setup(**CATALOG["a4"]).group,
    ]
    for group in groups:
        mul, one = group.mul, group.identity
        others = [x for x in group.elements if x != one]
        for p in sorted(factorize(len(group))):
            for rest in itertools.combinations(others, len(group) // p - 1):
                h = (one,) + rest
                h_set = set(h)
                if any(mul(a, b) not in h_set for a in h for b in h):
                    with pytest.raises(ValueError, match="closed"):
                        GaloisSetup(group, h, p)
                    continue
                abelian = all(mul(a, b) == mul(b, a) for a in h for b in h)
                normal = all(
                    group.conjugate(g, x) in h_set for g in group.elements for x in h
                )
                for rep in group.elements:
                    if rep in h_set:
                        continue
                    reps = [_power(group, rep, i) for i in range(p)]
                    if len({mul(r, x) for r in reps for x in h}) != len(group):
                        with pytest.raises(ValueError, match="tile"):
                            GaloisSetup(group, h, p, sigma_rep=rep)
                    elif normal:
                        setup = GaloisSetup(group, h, p, sigma_rep=rep)
                        assert setup.h_is_abelian == abelian
                    else:
                        with pytest.raises(ValueError, match="normal"):
                            GaloisSetup(group, h, p, sigma_rep=rep)


def test_semidirect_validates_action():
    with pytest.raises(ValueError):
        semidirect_setup((7,), 3, action=[[0]])  # not invertible
    with pytest.raises(ValueError):
        semidirect_setup((7,), 3, action=[[3]])  # order 6, not dividing 3
    with pytest.raises(ValueError):
        semidirect_setup((7, 2), 3, action=[[2]])  # wrong shape
    setup = semidirect_setup((7,), 3, action=[[2]])
    assert len(setup.group) == 21
    assert len(setup.h_elements) == 7
    assert setup.sigma_action(setup.h_elements[1]) != setup.h_elements[1]
    assert setup.h_is_abelian


def test_semidirect_law_matches_matrix_action_on_the_catalog():
    """The tabulated powers of the action reproduce (h1 + A^s·h2, s + t) and
    its inverse, with A^s taken as a matrix power, on every pair."""
    for name, kwargs in CATALOG.items():
        orders, action = kwargs["orders"], kwargs["action"]
        setup = semidirect_setup(**kwargs)
        group, p = setup.group, setup.p
        base = list(itertools.product(*(range(d) for d in orders)))

        def apply(mat, h):
            return tuple(
                sum(m * c for m, c in zip(row, h)) % d for row, d in zip(mat, orders)
            )

        power = [[int(i == j) for j in range(len(orders))] for i in range(len(orders))]
        acts = []
        for _ in range(p):
            acts.append({h: apply(power, h) for h in base})
            power = _mat_mul(action, power)
        for (h1, s) in group.elements:
            neg = acts[(p - s) % p][h1]
            expected = (tuple((-c) % d for c, d in zip(neg, orders)), (p - s) % p)
            assert group.inverse((h1, s)) == expected, name
            for (h2, t) in group.elements:
                moved = acts[s][h2]
                h = tuple((a + b) % d for a, b, d in zip(h1, moved, orders))
                assert group.mul((h1, s), (h2, t)) == (h, (s + t) % p), name


def test_sigma_orbits_partition_the_kernel():
    setup = semidirect_setup((7,), 3, action=[[2]])
    orbits = setup.orbits()
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 3, 3]
    seen = set()
    for orbit in orbits:
        for h in orbit:
            assert h not in seen
            seen.add(h)
        for a, b in zip(orbit, orbit[1:]):
            assert setup.sigma_action(a) == b
        assert setup.sigma_action(orbit[-1]) == orbit[0]
    assert seen == set(setup.h_elements)


def test_fiber_validation():
    with pytest.raises(BadConjugationData, match="neither 1 nor p"):
        semidirect_setup(
            (2, 2), 3, action=[[0, 1], [1, 1]], fibers=[[(1, 0), (0, 1)]]
        )
    with pytest.raises(BadConjugationData, match="involution"):
        semidirect_setup((4,), 3, fibers=[[(1,)]])
    with pytest.raises(BadConjugationData, match="not in the subgroup"):
        semidirect_setup((4,), 3, fibers=[[(5,)]])
    with pytest.raises(BadConjugationData, match="cyclically"):
        semidirect_setup(
            (2, 2), 3, action=[[0, 1], [1, 1]], fibers=[[(1, 0)]]
        )


# ---------------------------------------------------------------------------
# the transfer map


@pytest.mark.parametrize(
    "p, conductor, a", [(3, 7, 2), (3, 7, 3), (3, 7, 4), (3, 7, 5), (5, 11, 2)]
)
def test_transfer_is_cubing_on_the_arithmetic_group(p, conductor, a):
    """On the abelian unit group the coset transfer is the p-power map, and
    the literal transfer agrees with the level's `transfer_class`."""
    level = scenario_level(p, conductor, (p, conductor), a)
    f = level.modulus
    group = FiniteGroup(level.classes(Q_SIDE), lambda x, y: x * y % f, 1)
    setup = GaloisSetup(group, level.classes(L_SIDE), p)
    for g in group.elements:
        image = coset_transfer(setup, g)
        assert image == pow(g, p, f) == level.transfer_class(g)
        assert image in setup.h_set


def test_transfer_is_independent_of_transversal():
    setup = semidirect_setup((7,), 3, action=[[2]])
    cosets = {}
    for x in setup.group.elements:
        cosets.setdefault(setup.coset_of_position[setup.group.position[x]], []).append(x)
    rng = random.Random(45)
    for g in setup.group.elements:
        expected = coset_transfer(setup, g)
        for _ in range(6):
            reps = [rng.choice(cosets[i]) for i in range(setup.p)]
            assert coset_transfer(setup, g, reps=reps) == expected


def test_transfer_rejects_broken_transversal():
    setup = semidirect_setup((7,), 3, action=[[2]])
    rep = setup.reps[0]
    with pytest.raises(ValueError, match="transversal"):
        coset_transfer(setup, setup.group.identity, reps=[rep, rep, rep])


def test_transfer_rejects_foreign_elements():
    """A non-element in custom representatives, or as the argument, is bad
    input named as such, not a KeyError from a lookup table."""
    setup = semidirect_setup(**CATALOG["f21"])
    identity = setup.group.identity
    foreign = ((9,), 0)
    assert foreign not in setup.group.elements
    with pytest.raises(ValueError, match="custom representatives do not form a transversal"):
        coset_transfer(setup, identity, reps=[foreign, *setup.reps[1:]])
    with pytest.raises(ValueError, match=r"\(\(9,\), 0\) is not an element of the group"):
        coset_transfer(setup, foreign)


def test_transfer_agrees_on_permuted_custom_transversal():
    """Default transversal (precomputed inverses) against a custom one passed
    in permuted order (inverses taken per call)."""
    f21 = semidirect_setup(**CATALOG["f21"])
    units = _units63_setup()
    abelian = GaloisSetup(abelian_group((3, 9)), [(0, b) for b in range(9)], 3)
    s3 = _s3_group()
    a3 = GaloisSetup(s3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 2)
    for setup in (f21, units, abelian, a3):
        group, mul = setup.group, setup.group.mul
        shifted = [mul(r, h) for r, h in zip(setup.reps, setup.h_elements[1:])]
        for reps in (shifted[::-1], shifted[1:] + shifted[:1]):
            coset = [setup.coset_of_position[group.position[x]] for x in reps]
            assert coset != list(range(setup.p))
            for g in group.elements:
                assert coset_transfer(setup, g, reps=reps) == coset_transfer(setup, g)
    # the transfer from S3 to A3 is trivial
    assert all(coset_transfer(a3, g) == s3.identity for g in s3.elements)


def test_transfer_needs_abelian_kernel():
    s3 = _s3_group()
    pairs = tuple((x, t) for t in range(2) for x in s3.elements)

    def mul(a, b):
        return (s3.mul(a[0], b[0]), (a[1] + b[1]) % 2)

    group = FiniteGroup(pairs, mul, ((0, 1, 2), 0))
    h = tuple((x, 0) for x in s3.elements)
    setup = GaloisSetup(group, h, 2)
    assert not setup.h_is_abelian
    with pytest.raises(NotAbelianKernel):
        coset_transfer(setup, group.identity)
    with pytest.raises(NotAbelianKernel):
        TraceIdeal(setup)


def _reference_transfer(setup, g, reps):
    """ver(g) as the product of x_j⁻¹·g·x_i, with x_j found by searching the
    transversal for the one that brings g·x_i into H; only `mul` and
    `inverse` of the group are used."""
    group = setup.group
    mul, inverse = group.mul, group.inverse
    h_set = set(setup.h_elements)
    out = group.identity
    for x_i in reps:
        t = mul(g, x_i)
        (h,) = [mul(inverse(x_j), t) for x_j in reps if mul(inverse(x_j), t) in h_set]
        out = mul(out, h)
    return out


def _random_transversal(setup, rng):
    return [setup.group.mul(r, rng.choice(setup.h_elements)) for r in rng.sample(setup.reps, setup.p)]


def _assert_batched_transfer_matches_reference(setup, reps=None):
    group = setup.group
    everything = range(len(group))
    got = sigma._transfer_positions(setup, everything, reps)
    expected = [_reference_transfer(setup, g, reps or setup.reps) for g in group.elements]
    assert [group.elements[i] for i in got] == expected
    assert [coset_transfer(setup, g, reps) for g in group.elements] == expected
    # any subset of positions, in any order, reads the same values
    picked = [i for i in everything if i % 3 != 1][::-1]
    assert sigma._transfer_positions(setup, picked, reps) == [got[i] for i in picked]


def test_batched_transfer_matches_a_reference_on_the_catalog():
    for kwargs in CATALOG.values():
        _assert_batched_transfer_matches_reference(semidirect_setup(**kwargs))


def test_batched_transfer_matches_a_reference_on_random_transversals():
    rng = random.Random(2024)
    f21 = semidirect_setup(**CATALOG["f21"])
    for _ in range(8):
        _assert_batched_transfer_matches_reference(f21, _random_transversal(f21, rng))
    s3 = _s3_group()
    a3 = GaloisSetup(s3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 2)
    _assert_batched_transfer_matches_reference(a3)
    for _ in range(4):
        _assert_batched_transfer_matches_reference(a3, _random_transversal(a3, rng))
    units = _units63_setup()
    _assert_batched_transfer_matches_reference(units, _random_transversal(units, rng))


def test_batched_transfer_matches_a_reference_on_sweep_kernels():
    """Seeded kernels from the abelian sweep's range, built the way the sweep
    builds them, each with the default and a random transversal."""
    rng = random.Random(11)
    kernels = [
        (orders, p, functional)
        for n in range(2, 101)
        for orders in abelian_isomorphism_types(n)
        for p in sorted(factorize(n))
        for functional in index_p_functionals(orders, p)
    ]
    assert len(kernels) == 893
    for orders, p, functional in rng.sample(kernels, 24):
        group = abelian_group(orders)
        h = [
            x
            for x in group.elements
            if sum(c * a for c, a in zip(functional, x)) % p == 0
        ]
        setup = GaloisSetup(group, h, p)
        _assert_batched_transfer_matches_reference(setup)
        _assert_batched_transfer_matches_reference(setup, _random_transversal(setup, rng))
        assert [group.elements[i] for i in sigma._pth_powers(group.table, p)] == [
            _power(group, g, p) for g in group.elements
        ]


# ---------------------------------------------------------------------------
# trace ideals against the closed-form description


def _map_group(elt, fn):
    """Pushforward of a group-ring element along a map of the group."""
    out = {}
    for x, c in elt.coeffs.items():
        y = fn(x)
        out[y] = out.get(y, 0) + c
    return elt.ring.from_coeffs(out)


def _conjugate(setup, elt, k):
    """σ^k(elt), by pushing the group-ring element along the Σ-action k times."""
    for _ in range(k):
        elt = _map_group(elt, setup.sigma_action)
    return elt


def _trace(setup, elt):
    """The Σ-trace as the sum of the p conjugates."""
    out = elt.ring.from_coeffs({})
    for k in range(setup.p):
        out = out + _conjugate(setup, elt, k)
    return out


def _is_fixed(setup, elt):
    return _conjugate(setup, elt, 1) == elt


def _closed_form_member(setup, elt):
    # Σ-fixed, and divisible by p at every Σ-fixed kernel element
    if not _is_fixed(setup, elt):
        return False
    for orbit in setup.orbits():
        if len(orbit) == 1 and elt.coefficient(orbit[0]) % setup.p:
            return False
    return True


def _all_elements(ring):
    import itertools

    carrier = ring.elements
    for coeffs in itertools.product(range(ring.modulus), repeat=len(carrier)):
        yield ring.from_coeffs(
            {h: c for h, c in zip(carrier, coeffs) if c}
        )


def test_trace_ideal_membership_exhaustive_order3_action():
    """(Z/3)[Z/7] with the order-3 action: membership == the closed form."""
    setup = semidirect_setup((7,), 3, action=[[2]])
    ideal = TraceIdeal(setup)
    members = 0
    for elt in _all_elements(ideal.ring):
        expected = _closed_form_member(setup, elt)
        if not _is_fixed(setup, elt):
            with pytest.raises(NotFixed):
                ideal.membership(elt)
            continue
        verdict, cert = ideal.membership(elt)
        assert verdict == expected
        if verdict:
            members += 1
            assert _trace(setup, cert) == elt
        else:
            assert cert is None
    # fixed elements: free value on each of the two free orbits, p-divisible
    # value at the fixed point — of which only 0 survives mod 3
    assert members == 3 * 3 * 1


def test_trace_ideal_membership_exhaustive_deeper_modulus():
    """(Z/4)[Z/4] with negation: fixed points 0 and 2 must carry even mass."""
    setup = semidirect_setup((4,), 2, action=[[-1]], modulus_exponent=2)
    ideal = TraceIdeal(setup)
    assert ideal.modulus == 4
    sizes = sorted(len(o) for o in setup.orbits())
    assert sizes == [1, 1, 2]
    members = 0
    for elt in _all_elements(ideal.ring):
        if not _is_fixed(setup, elt):
            continue
        verdict, cert = ideal.membership(elt)
        assert verdict == _closed_form_member(setup, elt)
        if verdict:
            members += 1
            assert _trace(setup, cert) == elt
    assert members == 4 * 2 * 2


def test_trace_ideal_trivial_action_is_scalar_multiples():
    # trivial action: trace is multiplication by p, so T = p·R
    setup = semidirect_setup((2, 2), 3, modulus_exponent=1)
    ideal = TraceIdeal(setup)
    zero = ideal.ring.from_coeffs({})
    for elt in _all_elements(ideal.ring):
        verdict, cert = ideal.membership(elt)
        assert verdict == elt.is_zero()
    assert ideal.membership(zero) == (True, zero)


def test_trace_of_anything_is_a_member():
    setup = semidirect_setup((7,), 3, action=[[2]], modulus_exponent=2)
    ideal = TraceIdeal(setup)
    rng = random.Random(7)
    for _ in range(25):
        coeffs = {h: rng.randrange(9) for h in ideal.ring.elements}
        elt = ideal.ring.from_coeffs({h: c for h, c in coeffs.items() if c})
        traced = _trace(setup, elt)
        verdict, cert = ideal.membership(traced)
        assert verdict
        assert _trace(setup, cert) == traced


@pytest.mark.parametrize("name", ["f21", "c11_c5", "heisenberg3", "a4", "two_fiber_48"])
def test_vector_trace_and_fixedness_match_map_group(name):
    """The permutation-of-indices trace and fixedness test against pushing
    group-ring elements along σ^k with `_map_group`, on random elements and on
    random Σ-fixed ones."""
    setup = semidirect_setup(**CATALOG[name])
    ideal = TraceIdeal(setup)
    ring = ideal.ring
    rng = random.Random(name)
    samples = [
        ring.from_coeffs({h: rng.randrange(ring.modulus) for h in rng.sample(ring.elements, 4)})
        for _ in range(12)
    ]
    for _ in range(6):
        values = [rng.randrange(ring.modulus) for _ in setup.orbits()]
        samples.append(
            ring.from_coeffs({h: v for orbit, v in zip(setup.orbits(), values) for h in orbit})
        )
    fixed = 0
    for elt in samples:
        expected = ideal._vector(_trace(setup, elt))
        assert ideal._trace_vector(ideal._vector(elt)) == expected
        assert ideal._is_fixed_vector(expected)
        is_fixed = _is_fixed(setup, elt)
        assert ideal._is_fixed_vector(ideal._vector(elt)) == is_fixed
        fixed += is_fixed
    assert fixed >= 6


def test_membership_rejects_a_certificate_that_fails_re_expansion(monkeypatch):
    setup = semidirect_setup((7,), 3, action=[[2]], modulus_exponent=2)
    ideal = TraceIdeal(setup)
    member = _trace(setup, ideal.ring.delta(setup.h_elements[1]))
    trace = TraceIdeal._trace_vector

    def off_by_one(self, vector):
        out = trace(self, vector)
        out[0] = (out[0] + 1) % self.modulus
        return out

    monkeypatch.setattr(TraceIdeal, "_trace_vector", off_by_one)
    with pytest.raises(ArithmeticError, match="re-expansion"):
        ideal.membership(member)


def test_trace_ideal_rejects_foreign_ring():
    setup = semidirect_setup((7,), 3, action=[[2]])
    ideal = TraceIdeal(setup)
    other = semidirect_setup((7,), 3, action=[[2]], modulus_exponent=3).h_ring()
    with pytest.raises(ValueError, match="different ring"):
        ideal.membership(other.one())


def test_h_ring_is_built_once_per_setup():
    """A setup's ring is one object, so its elements and its trace ideal meet
    by identity; a ring from another setup is still refused."""
    setup = semidirect_setup(**CATALOG["f21"])
    ring = setup.h_ring()
    assert setup.h_ring() is ring
    assert TraceIdeal(setup).ring is ring
    other = semidirect_setup(**{**CATALOG["f21"], "modulus_exponent": 1}).h_ring()
    with pytest.raises(ValueError, match="different ring"):
        TraceIdeal(setup).membership(other.one())


# ---------------------------------------------------------------------------
# conjugation-element identity and the catalog


def test_catalog_entries_parse_and_verify():
    for name, kwargs in CATALOG.items():
        setup = semidirect_setup(**kwargs)
        report = verify_conjugation_identity(setup)
        assert report["verdict"], name
        assert report["modulus"] == setup.p**setup.modulus_exponent
        if report["fibers"] == 0:
            assert report["difference_is_zero"]
        else:
            assert _trace(setup, report["certificate"]) == report["difference"]


def test_conjugation_identity_has_content_with_fibers():
    report = verify_conjugation_identity(semidirect_setup(**CATALOG["a4"]))
    assert report["fibers"] == 1
    assert report["labels"] == 3
    assert not report["difference_is_zero"]
    report = verify_conjugation_identity(semidirect_setup(**CATALOG["two_fiber_48"]))
    assert report["fibers"] == 2
    assert report["labels"] == 6
    assert report["verdict"]


@pytest.fixture(scope="module")
def suite_report():
    return run_sigma_suite()


def test_suite_runs_green(suite_report):
    results = suite_report
    assert results["verdict"]
    assert len(results["checks"]) >= 8
    for name, report in results["checks"].items():
        assert report["verdict"], name
    sweep = results["checks"]["abelian_transfer_is_pth_power"]
    assert (sweep["groups"], sweep["kernels"], sweep["failures"]) == (184, 893, [])


#: SHA-256 of the suite's canonical JSON; the report must stay byte-identical.
SUITE_REPORT_SHA256 = "4e1b496c2f0778ab02d2721dcd8a6525aed37d8e93b2ac96565267f2c7d0de6b"


def test_suite_report_is_pinned_byte_for_byte(suite_report, tmp_path, capsys):
    canonical = json.dumps(jsonable(suite_report), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == SUITE_REPORT_SHA256
    out = tmp_path / "sigma.json"
    assert main(["sigma", "--json-out", str(out)]) == 0
    assert json.loads(out.read_text()) == jsonable(suite_report)
    assert "overall: PASS" in capsys.readouterr().out


def test_suite_report_is_pinned_under_python_O(tmp_path):
    """`python -O` strips assert statements; the suite's report must not change."""
    out = tmp_path / "sigma.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pmcong.cli", "sigma", "--json-out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    canonical = json.dumps(json.loads(out.read_text()), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == SUITE_REPORT_SHA256


_TRACE_MISSING_ONE_CONJUGATE = """
from pmcong import sigma

def trace_missing_one_conjugate(self, vector):
    conjugates = (map(vector.__getitem__, pull) for pull in self._pulls[:-1])
    return [sum(column) % self.modulus for column in zip(*conjugates)]

sigma.TraceIdeal._trace_vector = trace_missing_one_conjugate
print(sigma._check_membership_order3_action()["verdict"])
"""


def test_order3_membership_check_stops_on_a_faulty_trace():
    """A trace missing one conjugate gives generators outside the Σ-fixed
    ring: the closure walk must end in a false verdict instead of growing
    toward all 9^7 vectors.  A subprocess with a timeout keeps an unbounded
    walk from hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_MISSING_ONE_CONJUGATE],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_suite_call_counts(monkeypatch):
    """The suite builds 905 setups and makes 912 batched transfers over 53 746
    positions, one transversal per call; the abelian sweep alone transfers
    Σ|G| = 53 065 positions over its 893 kernels.  No check goes through the
    one-position `coset_transfer`, so the benchmark's traced count of it is 0."""
    calls = {"batched": 0, "positions": 0, "single": 0, "setup": 0}
    batched = sigma._transfer_positions
    single = sigma.coset_transfer
    init = GaloisSetup.__init__

    def counted_batched(setup, positions, reps=None):
        calls["batched"] += 1
        calls["positions"] += len(positions)
        return batched(setup, positions, reps)

    def counted_single(*args, **kwargs):
        calls["single"] += 1
        return single(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["setup"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(sigma, "_transfer_positions", counted_batched)
    monkeypatch.setattr(sigma, "coset_transfer", counted_single)
    monkeypatch.setattr(GaloisSetup, "__init__", counted_init)
    assert run_sigma_suite()["verdict"]
    assert calls == {"batched": 912, "positions": 53_746, "single": 0, "setup": 905}
    for key in calls:
        calls[key] = 0
    assert sigma._check_abelian_sweep(100)["verdict"]
    assert calls == {"batched": 893, "positions": 53_065, "single": 0, "setup": 893}


def test_abelian_sweep_can_fail(monkeypatch):
    def trivial_transfer(setup, positions, reps=None):
        return [setup.group.identity_position] * len(positions)

    monkeypatch.setattr(sigma, "_transfer_positions", trivial_transfer)
    check = run_sigma_suite()["checks"]["abelian_transfer_is_pth_power"]
    assert not check["verdict"]
    assert (check["groups"], check["kernels"]) == (184, 893)
    assert len(check["failures"]) == 5
    # Z/2×Z/2 squares to zero; Z/4 is the first group where 1 ≠ 1²
    assert check["failures"][0] == ((4,), 2, (1,), (1,))


def test_catalog_fibers_and_heisenberg_action():
    """Fiber entries become kernel elements (h, 0), and the Heisenberg entry's
    generator fixes (1, 0) and shears (0, 1) to (1, 1)."""
    a4 = semidirect_setup(**CATALOG["a4"])
    assert a4.fibers == ((((1, 0), 0), ((0, 1), 0), ((1, 1), 0)),)
    heisenberg = semidirect_setup(**CATALOG["heisenberg3"])
    assert heisenberg.sigma_action(((1, 0), 0)) == ((1, 0), 0)
    assert heisenberg.sigma_action(((0, 1), 0)) == ((1, 1), 0)
