"""Group-theoretic engine: transfers, Smith forms, trace ideals, the suite."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import pmcong.sigma as sigma
from pmcong.cli import main
from pmcong.harness import jsonable
from pmcong.levels import scenario_level
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
    parse_setup,
    run_sigma_suite,
    semidirect_setup,
    smith_normal_form,
    verify_conjugation_identity,
)
from pmcong.units import factorize


# ---------------------------------------------------------------------------
# Smith normal form, checked against exact fraction Gauss elimination


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


def _check_snf(matrix):
    d, u, v = smith_normal_form(matrix)
    n = len(matrix)
    m = len(matrix[0])
    assert len(d) == n and all(len(row) == m for row in d)
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(n, m))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    assert _mat_mul(_mat_mul(u, matrix), v) == d
    return diag


def test_smith_normal_form_fixed_examples():
    assert _check_snf([[2, 4], [6, 8]]) == [2, 4]
    assert _check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert _check_snf([[1, 0], [0, 0]]) == [1, 0]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert _check_snf([[6, 4, 2]]) == [2]
    assert _check_snf([[5]]) == [5]


def test_smith_normal_form_random_matrices():
    """Random shapes: decomposition identities plus |∏dᵢ| = |det| when square."""
    rng = random.Random(1729)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        diag = _check_snf(matrix)
        if n == m:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(_det(matrix))


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
        parse_setup("orders: 64 64\np: 3\n")
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


def test_power_matches_repeated_multiplication():
    """x^n for n in −|G|…2|G| on every catalog group and on S3: repeated
    products for n ≥ 0, and x^n·x^(−n) = 1 with x^n = x^(n mod |G|) for n < 0."""
    groups = [parse_setup(text).group for text in CATALOG.values()] + [_s3_group()]
    for group in groups:
        order = len(group)
        for x in group.elements:
            powers = [group.identity]
            for _ in range(2 * order):
                powers.append(group.mul(powers[-1], x))
            assert powers[order] == group.identity
            for n in range(-order, 2 * order + 1):
                got = group.power(x, n)
                if n >= 0:
                    assert got == powers[n]
                else:
                    assert got == powers[n % order]
                    assert group.mul(got, powers[-n]) == group.identity


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
        parse_setup(CATALOG["a4"]).group,
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
                    reps = [group.power(rep, i) for i in range(p)]
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


def _catalog_fields(text):
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value
    orders = tuple(int(d) for d in fields["orders"].split())
    action = [[int(c) for c in row.split()] for row in fields["action"].split(";")]
    return orders, action


def test_semidirect_law_matches_matrix_action_on_the_catalog():
    """The tabulated powers of the action reproduce (h1 + A^s·h2, s + t) and
    its inverse, with A^s taken as a matrix power, on every pair."""
    for name, text in CATALOG.items():
        orders, action = _catalog_fields(text)
        setup = parse_setup(text)
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


def test_transfer_is_cubing_on_the_arithmetic_group():
    """On the abelian unit group the coset transfer is the p-power map."""
    setup = _units63_setup()
    level = scenario_level(3, 7, (3, 7), 2)
    for g in setup.group.elements:
        image = coset_transfer(setup, g)
        assert image == pow(g, 3, 63)
        assert image in setup.h_set
        assert image == level.transfer_class(g)


def test_transfer_is_independent_of_transversal():
    setup = semidirect_setup((7,), 3, action=[[2]])
    cosets = {}
    for x in setup.group.elements:
        cosets.setdefault(setup.coset_index[x], []).append(x)
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
    setup = parse_setup(CATALOG["f21"])
    identity = setup.group.identity
    foreign = ((9,), 0)
    assert foreign not in setup.group
    with pytest.raises(ValueError, match="custom representatives do not form a transversal"):
        coset_transfer(setup, identity, reps=[foreign, *setup.reps[1:]])
    with pytest.raises(ValueError, match=r"\(\(9,\), 0\) is not an element of the group"):
        coset_transfer(setup, foreign)


def test_transfer_agrees_on_permuted_custom_transversal():
    """Default transversal (precomputed inverses) against a custom one passed
    in permuted order (inverses taken per call)."""
    f21 = parse_setup(CATALOG["f21"])
    units = _units63_setup()
    abelian = GaloisSetup(abelian_group((3, 9)), [(0, b) for b in range(9)], 3)
    s3 = _s3_group()
    a3 = GaloisSetup(s3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 2)
    for setup in (f21, units, abelian, a3):
        group, mul = setup.group, setup.group.mul
        shifted = [mul(r, h) for r, h in zip(setup.reps, setup.h_elements[1:])]
        for reps in (shifted[::-1], shifted[1:] + shifted[:1]):
            assert [setup.coset_index[x] for x in reps] != list(range(setup.p))
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


# ---------------------------------------------------------------------------
# trace ideals against the closed-form description


def _closed_form_member(setup, ideal, elt):
    # Σ-fixed, and divisible by p at every Σ-fixed kernel element
    if not ideal.is_fixed(elt):
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
    ideal = TraceIdeal(setup, modulus_exponent=1)
    members = 0
    for elt in _all_elements(ideal.ring):
        expected = _closed_form_member(setup, ideal, elt)
        if not ideal.is_fixed(elt):
            with pytest.raises(NotFixed):
                ideal.membership(elt)
            continue
        verdict, cert = ideal.membership(elt)
        assert verdict == expected
        if verdict:
            members += 1
            assert ideal.trace(cert) == elt
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
        if not ideal.is_fixed(elt):
            continue
        verdict, cert = ideal.membership(elt)
        assert verdict == _closed_form_member(setup, ideal, elt)
        if verdict:
            members += 1
            assert ideal.trace(cert) == elt
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
        traced = ideal.trace(elt)
        verdict, cert = ideal.membership(traced)
        assert verdict
        assert ideal.trace(cert) == traced


def test_membership_rejects_a_certificate_that_fails_re_expansion(monkeypatch):
    setup = semidirect_setup((7,), 3, action=[[2]], modulus_exponent=2)
    ideal = TraceIdeal(setup)
    member = ideal.trace(ideal.ring.delta(setup.h_elements[1]))
    trace = TraceIdeal.trace
    monkeypatch.setattr(
        TraceIdeal, "trace", lambda self, elt: trace(self, elt) + self.ring.one()
    )
    with pytest.raises(ArithmeticError, match="re-expansion"):
        ideal.membership(member)


def test_trace_ideal_rejects_foreign_ring():
    setup = semidirect_setup((7,), 3, action=[[2]])
    ideal = TraceIdeal(setup)
    other = setup.h_ring(modulus=27)
    with pytest.raises(ValueError, match="different ring"):
        ideal.membership(other.one())


# ---------------------------------------------------------------------------
# conjugation-element identity and the catalog


def test_catalog_entries_parse_and_verify():
    for name, text in CATALOG.items():
        setup = parse_setup(text)
        report = verify_conjugation_identity(setup)
        assert report["verdict"], name
        assert report["modulus"] == setup.p**setup.modulus_exponent
        if report["fibers"] == 0:
            assert report["difference_is_zero"]
        else:
            cert = report["certificate"]
            ideal = TraceIdeal(setup)
            assert ideal.trace(cert) == report["difference"]


def test_conjugation_identity_has_content_with_fibers():
    report = verify_conjugation_identity(parse_setup(CATALOG["a4"]))
    assert report["fibers"] == 1
    assert report["labels"] == 3
    assert not report["difference_is_zero"]
    report = verify_conjugation_identity(parse_setup(CATALOG["two_fiber_48"]))
    assert report["fibers"] == 2
    assert report["labels"] == 6
    assert report["verdict"]


def test_parse_setup_grammar():
    setup = parse_setup("# comment\n\norders: 7\np: 3\naction: 2\n")
    assert len(setup.group) == 21
    with pytest.raises(ValueError, match="must define"):
        parse_setup("orders: 7\n")
    with pytest.raises(ValueError, match="unknown directive"):
        parse_setup("orders: 7\np: 3\ncolour: red\n")
    with pytest.raises(ValueError, match="expected"):
        parse_setup("orders 7\np: 3\n")
    with pytest.raises(ValueError, match="parenthesized"):
        parse_setup("orders: 2 2\np: 3\naction: 0 1 ; 1 1\nfiber: 1 0\n")
    with pytest.raises(BadConjugationData, match="arity"):
        parse_setup("orders: 2 2\np: 3\naction: 0 1 ; 1 1\nfiber: (1)\n")


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


def test_suite_call_counts(monkeypatch):
    """The suite builds 905 setups and takes 53 809 literal transfers, one per
    element and transversal; the benchmark's traced counters explain its time
    by these numbers."""
    calls = {"transfer": 0, "setup": 0}
    transfer = sigma.coset_transfer
    init = GaloisSetup.__init__

    def counted_transfer(*args, **kwargs):
        calls["transfer"] += 1
        return transfer(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["setup"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(sigma, "coset_transfer", counted_transfer)
    monkeypatch.setattr(GaloisSetup, "__init__", counted_init)
    assert run_sigma_suite()["verdict"]
    assert calls == {"transfer": 53_809, "setup": 905}


def test_abelian_sweep_can_fail(monkeypatch):
    def trivial_transfer(setup, g, reps=None):
        return setup.group.identity

    monkeypatch.setattr(sigma, "coset_transfer", trivial_transfer)
    check = run_sigma_suite()["checks"]["abelian_transfer_is_pth_power"]
    assert not check["verdict"]
    assert (check["groups"], check["kernels"]) == (184, 893)
    assert len(check["failures"]) == 5
    # Z/2×Z/2 squares to zero; Z/4 is the first group where 1 ≠ 1²
    assert check["failures"][0] == ((4,), 2, (1,), (1,))


def test_parse_setup_action_and_fiber_lines():
    text = "orders: 2, 2\np: 3\nmodulus_exponent: 2\naction: 0,1 ; 1 1\nfiber: (1 0) (0,1) ( 1 1 )\n"
    parsed = parse_setup(text)
    built = semidirect_setup(
        (2, 2), 3, action=[[0, 1], [1, 1]], modulus_exponent=2, fibers=[[(1, 0), (0, 1), (1, 1)]]
    )
    assert parsed.fibers == built.fibers == ((((1, 0), 0), ((0, 1), 0), ((1, 1), 0)),)
    assert parsed.group.elements == built.group.elements
    assert all(parsed.sigma_action(h) == built.sigma_action(h) for h in built.h_elements)
    heisenberg = parse_setup(CATALOG["heisenberg3"])
    assert heisenberg.sigma_action(((1, 0), 0)) == ((1, 0), 0)
    assert heisenberg.sigma_action(((0, 1), 0)) == ((1, 1), 0)
