"""The cyclic cubic fields: periods, splitting, ideals, totally positive lists.

Independence of the oracles used here:

* total positivity is re-decided with a Sturm chain built in the test from
  scratch (the library uses coefficient sign alternation instead);
* completeness of the totally-positive enumeration is checked by scanning a
  coordinate box whose (generous) radius is derived in the test from the
  trace-form inverse and the exact root brackets;
* ideal counts are compared against Dirichlet-series coefficients of the
  matching character family (an Euler-product computation that never touches
  ideals).
"""

import itertools
import random
from fractions import Fraction

import pytest

from pmcong.cache import load_records, store_records
from pmcong.exact import poly_eval_mod
from pmcong.dirichlet import characters_of, conductor_primitive, series_coefficients
from pmcong.numberfield import (
    NotCoprime,
    _det_inv,
    _newton_char_poly,
    artin_symbol,
    enumerate_ideals,
    enumerate_tot_pos_trace,
    factor_principal,
    field_spec,
    sigma_ideal,
    split_type,
    tot_pos_up_to,
)
from pmcong.units import is_prime


F7 = field_spec(3, 7)
F13 = field_spec(3, 13)


# ----------------------------------------------------------------- periods --


def test_minimal_polynomials_are_the_classical_period_cubics():
    assert F7.min_poly == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1
    assert F13.min_poly == (1, -4, 1, 1)  # x^3 + x^2 - 4x + 1


def test_rational_embedding_and_traces():
    for spec in (F7, F13):
        one = spec.one()
        assert one.coords == (-1, -1, -1)
        assert one.trace() == 3
        assert one.norm() == 1
        assert spec.from_rational(-5).trace() == -15
        assert spec.from_rational(2).norm() == 8
        assert spec.period(0).trace() == -1
        assert (one * one) == one
        for i in range(3):
            eta = spec.period(i)
            assert eta.sigma().coords == spec.period((i + 1) % 3).coords


def test_multiplication_is_commutative_and_associative_on_a_box():
    pool = [F7.element(c) for c in itertools.product((-1, 0, 2), repeat=3)]
    for a in pool:
        for b in pool:
            assert a * b == b * a
            assert (a * b).trace() == (b * a).trace()
    for a in pool[:9]:
        for b in pool[:9]:
            for c in pool[:9]:
                assert (a * b) * c == a * (b * c)


def test_sigma_is_a_ring_automorphism_of_order_three():
    pool = [F13.element(c) for c in itertools.product((-2, 0, 1, 3), repeat=3)]
    for a in pool:
        assert a.sigma().sigma().sigma() == a
        assert a.sigma().trace() == a.trace()
        assert a.sigma().norm() == a.norm()
    for a in pool[:16]:
        for b in pool[:16]:
            assert (a * b).sigma() == a.sigma() * b.sigma()
            assert (a + b).sigma() == a.sigma() + b.sigma()


# ---------------------------------------------------------------- splitting --


def test_split_type_against_power_residue_oracle():
    for spec in (F7, F13):
        f = spec.conductor
        for q in range(2, 501):
            if not is_prime(q):
                continue
            data = split_type(spec, q)
            total = sum(P.e * P.f for P in data.slots)
            assert total == 3
            if q == f:
                assert data.e == 3 and data.f == 1 and data.g == 1
            elif pow(q, (f - 1) // 3, f) == 1:
                assert data.e == 1 and data.f == 1 and data.g == 3
            else:
                assert data.e == 1 and data.f == 3 and data.g == 1
            for P in data.slots:
                assert P.norm() == q**P.f


def test_split_roots_satisfy_min_poly():
    # for split q the three slots carry distinct roots of the period cubic
    for spec in (F7, F13):
        f = spec.conductor
        for q in range(2, 200):
            if not is_prime(q) or q == f or pow(q, (f - 1) // 3, f) != 1:
                continue
            data = split_type(spec, q)
            roots = [P.root for P in data.slots]
            assert len(set(roots)) == 3
            c0, c1, c2, c3 = spec.min_poly
            for r in roots:
                assert (c0 + c1 * r + c2 * r * r + c3 * r**3) % q == 0


@pytest.mark.parametrize("p, conductor", [(3, 7), (3, 13), (3, 19), (5, 11), (11, 23)])
def test_split_roots_match_a_full_scan(p, conductor):
    """The roots taken from one root's Galois orbit are every root in range(q)."""
    spec = field_spec(p, conductor)
    split = 0
    for q in range(2, 2000):
        if not is_prime(q) or q == conductor:
            continue
        data = split_type(spec, q)
        if pow(q, (conductor - 1) // p, conductor) != 1:
            assert [P.root for P in data.slots] == [None]
            continue
        split += 1
        scan = [r for r in range(q) if poly_eval_mod(spec.min_poly, r, q) == 0]
        assert [P.root for P in data.slots] == scan, q
    assert split > 0


@pytest.mark.parametrize("galois_map", [(0, 1, 0), (1, 1, 0)], ids=["identity", "shift"])
def test_split_type_rejects_a_wrong_galois_map(monkeypatch, galois_map):
    """An orbit map that does not permute the roots cannot pass for the splitting."""
    spec = field_spec(3, 7)
    monkeypatch.setattr(spec, "prev_period_power", galois_map)
    with pytest.raises(ArithmeticError, match="p distinct roots"):
        split_type(spec, 13)


# ------------------------------------------------------------------- ideals --


def test_factor_principal_known_shapes():
    for q, shape in ((2, (1, 1)), (7, (1, 3)), (13, (3, 1)), (29, (3, 1))):
        # (g, e) after factoring the rational prime q in F7
        factored = factor_principal(F7, F7.from_rational(q))
        assert len(factored.factors) == shape[0]
        assert all(e == shape[1] for _, e in factored.factors)
        assert factored.norm() == q**3


def test_factor_principal_norm_and_symbol_match():
    for coords in itertools.product(range(-2, 3), repeat=3):
        nu = F7.element(coords)
        if nu.is_zero():
            continue
        factored = factor_principal(F7, nu)
        assert factored.norm() == abs(nu.norm())
        if factored.norm() % 63 and all(factored.norm() % q for q in (3, 7)):
            assert artin_symbol(factored, 63) == factored.norm() % 63


def test_artin_symbol_rejects_non_coprime():
    seven = factor_principal(F7, F7.from_rational(7))
    with pytest.raises(NotCoprime):
        artin_symbol(seven, 63)


def test_divisors_complete_and_counted():
    nu = F7.from_rational(2 * 29)
    factored = factor_principal(F7, nu)
    divs = factored.divisors()
    expected = 1
    for _, e in factored.factors:
        expected *= e + 1
    assert len(divs) == expected
    assert len({d.key() for d in divs}) == expected
    norms = sorted(d.norm() for d in divs)
    assert norms[0] == 1 and norms[-1] == factored.norm()
    skip = factored.divisors(skip_primes=(2,))
    assert all(d.norm() % 2 for d in skip)


def test_sigma_ideal_preserves_invariants():
    for bound in (60,):
        for ideal in enumerate_ideals(F7, bound, ()):
            moved = sigma_ideal(F7, ideal)
            assert moved.norm() == ideal.norm()
            back = sigma_ideal(F7, sigma_ideal(F7, moved))
            assert back.key() == ideal.key()
            if ideal.norm() % 3 == 0 or ideal.norm() % 7 == 0:
                continue
            assert artin_symbol(moved, 63) == artin_symbol(ideal, 63)


def test_ideal_counts_match_euler_product():
    # 1728 = 12³ with S = {3, 7}: the pool the q-expansion check of the
    # bundled scenario enumerates (ν = 12, of trace 36)
    for spec, bound, s_primes in ((F7, 300, ()), (F13, 150, ()), (F7, 1728, (3, 7))):
        f = spec.conductor
        norm_classes = tuple(x for x in sorted(spec.coset_of) if spec.coset_of[x] == 0)
        prims = tuple(
            conductor_primitive(chi)
            for chi in characters_of(f, trivial_on=norm_classes)
        )
        counts = {}
        for ideal in enumerate_ideals(spec, bound, s_primes):
            counts[ideal.norm()] = counts.get(ideal.norm(), 0) + 1
        series = series_coefficients(prims, bound, s_primes)
        for n in range(1, bound + 1):
            assert counts.get(n, 0) == series[n], f"norm {n} of conductor {f}, S = {s_primes}"


def test_ideal_enumeration_s_pruning():
    full = enumerate_ideals(F7, 200, ())
    pruned = enumerate_ideals(F7, 200, (3, 7))
    assert all(i.norm() % 3 and i.norm() % 7 for i in pruned)
    # pruning must keep exactly the ideals whose norm avoids S
    expected = {i.key() for i in full if i.norm() % 3 and i.norm() % 7}
    assert {i.key() for i in pruned} == expected


# --------------------------------------------------------- totally positive --


def _sturm_chain(poly):
    def degree(f):
        d = len(f) - 1
        while d > 0 and f[d] == 0:
            d -= 1
        return d

    def rem(f, g):
        f = list(f)
        dg = degree(g)
        while degree(f) >= dg and any(f):
            df = degree(f)
            lead = f[df] / g[dg]
            for i in range(dg + 1):
                f[df - dg + i] -= lead * g[i]
            f[df] = Fraction(0)
        return f

    chain = [[Fraction(c) for c in poly]]
    d = degree(chain[0])
    chain.append([Fraction(i * c) for i, c in enumerate(chain[0])][1:] or [Fraction(0)])
    while degree(chain[-1]) > 0 or any(chain[-1]):
        r = [-c for c in rem(chain[-2], chain[-1])]
        if not any(r):
            break
        chain.append(r)
    return chain


def _sign_changes(chain, x):
    signs = []
    for f in chain:
        v = sum(c * x**i for i, c in enumerate(f))
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _totally_positive_sturm(nu):
    """Independent verdict: all roots of the characteristic polynomial in (0, inf).

    Sturm counts distinct roots, so run it on the squarefree core: fine here
    because a root of multiplicity means a rational nu (char poly (x-c)^3),
    which the chain collapses to automatically via gcd steps.
    """
    if nu.is_zero():
        return False
    poly = nu.char_poly()
    chain = _sturm_chain(poly)
    big = Fraction(1 + max(abs(c) for c in poly))
    distinct_positive = _sign_changes(chain, Fraction(0)) - _sign_changes(chain, big)
    distinct_total = _sign_changes(chain, -big) - _sign_changes(chain, big)
    return distinct_positive == distinct_total and distinct_positive > 0


def test_char_poly_newton_identities_are_exact():
    # a rational c has characteristic polynomial (x − c)^3
    for c in (-4, 1, 5):
        assert F7.from_rational(c).char_poly() == (-(c**3), 3 * c**2, -3 * c, 1)
    # power sums 1, 0, 0 would need e_2 = 1/2: not an algebraic integer
    with pytest.raises(ArithmeticError, match="non-integral"):
        _newton_char_poly([1, 0, 0], 3)


def test_char_poly_is_kept_and_the_element_stays_immutable():
    for spec in (F7, field_spec(5, 11)):
        for coords in ((2, -1, 0, 3, 1)[: spec.p], (1,) + (0,) * (spec.p - 1)):
            nu = spec.element(coords)
            sums, power = [], nu
            for _ in range(spec.p):
                sums.append(power.trace())
                power = power * nu
            first = nu.char_poly()
            assert first == _newton_char_poly(sums, spec.p)
            assert nu.char_poly() is first
            assert nu.norm() == -first[0]
            for name in ("coords", "_char_poly"):
                with pytest.raises(AttributeError):
                    setattr(nu, name, None)
            assert nu.coords == tuple(coords) and nu.char_poly() is first


def test_total_positivity_matches_sturm_exhaustively():
    for spec in (F7, F13):
        for coords in itertools.product(range(-3, 4), repeat=3):
            nu = spec.element(coords)
            assert nu.is_totally_positive() == _totally_positive_sturm(nu), coords


def _sound_box_radius(spec, t):
    """|c_i| bound for any nu with all embeddings in (0, t], derived exactly.

    c = T^{-1} (tr(nu*eta_i))_i and |tr(nu*eta_i)| <= t * sum_j |eta^(j)|,
    with each |eta^(j)| bounded by its exact root bracket.
    """
    root_bound = sum(max(abs(lo), abs(hi)) for lo, hi in spec.root_brackets)
    row_norm = max(sum(abs(v) for v in row) for row in spec.trace_form_inv)
    radius = row_norm * root_bound * t
    return int(radius) + 1


def _every_trace(spec, trace_bound, cache_dir=None):
    """The per-trace scan at every trace 1..bound, not only the multiples of p."""
    return {
        t: enumerate_tot_pos_trace(spec, t, cache_dir=cache_dir)
        for t in range(1, trace_bound + 1)
    }


def test_tot_pos_lists_complete_against_box_scan():
    for spec, trace_bound in ((F7, 6), (F13, 4)):
        lists = _every_trace(spec, trace_bound)
        box = _sound_box_radius(spec, trace_bound)
        found = {t: set() for t in range(1, trace_bound + 1)}
        for coords in itertools.product(range(-box, box + 1), repeat=3):
            nu = spec.element(coords)
            t = nu.trace()
            if 1 <= t <= trace_bound and _totally_positive_sturm(nu):
                found[t].add(coords)
        for t in range(1, trace_bound + 1):
            got = {nu.coords for nu in lists.get(t, ())}
            assert got == found[t], f"trace {t}, conductor {spec.conductor}"


def test_tot_pos_lists_are_sigma_stable_and_sorted_by_trace():
    lists = _every_trace(F7, 12)
    assert set(lists) <= set(range(1, 13))
    for t, nus in lists.items():
        for nu in nus:
            assert nu.trace() == t
            assert nu.is_totally_positive()
            assert nu.sigma().coords in {m.coords for m in nus}


def test_no_totally_positive_below_the_degree():
    # arithmetic-geometric mean: trace < 3 forces norm < 1, impossible
    lists = _every_trace(F7, 2)
    assert all(not v for v in lists.values())
    exactly_three = enumerate_tot_pos_trace(F7, 3)
    assert [nu.coords for nu in exactly_three] == [F7.one().coords]


def test_enumerate_single_trace_consistent():
    # tot_pos_up_to holds the per-trace scans at the traces p, 2p, … only
    lists = tot_pos_up_to(F13, 8)
    assert list(lists) == [3, 6]
    for t in lists:
        single = enumerate_tot_pos_trace(F13, t)
        assert {nu.coords for nu in single} == {nu.coords for nu in lists[t]}


# -------------------------------------------------------------------- cache --


def test_cache_round_trip_and_corruption_recovery(tmp_path):
    first = _every_trace(F7, 9, cache_dir=tmp_path)
    files = sorted(tmp_path.glob("*.txt"))
    assert files, "warm run must write cache files"
    blobs = {f: f.read_bytes() for f in files}

    again = _every_trace(F7, 9, cache_dir=tmp_path)
    assert {t: [n.coords for n in v] for t, v in first.items()} == {
        t: [n.coords for n in v] for t, v in again.items()
    }
    for f in files:
        assert f.read_bytes() == blobs[f], "rerun must be byte-identical"

    victim = files[0]
    corrupted = bytearray(blobs[victim])
    corrupted[len(corrupted) // 2] ^= 0xFF
    victim.write_bytes(bytes(corrupted))
    healed = _every_trace(F7, 9, cache_dir=tmp_path)
    assert {t: [n.coords for n in v] for t, v in first.items()} == {
        t: [n.coords for n in v] for t, v in healed.items()
    }
    assert victim.read_bytes() == blobs[victim], "corrupt file must be rewritten"


def test_cache_headers_name_kind_and_key(tmp_path):
    tot_pos_up_to(F7, 4, cache_dir=tmp_path)
    for f in tmp_path.glob("*.txt"):
        head = f.read_text().splitlines()[0]
        assert head.startswith("pmcong-cache/2 ")


TOTPOS_12 = {"p": 3, "fL": 7, "t": 12}


def test_cache_truncated_at_a_record_boundary_is_recomputed(tmp_path):
    first = enumerate_tot_pos_trace(F7, 12, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.txt")
    fresh = path.read_bytes()
    lines = fresh.decode("utf-8").splitlines(keepends=True)
    assert len(lines) == 1 + 10 + 1  # header, 10 records, trailer
    path.write_bytes("".join(lines[:6]).encode("utf-8"))  # header and 5 records
    assert load_records(tmp_path, "totpos", TOTPOS_12) is None
    assert enumerate_tot_pos_trace(F7, 12, cache_dir=tmp_path) == first
    assert path.read_bytes() == fresh, "the healed file must match a fresh one"

    # so is a file cut only before its final newline
    path.write_bytes(fresh[:-1])
    assert load_records(tmp_path, "totpos", TOTPOS_12) is None

    # a pmcong-cache/1 file (no trailer) is stale and rewritten as version 2
    v1 = [lines[0].replace("pmcong-cache/2 ", "pmcong-cache/1 ")] + lines[1:-1]
    path.write_bytes("".join(v1).encode("utf-8"))
    assert load_records(tmp_path, "totpos", TOTPOS_12) is None
    enumerate_tot_pos_trace(F7, 12, cache_dir=tmp_path)
    assert path.read_bytes() == fresh


# trace 6 holds (-3,-2,-1), (-2,-2,-2), (-2,-1,-3), (-1,-3,-2); each edit
# breaks exactly one record check and keeps the rest in ascending order
@pytest.mark.parametrize(
    "tamper",
    [
        lambda records: ["-6,0,0"] + records,  # trace 6, one negative embedding
        lambda records: records + ["1,2"],  # two coordinates in a cubic field
        lambda records: ["-3,-3,-3"] + records,  # totally positive, but trace 9
        lambda records: records[1:] + records[:1],  # every ν, out of order
    ],
    ids=["not-totally-positive", "coordinate-count", "wrong-trace", "out-of-order"],
)
def test_bad_scan_record_with_valid_crc_heals_the_file(tmp_path, tamper):
    key = {"p": 3, "fL": 7, "t": 6}
    first = enumerate_tot_pos_trace(F7, 6, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.txt")
    fresh = path.read_bytes()
    bad = tamper(load_records(tmp_path, "totpos", key))
    store_records(tmp_path, "totpos", key, bad)
    assert load_records(tmp_path, "totpos", key) == bad  # checksums still pass
    assert enumerate_tot_pos_trace(F7, 6, cache_dir=tmp_path) == first
    assert path.read_bytes() == fresh, "the bad file must be rewritten"


# ------------------------------------------------------------ elimination --


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * c * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, c in enumerate(rows[0])
    )


def test_det_inv_on_random_integer_matrices():
    rng = random.Random(20)
    singular = 0
    for n in range(1, 6):
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(60):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det, inv = _det_inv(rows)
            assert det == _cofactor_det(rows)
            if det == 0:
                singular += 1
                assert inv is None
                continue
            product = [
                [sum(rows[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert product == identity
    assert singular > 0


def test_det_inv_swaps_and_singular_input():
    assert _det_inv([[0, 1], [1, 0]]) == (-1, [[0, 1], [1, 0]])
    assert _det_inv([[0, 0], [0, 0]]) == (0, None)
    assert _det_inv([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == (0, None)
    assert _det_inv([[2]]) == (2, [[Fraction(1, 2)]])
