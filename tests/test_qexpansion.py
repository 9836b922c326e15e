"""Formal q-expansions: Eisenstein tables and the per-coefficient congruence."""

import math
from fractions import Fraction

import pytest

import pmcong.numberfield as numberfield
import pmcong.qexpansion as qexpansion
from pmcong.harness import ScenarioConfig, run_scenario
from pmcong.levels import L_SIDE, Q_SIDE, LocallyConstantFn, scenario_level, zeta_level
from pmcong.numberfield import AlgebraicInt
from pmcong.pseudomeasure import FlagViolation
from pmcong.qexpansion import (
    NotEven,
    NuTable,
    eisenstein_l,
    eisenstein_q,
    verify_qexp_congruence,
)
from pmcong.zeta import scaled_zeta_of

LV = scenario_level(3, 7, (3, 7), 2)
ONE_L = LocallyConstantFn.constant_fn(LV, L_SIDE, 1)


def _sigma_power(mu, power):
    return sum(d**power for d in range(1, mu + 1) if mu % d == 0)


def test_classical_weight_four_series():
    """At level one the table must be the textbook series 1/240 + Σσ₃(μ)qᵘ."""
    level = zeta_level(1)
    eps = LocallyConstantFn.constant_fn(level, Q_SIDE, 1)
    constant, coefficients = eisenstein_q(level, eps, 4, 50)
    assert constant == Fraction(1, 240)
    assert coefficients == {mu: _sigma_power(mu, 3) for mu in range(1, 51)}


def test_classical_weight_two_and_six_spot_values():
    level = zeta_level(1)
    eps = LocallyConstantFn.constant_fn(level, Q_SIDE, 1)
    e2_constant, e2 = eisenstein_q(level, eps, 2, 10)
    assert e2_constant == Fraction(-1, 24)
    assert [e2[mu] for mu in (1, 2, 3, 4, 6)] == [1, 3, 4, 7, 12]
    e6_constant, e6 = eisenstein_q(level, eps, 6, 6)
    assert e6_constant == Fraction(-1, 504)
    assert e6[6] == _sigma_power(6, 5)


def test_depleted_series_skips_s_divisors():
    # with S = {3, 7} the divisor sums only see divisors prime to 21
    eps = LocallyConstantFn.constant_fn(LV, Q_SIDE, 1)
    _, expansion = eisenstein_q(LV, eps, 2, 42)
    assert list(expansion) == list(range(1, 43))
    for mu in range(1, 43):
        expected = sum(d for d in range(1, mu + 1) if mu % d == 0 and d % 3 and d % 7)
        assert expansion[mu] == expected
    assert expansion[21] == 1
    assert expansion[42] == 3


def test_eisenstein_q_validates_inputs():
    eps = LocallyConstantFn.constant_fn(LV, Q_SIDE, 1)
    for bad_k in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            eisenstein_q(LV, eps, bad_k, 5)
    with pytest.raises(ValueError):
        eisenstein_q(LV, eps, 2, 0)
    with pytest.raises(ValueError, match="base-side"):
        eisenstein_q(LV, ONE_L, 2, 5)
    other = zeta_level(5)
    odd = LocallyConstantFn.from_table(other, Q_SIDE, {1: 1, 2: 0, 3: 0, 4: 0})
    assert not odd.even
    with pytest.raises(NotEven):
        eisenstein_q(other, odd, 2, 5)


def test_eisenstein_l_validates_inputs():
    with pytest.raises(ValueError, match="extension-side"):
        eisenstein_l(LV, LocallyConstantFn.constant_fn(LV, Q_SIDE, 1), 2, 6)
    odd_l = LocallyConstantFn.delta_fn(LV, L_SIDE, 8)
    assert not odd_l.even
    with pytest.raises(NotEven):
        eisenstein_l(LV, odd_l, 2, 6)
    with pytest.raises(ValueError):
        eisenstein_l(LV, ONE_L, 3, 6)
    with pytest.raises(ValueError):
        eisenstein_l(LV, ONE_L, 2, 0)


def test_extension_coefficient_at_one_is_epsilon_of_one():
    table = {x: Fraction(1) for x in LV.classes(L_SIDE)}
    table[1] = Fraction(5)
    table[62] = Fraction(5)  # keep it even
    eps = LocallyConstantFn.from_table(LV, L_SIDE, table)
    _, expansion = eisenstein_l(LV, eps, 2, 3)
    one = LV.field.from_rational(1)
    assert expansion[one.coords] == 5


def test_extension_coefficients_are_conjugation_invariant():
    _, expansion = eisenstein_l(LV, ONE_L, 2, 12)
    field = LV.field
    count = 0
    for coords, value in expansion.items():
        nu = field.element(coords)
        assert nu.trace() % 3 == 0  # E(μ) reads only the ν of trace 3μ
        assert expansion[nu.sigma().coords] == value
        count += 1
    assert count > 10


def test_table_holds_exactly_the_traces_p_mu():
    assert list(NuTable(LV, 36).by_trace) == list(range(3, 37, 3))


def test_difference_expansion_anchor():
    """Frozen exact table for the constant-one weight-2 difference at depth 4,
    assembled from the two Eisenstein series by summing along the trace."""
    table = NuTable(LV, 3 * 4)
    upstairs_constant, upstairs = eisenstein_l(LV, ONE_L, 2, 3 * 4, table=table)
    downstairs_constant, downstairs = eisenstein_q(LV, ONE_L.compose_transfer(), 6, 4)
    constant = upstairs_constant - downstairs_constant
    assert constant == Fraction(169441, 21)
    manual = scaled_zeta_of(LV, L_SIDE, ONE_L, 2) - scaled_zeta_of(
        LV, Q_SIDE, ONE_L.compose_transfer(), 6
    )
    assert constant == manual
    coefficients = tuple(
        sum((upstairs[nu.coords] for nu in table.by_trace[3 * mu]), Fraction(0))
        - downstairs[mu]
        for mu in range(1, 5)
    )
    assert coefficients == (
        Fraction(0),
        Fraction(-21),
        Fraction(42),
        Fraction(-735),
    )
    report = verify_qexp_congruence(LV, ONE_L, 2, 4, table=table)
    assert report["constant_term"] == constant
    for mu, value in enumerate(coefficients, start=1):
        book = report["bookkeeping"][mu]
        assert book["moved_sum"] + book["fermat_defect"] == value


def test_difference_requires_integral_function():
    third = LocallyConstantFn.constant_fn(LV, L_SIDE, Fraction(1, 3))
    with pytest.raises(FlagViolation):
        verify_qexp_congruence(LV, third, 2, 3)


def test_congruence_report_anchor():
    report = verify_qexp_congruence(LV, ONE_L, 2, 4)
    assert report["verdict"]
    assert report["routes_agree"]
    assert report["weight_out"] == 6
    assert report["constant_term"] == Fraction(169441, 21)
    assert report["constant_term"] == scaled_zeta_of(LV, L_SIDE, ONE_L, 2) - scaled_zeta_of(
        LV, Q_SIDE, ONE_L.compose_transfer(), 6
    )
    assert report["valuations"] == {
        1: math.inf,
        2: 1,
        3: 1,
        4: 1,
    }
    for mu, book in report["bookkeeping"].items():
        assert book["identity_holds"]
        assert book["fixed_match_base_divisors"]
        assert book["moved_sum"] % 3 == 0
        coefficient = book["moved_sum"] + book["fermat_defect"]
        assert coefficient == [0, -21, 42, -735][mu - 1]
    assert report["bookkeeping"][2]["pairs"] == 5
    assert report["bookkeeping"][2]["moved_orbits"] == 1
    assert report["bookkeeping"][4]["fixed_pairs"] == 3


def test_congruence_holds_for_an_orbit_indicator():
    from pmcong.levels import even_orbit_indicators

    eps = next(
        fn
        for fn in even_orbit_indicators(LV, L_SIDE)
        if fn(1) == 0  # a nontrivial indicator, not supported at 1
    )
    report = verify_qexp_congruence(LV, eps, 2, 3)
    assert report["verdict"]
    assert report["routes_agree"]
    for v in report["valuations"].values():
        assert v >= 1


def test_shared_table_matches_a_fresh_build_and_guards_its_bound():
    table = NuTable(LV, 3 * 4)
    assert verify_qexp_congruence(LV, ONE_L, 4, 4, table=table) == (
        verify_qexp_congruence(LV, ONE_L, 4, 4)
    )
    with pytest.raises(ValueError, match="does not cover"):
        verify_qexp_congruence(LV, ONE_L, 2, 5, table=table)
    other = scenario_level(3, 7, (3, 7), 3)
    with pytest.raises(ValueError, match="does not cover"):
        eisenstein_l(other, LocallyConstantFn.constant_fn(other, L_SIDE, 1), 2, 6, table=table)


def test_relaxed_level_reads_s_off_its_modulus():
    """A zeta level at 63 with the cubic field has S = {3, 7}, so its table
    never meets the prime above 7, and it reports what the scenario level
    at the same modulus reports."""
    level = zeta_level(63, p=3, conductor=7)
    table = NuTable(level, 3 * 4)
    one = LocallyConstantFn.constant_fn(level, L_SIDE, 1)
    report = verify_qexp_congruence(level, one, 2, 4, table=table)
    assert report["verdict"]
    assert report == verify_qexp_congruence(LV, ONE_L, 2, 4)


def test_table_takes_two_char_polys_per_nu(tmp_path, monkeypatch):
    """Each ν is asked for its characteristic polynomial twice: once to
    decide total positivity in the scan and once by factor_principal, which
    also gives the table |N(ν)|.  The two requests share one computation,
    kept on the element; comparing a cold or a warm cache directory with the
    scan (the qexp check of a run) asks for none."""
    config = ScenarioConfig(p=3, conductor=7, s_primes=(3, 7), a=2, k_values=(2,), qexp_bound=6)
    assert config.level() == LV
    nus = sum(map(len, NuTable(LV, config.qexp_trace_bound).by_trace.values()))
    char_poly = AlgebraicInt.char_poly
    newton = numberfield._newton_char_poly
    calls = []
    computed = []

    def counting(nu):
        calls.append(nu.coords)
        return char_poly(nu)

    def computing(power_sums, degree):
        computed.append(power_sums)
        return newton(power_sums, degree)

    monkeypatch.setattr(AlgebraicInt, "char_poly", counting)
    monkeypatch.setattr(numberfield, "_newton_char_poly", computing)
    for cache in ("cold", "warm"):
        calls.clear()
        computed.clear()
        run_scenario(config, cache_dir=tmp_path, checks=("qexp",))
        assert len(calls) == 2 * nus, cache
        assert len(computed) == nus, cache


def _fraction_weigh(terms, support, k):
    return sum((support[cls] * norm ** (k - 1) for norm, cls in terms if cls in support), Fraction(0))


def test_integer_weighing_matches_a_fraction_reference():
    """ε_L with values 1/2, 5/4, 2/5 and 0 (3-integral, not integral): the
    integer weighing over the common denominator 20 gives the Fraction sums."""
    values = [Fraction(1, 2), Fraction(5, 4), Fraction(2, 5), Fraction(0)]
    halves = [x for x in LV.classes(L_SIDE) if x < 63 - x]
    table = {}
    for i, x in enumerate(halves):
        table[x] = table[63 - x] = values[i % len(values)]
    eps = LocallyConstantFn.from_table(LV, L_SIDE, table)
    assert eps.even and eps.p_integral
    values = {x: Fraction(c, eps.den) for x, c in eps.nums.items()}
    assert {v.denominator for v in values.values()} == {2, 4, 5}
    nu_table = NuTable(LV, 3 * 6)
    for k in (2, 4):
        _, coefficients = eisenstein_l(LV, eps, k, 3 * 6, table=nu_table)
        assert len(coefficients) == sum(map(len, nu_table.by_trace.values()))
        assert any(c.denominator > 1 for c in coefficients.values())
        for coords, value in coefficients.items():
            assert value == _fraction_weigh(nu_table.divisors[coords], values, k)
        report = verify_qexp_congruence(LV, eps, k, 6, table=nu_table)
        assert report["routes_agree"] and report["verdict"]
        for mu, book in report["bookkeeping"].items():
            assert book["moved_sum"] == 3 * _fraction_weigh(nu_table.orbits[mu].moved, values, k)


def test_direct_route_reads_the_enumerated_pool(monkeypatch):
    """Dropping one pool ideal must break route agreement: the direct route
    never falls back on the divisor lists generated from the factorization."""
    enumerate_ideals = qexpansion.enumerate_ideals

    def pool_without_one(*args, **kwargs):
        pool = enumerate_ideals(*args, **kwargs)
        assert pool[1].norm() == 8  # (2) is inert: it divides ν = 2, of trace 6
        return pool[:1] + pool[2:]

    monkeypatch.setattr(qexpansion, "enumerate_ideals", pool_without_one)
    report = verify_qexp_congruence(LV, ONE_L, 2, 4)
    assert not report["routes_agree"]
    assert not report["verdict"]


def test_divisor_route_reads_the_table_divisors():
    """Dropping one divisor term of ν = 2 from the table must break route
    agreement: E(μ) is assembled from the divisor lists, the direct route
    from the pool."""
    table = NuTable(LV, 3 * 4)
    two = LV.field.from_rational(2).coords
    table.divisors[two] = table.divisors[two][:-1]
    report = verify_qexp_congruence(LV, ONE_L, 2, 4, table=table)
    assert not report["routes_agree"]
    assert not report["verdict"]


def test_fermat_defect_check_raises_without_assert(monkeypatch):
    """The per-pair Fermat check is a verdict-path check: it must raise an
    ArithmeticError (so it also runs under ``python -O``), not an assert."""
    monkeypatch.setattr(qexpansion, "p_valuation", lambda value, p: 0)
    with pytest.raises(ArithmeticError, match="Fermat defect"):
        verify_qexp_congruence(LV, ONE_L, 2, 3)
