"""Acceptance gate: the ten headline properties, each exact and tolerance-zero.

Every test prints one `criterion NN [PASS|FAIL]` line, so a `-s`/`-rP` run
gives a readable scoreboard; the assertions themselves carry the verdicts.
All expected numbers come from independent in-module oracles (divisor sums,
generalized-Bernoulli products, exhaustive enumeration) — never from the code
under test.
"""

from fractions import Fraction

from pmcong.cyclotomic import cyclo_reduce_rational
from pmcong.dirichlet import characters_of, conductor_primitive, l_value_neg, series_coefficients
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    FrobeniusChoice,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
    zeta_level,
)
from pmcong.numberfield import enumerate_ideals, field_spec
from pmcong.pseudomeasure import (
    lambda_approx,
    verify_delta_congruence,
    verify_transfer_congruence,
)
from pmcong.qexpansion import eisenstein_q, verify_qexp_congruence
from pmcong.sigma import run_sigma_suite
from pmcong.zeta import (
    delta_sum_integrality,
    delta_table,
    partial_zeta,
    partial_zeta_q_characters,
)

LV63 = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)


def _criterion(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_01_transfer_congruence_deep_and_shallow():
    """The pulled-back base pseudomeasure matches the extension one mod 3."""
    deep = verify_transfer_congruence(LV189, FrobeniusChoice(LV189, 2), 2)
    ok = deep["verdict"]
    ok = ok and len(deep["difference"]) == 36
    ok = ok and all(v % 3 == 0 for v in deep["difference"].values())
    ok = ok and deep["certificate"] is not None
    shallow = verify_transfer_congruence(LV63, FrobeniusChoice(LV63, 2), 2)
    ok = ok and shallow["verdict"]
    # at depth two the comparison ring is Z/3, where divisibility by 3 is
    # coefficientwise equality on the nose
    ok = ok and all(v == 0 for v in shallow["difference"].values())
    _criterion(1, "transfer congruence at depth three, equality at depth two", ok)


def test_02_pseudomeasure_weight_independence():
    ok = True
    for side, n in ((Q_SIDE, 2), (L_SIDE, 2)):
        g = FrobeniusChoice(LV63, n)
        pick = g if side == Q_SIDE else g.transfer()
        reference = lambda_approx(LV63, side, pick, 2)
        ok = ok and reference.modulus == 9
        ok = ok and lambda_approx(LV63, side, pick, 4).coeffs == reference.coeffs
    _criterion(2, "weight-2 and weight-4 assemblies agree exactly mod 9", ok)


def test_03_delta_values_are_integral():
    ok = True
    for n in (2, 5):
        g = FrobeniusChoice(LV63, n)
        for k in (2, 4):
            table = delta_table(LV63, Q_SIDE, g, k)
            ok = ok and len(table) == 36
            for value in table.values():
                ok = ok and value.denominator % 3 != 0
        # the twisted-sum route: one indicator per weight, summed over k
        for x in LV63.classes(Q_SIDE):
            eps_by_k = {
                k: LocallyConstantFn.delta_fn(LV63, Q_SIDE, x) for k in (1, 2, 3, 4)
            }
            ok = ok and delta_sum_integrality(LV63, Q_SIDE, g, eps_by_k) >= 0
    _criterion(3, "all shifted differences are 3-integral, including twisted sums", ok)


def test_04_difference_of_sides_is_divisible():
    indicators = list(even_orbit_indicators(LV63, L_SIDE))
    ok = len(indicators) == 6
    for n in (2, 5):
        g = FrobeniusChoice(LV63, n)
        for eps in indicators:
            ok = ok and verify_delta_congruence(LV63, g, eps, 2) >= 1
    _criterion(4, "side difference divisible by 3 for every even indicator", ok)


def test_05_qexp_coefficients_divisible():
    functions = [LocallyConstantFn.constant_fn(LV63, L_SIDE, 1)]
    functions += [
        eps
        for eps in even_orbit_indicators(LV63, L_SIDE)
        if len(eps.support) < len(LV63.h_classes)
    ][:2]
    ok = len(functions) == 3
    for eps in functions:
        report = verify_qexp_congruence(LV63, eps, 2, 12)
        ok = ok and report["verdict"] and report["routes_agree"]
        ok = ok and set(report["valuations"]) == set(range(1, 13))
        for v in report["valuations"].values():
            ok = ok and v >= 1
    _criterion(5, "difference expansion divisible by 3 up to index 12, dual routes equal", ok)


def test_06_classical_eisenstein_oracle():
    level = zeta_level(1, ())
    eps = LocallyConstantFn.constant_fn(level, Q_SIDE, 1)
    expansion = eisenstein_q(level, eps, 4, 50)
    ok = expansion.constant == Fraction(1, 240)
    for mu in range(1, 51):
        sigma3 = sum(d**3 for d in range(1, mu + 1) if mu % d == 0)
        ok = ok and expansion.coefficient(mu) == sigma3
    _criterion(6, "weight-4 series has constant 1/240 and cube-divisor coefficients", ok)


def test_07_extension_zeta_oracle():
    level = zeta_level(7, (7,), p=3, conductor=7)
    values = [partial_zeta(level, L_SIDE, cls, 2) for cls in level.classes(L_SIDE)]
    total = sum(values, Fraction(0))
    chars = characters_of(7, trivial_on=(1, 6))
    ok = len(chars) == 3
    full = None
    depleted = None
    for chi in chars:
        a, b = l_value_neg(chi, 2, ()), l_value_neg(chi, 2, (7,))
        full = a if full is None else full * a
        depleted = b if depleted is None else depleted * b
    full = cyclo_reduce_rational(full)
    depleted = cyclo_reduce_rational(depleted)
    ok = ok and full == Fraction(-1, 21)
    ok = ok and depleted == Fraction(2, 7)
    ok = ok and total == depleted
    ok = ok and total == full * (1 - 7)
    _criterion(7, "class zeta values sum to the depleted field value 2/7", ok)


def test_08_partial_zeta_dual_routes():
    ok = True
    for level in (LV63, LV189):
        for k in (2, 4):
            for x in level.classes(Q_SIDE):
                hurwitz = partial_zeta(level, Q_SIDE, x, k)
                characters = partial_zeta_q_characters(level, x, k)
                ok = ok and hurwitz == characters
    _criterion(8, "congruence-sum route equals character route at both depths", ok)


def test_09_ideal_counts_match_euler_product():
    field = field_spec(3, 7)
    counts = {}
    for ideal in enumerate_ideals(field, 300, ()):
        counts[ideal.norm()] = counts.get(ideal.norm(), 0) + 1
    norm_classes = tuple(x for x in sorted(field.coset_of) if field.coset_of[x] == 0)
    prims = [conductor_primitive(chi) for chi in characters_of(7, trivial_on=norm_classes)]
    series = series_coefficients(prims, 300, ())
    ok = all(counts.get(n, 0) == series[n] for n in range(1, 301))
    _criterion(9, "ideal counts equal Euler-product coefficients to norm 300", ok)


def test_10_symbolic_suite():
    results = run_sigma_suite()
    ok = results["verdict"]
    expected = {
        "abelian_transfer_is_pth_power",
        "f21_matches_brute_force",
        "membership_exhaustive_trivial_action",
        "membership_exhaustive_order3_action",
        "catalog_homomorphism_and_transversals",
        "conjugation_identity_single_fiber",
        "conjugation_identity_two_fibers",
        "two_power_scalar",
    }
    ok = ok and expected <= set(results["checks"])
    for name in expected:
        ok = ok and results["checks"][name]["verdict"]
    _criterion(10, "group-theoretic suite green, membership matched exhaustively", ok)
