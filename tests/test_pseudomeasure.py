"""Finite-level pseudomeasure approximations and the transfer comparison.

The frozen coefficient table below pins the whole computation chain
(partial zeta → Δ-smoothing → residue assembly) at the default level; the
hand-derivation test rebuilds two coefficients from raw Bernoulli values
without touching the zeta module, so the table is anchored independently.
"""

from fractions import Fraction

import pytest

from pmcong import pseudomeasure, zeta
from pmcong.harness import ScenarioConfig, run_scenario
from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
)
from pmcong.pseudomeasure import (
    FlagViolation,
    LevelTooShallow,
    lambda_approx,
    verify_delta_congruence,
    verify_transfer_congruence,
)


LV63 = scenario_level(3, 7, (3, 7), 2)
LV189 = scenario_level(3, 7, (3, 7), 3)

# lambda coefficients at the default level, extension pick 2, frozen once the
# hand derivation below confirmed the assembly convention
LAMBDA_63_G2 = {
    1: 5, 2: 2, 4: 1, 5: 1, 8: 5, 10: 4, 11: 7, 13: 8, 16: 7, 17: 4,
    19: 5, 20: 2, 22: 1, 23: 1, 25: 2, 26: 5, 29: 7, 31: 8, 32: 8, 34: 7,
    37: 5, 38: 2, 40: 1, 41: 1, 43: 2, 44: 5, 46: 4, 47: 7, 50: 8, 52: 7,
    53: 4, 55: 5, 58: 1, 59: 1, 61: 2, 62: 5,
}


def hand_coefficient(x, g_n, k):
    """Independent assembly at the 63-level from raw Bernoulli polynomials."""
    f = 63

    def zeta0(a, kk):
        # -f^(k-1) B_k(a/f) / k with B_1, B_2 written out longhand
        t = Fraction(a if a else f, f)
        if kk == 1:
            b = t - Fraction(1, 2)
        elif kk == 2:
            b = t * t - t + Fraction(1, 6)
        else:
            raise AssertionError
        return -(Fraction(f) ** (kk - 1)) * b / kk

    g_inv = pow(g_n, -1, f)
    delta = zeta0(x, k) - g_n**k * zeta0((g_inv * x) % f, k)
    n_tilde = x % 9 if x % 9 else 9
    residue = (delta.numerator * pow(delta.denominator, -1, 9)) % 9
    return (residue * pow(pow(n_tilde, -1, 9), k, 9)) % 9


def test_lambda_anchor_by_hand_derivation():
    for x in (1, 2, 5, 62):
        for k in (1, 2):
            assert hand_coefficient(x, 2, k) == LAMBDA_63_G2[x], (x, k)


def test_lambda_frozen_table():
    assert lambda_approx(LV63, Q_SIDE, 2, 2) == LAMBDA_63_G2


def test_lambda_k_independence():
    for lv, ks in ((LV63, (1, 2, 3, 4)), (LV189, (2, 3))):
        for n in (2, 5):
            for side, pick in ((Q_SIDE, n), (L_SIDE, n**3)):
                base = lambda_approx(lv, side, pick, ks[0])
                for k in ks[1:]:
                    assert lambda_approx(lv, side, pick, k) == base, (
                        lv.modulus,
                        side,
                        n,
                        k,
                    )


def test_lambda_rejects_bad_inputs():
    from pmcong.levels import zeta_level

    bare = zeta_level(63)
    with pytest.raises(ValueError):
        lambda_approx(bare, Q_SIDE, 2, 2)
    with pytest.raises(ValueError):
        lambda_approx(LV63, Q_SIDE, 2, 0)


def _delta_of_an_indicator(level, side, g, k):
    return zeta.delta_of(level, side, g, LocallyConstantFn.delta_fn(level, side, 1), k)


@pytest.mark.parametrize(
    "build", [lambda_approx, zeta.delta_numerators, zeta.delta_table, _delta_of_an_indicator]
)
def test_extension_side_pick_outside_h_is_rejected(build):
    """Δ and λ on H need h·y ∈ H; class 2 lies outside H at modulus 63."""
    assert not LV63.in_h(2 % 63)
    with pytest.raises(ValueError, match="subgroup"):
        build(LV63, L_SIDE, 2, 2)


def _transfer_report(level, side, n, k):
    return verify_transfer_congruence(level, n, k)


def _delta_congruence(level, side, n, k):
    return verify_delta_congruence(level, n, LocallyConstantFn.constant_fn(level, L_SIDE, 1), k)


SIDED_PICK_READERS = [lambda_approx, zeta.delta_numerators, zeta.delta_table, _delta_of_an_indicator]
BAD_PICKS = [(Q_SIDE, 0), (Q_SIDE, 21), (L_SIDE, 0), (L_SIDE, 21), (L_SIDE, 2)]


@pytest.mark.parametrize(
    "read, side, n",
    [(read, side, n) for read in SIDED_PICK_READERS for side, n in BAD_PICKS]
    + [(read, Q_SIDE, n) for read in (_transfer_report, _delta_congruence) for n in (0, 21)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_every_reader_of_a_pick_refuses_a_bad_pick(read, side, n):
    """A pick is a plain int, validated where Δ reads it: n ≥ 1, a unit mod
    f (21 shares the factors 3 and 7 with 63), and inside H on the extension
    side (2 mod 63 is not)."""
    with pytest.raises(ValueError, match="positive integer|not a unit|subgroup"):
        read(LV63, side, n, 2)


def test_crosscheck_and_transfer_build_each_delta_and_lambda_once(fresh_caches):
    """The desk scenario's 2 picks × 2 sides × 2 weights give 8 Δ tables and
    8 λ tables, read by the crosscheck and again by the transfer check."""
    run_scenario(ScenarioConfig.default(), checks=("crosscheck", "transfer"))
    assert zeta.delta_numerators.cache_info().misses == 8
    assert pseudomeasure.lambda_approx.cache_info().misses == 8


def test_picks_compare_by_norm_not_class(fresh_caches):
    """n^k enters Δ, so picks of one class with different norms differ and
    are two cache entries."""
    assert 2 % 63 == 65 % 63
    assert zeta.delta_table(LV63, Q_SIDE, 2, 2) != zeta.delta_table(LV63, Q_SIDE, 65, 2)
    assert zeta.delta_table(LV63, Q_SIDE, 2, 2) == zeta.delta_table(LV63, Q_SIDE, 2, 2)
    info = zeta.delta_numerators.cache_info()
    assert (info.misses, info.hits) == (2, 2)


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 5])
def test_transfer_difference_matches_brute_force_pushforward(a, n):
    # ver_* by its definition: the class x of the full group lands on x^p mod f
    level = scenario_level(3, 7, (3, 7), a)
    lam_q = lambda_approx(level, Q_SIDE, n, 2)
    lam_l = lambda_approx(level, L_SIDE, n**3, 2)
    f, target = level.modulus, 3 ** (a - 1)
    pushed = dict.fromkeys(level.h_classes, 0)
    for x in level.classes(Q_SIDE):
        pushed[pow(x, 3, f)] += lam_q[x]
    expected = {y: (lam_l[y] - pushed[y]) % target for y in level.h_classes}
    report = verify_transfer_congruence(level, n, 2)
    assert report["difference"] == expected


def test_transfer_needs_depth():
    shallow = scenario_level(3, 7, (3, 7), 1)
    with pytest.raises(LevelTooShallow):
        verify_transfer_congruence(shallow, 2)


def test_projection_tower_collapses_lambda():
    # summing the 189-level coefficients along fibers lands on the 63-level
    # table mod 9 — the distribution property survives the full assembly
    for n in (2, 5):
        for side in (Q_SIDE, L_SIDE):
            pick = n if side == Q_SIDE else n**3
            fine = lambda_approx(LV189, side, pick, 2)
            coarse = lambda_approx(LV63, side, pick, 2)
            projected = dict.fromkeys(LV63.classes(side), 0)
            for x, c in fine.items():
                projected[x % 63] = (projected[x % 63] + c) % 9
            assert projected == coarse


def test_transfer_congruence_at_63_is_exact_equality():
    # a = 2 compares inside (Z/3)[H], where the trace ideal collapses to 0:
    # the congruence is forced to be an equality and the verdict must come
    # with an all-zero difference
    for n in (2, 5):
        report = verify_transfer_congruence(LV63, n, 2)
        assert report["verdict"] is True
        assert report["comparison_modulus"] == 3
        assert set(report["difference"].values()) == {0}
        assert report["failing_classes"] == []


def test_transfer_congruence_at_189_nontrivial():
    report = verify_transfer_congruence(LV189, 2, 2)
    assert report["verdict"] is True
    assert report["comparison_modulus"] == 9
    assert report["h_class"] == 8
    values = set(report["difference"].values())
    assert values <= {0, 3, 6}
    assert values != {0}, "the difference is genuinely nonzero at a = 3"
    for y, c in report["difference"].items():
        assert (3 * report["certificate"][y]) % 9 == c


def test_transfer_report_is_k_stable():
    a = verify_transfer_congruence(LV189, 2, 2)
    b = verify_transfer_congruence(LV189, 2, 4)
    assert a["difference"] == b["difference"]


def test_delta_congruence_on_every_even_indicator():
    for lv in (LV63,):
        for g in (2, 5):
            for eps in even_orbit_indicators(lv, L_SIDE):
                for k in (1, 2, 3):
                    assert verify_delta_congruence(lv, g, eps, k) >= 1, (n, k)


def test_delta_congruence_flag_checks():
    g = 2
    odd = LocallyConstantFn.delta_fn(LV63, L_SIDE, 8)
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, odd, 2)
    wrong_side = LocallyConstantFn.constant_fn(LV63, Q_SIDE, 1)
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, wrong_side, 2)
    deep = LocallyConstantFn.constant_fn(LV63, L_SIDE, Fraction(1, 3))
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, deep, 2)
