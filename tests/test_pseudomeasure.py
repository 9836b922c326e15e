"""Finite-level pseudomeasure approximations and the transfer comparison.

The frozen coefficient table below pins the whole computation chain
(partial zeta → Δ-smoothing → residue assembly) at the default level; the
hand-derivation test rebuilds two coefficients from raw Bernoulli values
without touching the zeta module, so the table is anchored independently.
"""

from fractions import Fraction

import pytest

from pmcong.levels import (
    L_SIDE,
    Q_SIDE,
    FrobeniusChoice,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
)
from pmcong.pseudomeasure import (
    FlagViolation,
    IncompatibleLevels,
    LevelTooShallow,
    lambda_approx,
    pairing,
    project_level,
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


def test_reduce_fraction_exhaustive():
    from pmcong.pseudomeasure import reduce_fraction

    for num in range(-20, 21):
        for den in range(1, 15):
            if den % 3 == 0 and num % 3 != 0:
                value = Fraction(num, den)
                if value.denominator % 3 == 0:
                    with pytest.raises(ArithmeticError):
                        reduce_fraction(value, 27, 3)
                continue
            value = Fraction(num, den)
            if value.denominator % 3 == 0:
                continue
            r = reduce_fraction(value, 27, 3)
            assert 0 <= r < 27
            assert (r * value.denominator - value.numerator) % 27 == 0


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
    pm = lambda_approx(LV63, Q_SIDE, FrobeniusChoice(LV63, 2), 2)
    got = {x: pm.coefficient(x) for x in LV63.classes(Q_SIDE)}
    assert got == LAMBDA_63_G2


def test_lambda_k_independence():
    for lv, ks in ((LV63, (1, 2, 3, 4)), (LV189, (2, 3))):
        for n in (2, 5):
            g = FrobeniusChoice(lv, n)
            h = g.transfer()
            for side, pick in ((Q_SIDE, g), (L_SIDE, h)):
                base = lambda_approx(lv, side, pick, ks[0])
                for k in ks[1:]:
                    assert lambda_approx(lv, side, pick, k).coeffs == base.coeffs, (
                        lv.modulus,
                        side,
                        n,
                        k,
                    )


def test_lambda_rejects_bad_inputs():
    from pmcong.levels import zeta_level

    bare = zeta_level(63, (3, 7))
    with pytest.raises(ValueError):
        lambda_approx(bare, Q_SIDE, FrobeniusChoice(bare, 2), 2)
    with pytest.raises(ValueError):
        lambda_approx(LV63, Q_SIDE, FrobeniusChoice(LV63, 2), 0)


def test_pairing_picks_out_coefficients():
    pm = lambda_approx(LV63, Q_SIDE, FrobeniusChoice(LV63, 2), 2)
    for x in LV63.classes(Q_SIDE):
        eps = LocallyConstantFn.delta_fn(LV63, Q_SIDE, x)
        assert pairing(eps, pm) == pm.coefficient(x)
    half = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 2))
    expected = sum(5 * pm.coefficient(x) for x in LV63.classes(Q_SIDE)) % 9
    assert pairing(half, pm) == expected


def test_pairing_flag_and_domain_checks():
    pm = lambda_approx(LV63, Q_SIDE, FrobeniusChoice(LV63, 2), 2)
    bad = LocallyConstantFn.constant_fn(LV63, Q_SIDE, Fraction(1, 3))
    with pytest.raises(FlagViolation):
        pairing(bad, pm)
    wrong_side = LocallyConstantFn.constant_fn(LV63, L_SIDE, 1)
    with pytest.raises(ValueError):
        pairing(wrong_side, pm)


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 5])
def test_transfer_difference_matches_brute_force_pushforward(a, n):
    # ver_* by its definition: the class x of the full group lands on x^p mod f
    level = scenario_level(3, 7, (3, 7), a)
    g = FrobeniusChoice(level, n)
    lam_q = lambda_approx(level, Q_SIDE, g, 2)
    lam_l = lambda_approx(level, L_SIDE, g.transfer(), 2)
    f, target = level.modulus, 3 ** (a - 1)
    pushed = dict.fromkeys(level.h_classes, 0)
    for x in level.classes(Q_SIDE):
        pushed[pow(x, 3, f)] += lam_q.coefficient(x)
    expected = {
        y: (lam_l.coefficient(y) - pushed[y]) % target for y in level.h_classes
    }
    report = verify_transfer_congruence(level, g, 2)
    assert report["difference"] == expected


def test_transfer_needs_depth():
    shallow = scenario_level(3, 7, (3, 7), 1)
    with pytest.raises(LevelTooShallow):
        verify_transfer_congruence(shallow, FrobeniusChoice(shallow, 2))


def test_projection_tower_collapses_lambda():
    # summing the 189-level coefficients along fibers lands on the 63-level
    # table mod 9 — the distribution property survives the full assembly
    for n in (2, 5):
        for side in (Q_SIDE, L_SIDE):
            g = FrobeniusChoice(LV189, n)
            pick = g if side == Q_SIDE else g.transfer()
            fine = lambda_approx(LV189, side, pick, 2)
            coarse_pick = FrobeniusChoice(LV63, n)
            coarse_pick = coarse_pick if side == Q_SIDE else coarse_pick.transfer()
            coarse = lambda_approx(LV63, side, coarse_pick, 2)
            projected = project_level(LV189, side, fine.coeffs, LV63)
            assert projected == coarse.coeffs


def test_projection_validates_towers():
    with pytest.raises(IncompatibleLevels):
        project_level(LV63, Q_SIDE, {1: 1}, LV189)
    other = scenario_level(3, 13, (3, 13), 2)
    with pytest.raises(IncompatibleLevels):
        project_level(LV189, Q_SIDE, lambda_approx(
            LV189, Q_SIDE, FrobeniusChoice(LV189, 2), 2
        ).coeffs, other)


def test_transfer_congruence_at_63_is_exact_equality():
    # a = 2 compares inside (Z/3)[H], where the trace ideal collapses to 0:
    # the congruence is forced to be an equality and the verdict must come
    # with an all-zero difference
    for n in (2, 5):
        report = verify_transfer_congruence(LV63, FrobeniusChoice(LV63, n), 2)
        assert report["verdict"] is True
        assert report["comparison_modulus"] == 3
        assert set(report["difference"].values()) == {0}
        assert report["failing_classes"] == []


def test_transfer_congruence_at_189_nontrivial():
    report = verify_transfer_congruence(LV189, FrobeniusChoice(LV189, 2), 2)
    assert report["verdict"] is True
    assert report["comparison_modulus"] == 9
    assert report["h_class"] == 8
    values = set(report["difference"].values())
    assert values <= {0, 3, 6}
    assert values != {0}, "the difference is genuinely nonzero at a = 3"
    for y, c in report["difference"].items():
        assert (3 * report["certificate"][y]) % 9 == c


def test_transfer_report_is_k_stable():
    a = verify_transfer_congruence(LV189, FrobeniusChoice(LV189, 2), 2)
    b = verify_transfer_congruence(LV189, FrobeniusChoice(LV189, 2), 4)
    assert a["difference"] == b["difference"]


def test_delta_congruence_on_every_even_indicator():
    for lv in (LV63,):
        for n in (2, 5):
            g = FrobeniusChoice(lv, n)
            for eps in even_orbit_indicators(lv, L_SIDE):
                for k in (1, 2, 3):
                    assert verify_delta_congruence(lv, g, eps, k) >= 1, (n, k)


def test_delta_congruence_flag_checks():
    g = FrobeniusChoice(LV63, 2)
    odd = LocallyConstantFn.delta_fn(LV63, L_SIDE, 8)
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, odd, 2)
    wrong_side = LocallyConstantFn.constant_fn(LV63, Q_SIDE, 1)
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, wrong_side, 2)
    deep = LocallyConstantFn.constant_fn(LV63, L_SIDE, Fraction(1, 3))
    with pytest.raises(FlagViolation):
        verify_delta_congruence(LV63, g, deep, 2)
