"""Fault injection: a fault on one side of a dual route must turn its verdict false.

Each row patches one side of one dual route for that test only, runs the
check at the desk scenario (a=2) or the configuration-free σ-suite, and names
the report field the fault must turn false; the same field reads true without
the fault.  The verb that runs the check must then exit 1.  The zeta tables, Δ
and λ are `lru_cache`d, so every package cache is cleared (`fresh_caches`)
before a fault goes in and after it comes out again.
"""

import json

import pytest

from pmcong import harness, qexpansion, sigma, zeta
from pmcong.cli import main
from pmcong.harness import ScenarioConfig, run_scenario


def _q_table_off_by_one(monkeypatch):
    """The Hurwitz route's table with 1 added to its first class."""
    table = zeta._q_table

    def faulty(level, k):
        nums, den = table(level, k)
        out = dict(nums)
        out[min(out)] += den
        return out, den

    monkeypatch.setattr(zeta, "_q_table", faulty)


def _extension_zeta_not_p_integral(monkeypatch):
    """The extension-side table with 1/p^(a+1) added to its first class, so
    Δ_h at that class is not p-integral for any pick h outside the class 1."""
    table = zeta._l_table

    def faulty(level, k):
        nums, den = table(level, k)
        scale = level.p ** (level.a + 1)
        out = {x: c * scale for x, c in nums.items()}
        out[min(out)] += den
        return out, den * scale

    monkeypatch.setattr(zeta, "_l_table", faulty)


def _one_ideal_dropped(monkeypatch):
    """The ideal-count crosscheck's enumeration without its last ideal."""
    enumerate_ideals = harness.enumerate_ideals
    monkeypatch.setattr(harness, "enumerate_ideals", lambda *args: enumerate_ideals(*args)[:-1])


def _unit_ideal_dropped_from_pool(monkeypatch):
    """The q-expansion check's direct route without the unit ideal in its pool."""
    enumerate_ideals = qexpansion.enumerate_ideals

    def faulty(*args):
        pool = enumerate_ideals(*args)
        assert pool[0].norm() == 1
        return pool[1:]

    monkeypatch.setattr(qexpansion, "enumerate_ideals", faulty)


def _eisenstein_q_off_by_one(monkeypatch):
    """The base-side Eisenstein series G_{pk, ε_L∘ver} with 1 added to c(2).
    Route two keeps its own base-divisor terms, so the routes disagree."""
    eisenstein_q = qexpansion.eisenstein_q

    def faulty(*args):
        constant, coeffs = eisenstein_q(*args)
        return constant, {**coeffs, 2: coeffs[2] + 1}

    monkeypatch.setattr(qexpansion, "eisenstein_q", faulty)


def _f21_members_refused(monkeypatch):
    """Smith-form membership in the f21 ring, (Z/9)[C_7] under x -> 2x, that
    refuses every nonzero member.  A scaled invariant factor would not do: its
    certificate fails re-expansion and raises, an engine fault and not a false
    verdict."""
    solve = sigma.TraceIdeal._solve

    def faulty(self, vector):
        verdict, cert = solve(self, vector)
        if verdict and any(vector) and len(self.setup.group) == 21:
            return False, None
        return verdict, cert

    monkeypatch.setattr(sigma.TraceIdeal, "_solve", faulty)


def _dual_route(report):
    return report["details"]["partial_zeta_dual_route"]["verdict"]


def _delta_integral(report):
    return report["details"]["delta_p_integral"]["verdict"]


def _ideal_counts(report):
    return report["details"]["ideal_counts_match_euler_product"]["verdict"]


def _routes_agree(report):
    return all(run["routes_agree"] for run in report["runs"])


def _order3_membership(report):
    return report["checks"]["membership_exhaustive_order3_action"]["verdict"]


#: (check, fault, the field that must turn false, the verb that must exit 1)
ROWS = [
    pytest.param("crosscheck", _q_table_off_by_one, _dual_route, ["crosscheck"], id="q-table"),
    pytest.param(
        "crosscheck", _extension_zeta_not_p_integral, _delta_integral, ["crosscheck"], id="extension-delta"
    ),
    pytest.param("crosscheck", _one_ideal_dropped, _ideal_counts, ["crosscheck"], id="ideal-count"),
    pytest.param("qexp", _unit_ideal_dropped_from_pool, _routes_agree, ["verify", "qexp"], id="qexp-pool"),
    pytest.param("qexp", _eisenstein_q_off_by_one, _routes_agree, ["verify", "qexp"], id="eisenstein-q"),
    pytest.param("sigma", _f21_members_refused, _order3_membership, ["sigma"], id="smith-closure"),
]


@pytest.fixture
def faults(monkeypatch, fresh_caches):
    """The monkeypatch a fault goes in through; it is undone before
    `fresh_caches` empties the caches the fault fed."""
    yield monkeypatch
    monkeypatch.undo()


def _check_report(check):
    return run_scenario(ScenarioConfig.default(), checks=(check,))["checks"][check]


@pytest.mark.parametrize("check, fault, field, argv", ROWS)
def test_fault_turns_the_route_false(faults, fresh_caches, capsys, check, fault, field, argv):
    clean = _check_report(check)
    assert clean["verdict"] and field(clean)
    fault(faults)
    fresh_caches()  # the clean run cached values the fault changes
    report = _check_report(check)
    assert not field(report)
    assert not report["verdict"]
    assert main(argv) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_a_delta_that_is_not_p_integral_is_reported(faults, tmp_path, capsys):
    """λ is a residue of Δ, so without p-integrality it has no value: the
    crosscheck reports both verdicts false and writes its report instead of
    raising."""
    _extension_zeta_not_p_integral(faults)
    out = tmp_path / "report.json"
    assert main(["crosscheck", "--json-out", str(out)]) == 1
    details = json.loads(out.read_text())["checks"]["crosscheck"]["details"]
    assert details["delta_p_integral"]["verdict"] is False
    assert details["delta_p_integral"]["min_valuation"] < 0
    assert details["lambda_k_independent"]["verdict"] is False
    assert details["partial_zeta_dual_route"]["verdict"] is True
    assert "overall: FAIL" in capsys.readouterr().out
