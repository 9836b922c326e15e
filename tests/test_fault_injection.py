"""Fault injection: a fault on one side of a dual route must turn its verdict false.

Each row patches one side of one dual route for that test only, runs the
check at the desk scenario (a=2) or the configuration-free σ-suite, and names
the report field the fault must turn false; the same field reads true without
the fault.  The verb that runs the check must then exit 1.  The zeta tables are `lru_cache`d, so they are
cleared before a fault goes in and after it comes out again.
"""

import pytest

from pmcong import harness, qexpansion, sigma, zeta
from pmcong.cli import main
from pmcong.harness import ScenarioConfig, run_scenario


def _q_table_off_by_one(monkeypatch):
    """The Hurwitz route's table with 1 added to its first class."""
    table = zeta._q_table

    def faulty(level, k):
        out = dict(table(level, k))
        first = min(out)
        out[first] += 1
        return out

    monkeypatch.setattr(zeta, "_q_table", faulty)


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


def _ideal_counts(report):
    return report["details"]["ideal_counts_match_euler_product"]["verdict"]


def _routes_agree(report):
    return all(run["routes_agree"] for run in report["runs"])


def _order3_membership(report):
    return report["checks"]["membership_exhaustive_order3_action"]["verdict"]


#: (check, fault, the field that must turn false, the verb that must exit 1)
ROWS = [
    pytest.param("crosscheck", _q_table_off_by_one, _dual_route, ["crosscheck"], id="q-table"),
    pytest.param("crosscheck", _one_ideal_dropped, _ideal_counts, ["crosscheck"], id="ideal-count"),
    pytest.param("qexp", _unit_ideal_dropped_from_pool, _routes_agree, ["verify", "qexp"], id="qexp-pool"),
    pytest.param("sigma", _f21_members_refused, _order3_membership, ["sigma"], id="smith-closure"),
]


def _clear_zeta_caches():
    for value in vars(zeta).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def faults(monkeypatch):
    _clear_zeta_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_zeta_caches()


def _check_report(check):
    return run_scenario(ScenarioConfig.default(), checks=(check,))["checks"][check]


@pytest.mark.parametrize("check, fault, field, argv", ROWS)
def test_fault_turns_the_route_false(faults, capsys, check, fault, field, argv):
    clean = _check_report(check)
    assert clean["verdict"] and field(clean)
    fault(faults)
    report = _check_report(check)
    assert not field(report)
    assert not report["verdict"]
    assert main(argv) == 1
    assert "overall: FAIL" in capsys.readouterr().out
