"""The report contract: `pmcong run --json-out` writes the same report, minus
`timings` and `metrics`, for a fixed set of scenarios.

Each report is reduced to the SHA-256 of its canonical JSON (keys sorted, no
spaces).  A refactor of the exact arithmetic must leave every digest as it
is; a change that means to alter a report must say so and re-pin it here.
"""

import hashlib
import json

import pytest

from pmcong.cli import main

# the extension-side classes mod 63 of the desk scenario at a = 2
L_CLASSES_63 = (1, 8, 13, 20, 22, 29, 34, 41, 43, 50, 55, 62)


def _ini(a, checks="crosscheck, transfer, delta, qexp, sigma", extra=""):
    return (
        "[scenario]\n"
        "p = 3\n"
        "conductor = 7\n"
        "s_primes = 3, 7\n"
        f"a = {a}\n"
        "k_values = 2, 4\n"
        "frobenius = 2, 5\n"
        "qexp_bound = 12\n"
        "ideal_bound = 300\n"
        f"checks = {checks}\n"
        "scaled = false\n" + extra
    )


def _eps_table(values):
    """`eps_basis = table` with one function: `values` where given, 1 elsewhere."""
    entries = ", ".join(f"{c}:{values.get(c, 1)}" for c in L_CLASSES_63)
    return f"eps_basis = table\neps_table = {entries}\n"


# ε is 1/2 on the orbit {13, 50} and 1 elsewhere: neither class is a cube
# mod 63, so ε_L∘ver has denominator 1 while ε_L has 2
HALF_ON_ONE_ORBIT = {13: "1/2", 50: "1/2"}
# a different denominator on every {x, −x} orbit, each prime to p
ONE_DENOMINATOR_PER_ORBIT = {
    1: "1/2", 62: "1/2", 8: "3/4", 55: "3/4", 13: "2/5", 50: "2/5",
    20: "1/7", 43: "1/7", 22: "5/8", 41: "5/8", 29: "7/11", 34: "7/11",
}

SCENARIOS = {
    "desk-a2": (_ini(2), "774225eca8390eb53666a7833d99927b66164c2c01c91a4fd5fc2e718d3d19f6"),
    "desk-a3": (_ini(3), "6f157fcc2e31f23248b8181df8da01cc967d92bf2e1c73d543628da651b28117"),
    "routes-a3": (
        _ini(3, checks="crosscheck, transfer, delta"),
        "efa7ce341c163a531426352521f3b448b482687d0c3c5c7829711739a3f16bf6",
    ),
    "table-half": (
        _ini(2, extra=_eps_table(HALF_ON_ONE_ORBIT)),
        "25e5c8e728119bc0c9f2694710f0c3e50ab38a2d62891da988824a537ced38ce",
    ),
    "table-mixed": (
        _ini(2, extra=_eps_table(ONE_DENOMINATOR_PER_ORBIT)),
        "f76725436138fe85420d2f1d413c02637ecca065659e6136201a52da025b0782",
    ),
}


def report_digest(path):
    """SHA-256 of the report without `timings` and `metrics`, keys sorted."""
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timings", None)
    report.pop("metrics", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_is_pinned(name, tmp_path, capsys, fresh_caches):
    text, expected = SCENARIOS[name]
    ini = tmp_path / "scenario.ini"
    ini.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["run", "--config", str(ini), "--json-out", str(out), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert report_digest(out) == expected
