"""Scenario configuration, report assembly, caches, and the CLI front end."""

import ast
import configparser
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import pmcong.qexpansion as qexpansion
from pmcong.cache import load_records, store_records
from pmcong.cli import _build_parser, main
from pmcong.harness import (
    REPORT_SCHEMA,
    ConfigInvalid,
    ScenarioConfig,
    cache_warm,
    jsonable,
    run_scenario,
)
from pmcong.numberfield import enumerate_tot_pos_trace

REPO_ROOT = Path(__file__).resolve().parent.parent

SMALL_INI = textwrap.dedent(
    """\
    [scenario]
    p = 3
    conductor = 7
    s_primes = 3, 7
    a = 2
    k_values = 2
    frobenius = 2
    qexp_bound = 2
    ideal_bound = 40
    checks = transfer, delta
    """
)


# the extension-side classes mod 63 of the small scenario
L_CLASSES_63 = (1, 8, 13, 20, 22, 29, 34, 41, 43, 50, 55, 62)


def _eps_table_line(*functions):
    """An `eps_table` entry, one function per dict, each covering every class
    and zero off its dict."""
    return "eps_table = " + " ; ".join(
        ", ".join(f"{c}:{values.get(c, 0)}" for c in L_CLASSES_63)
        for values in functions
    )


def _small_config(**overrides):
    kwargs = dict(
        p=3,
        conductor=7,
        s_primes=(3, 7),
        a=2,
        k_values=(2,),
        frobenius=(2,),
        qexp_bound=2,
        ideal_bound=40,
        checks=("transfer", "delta"),
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def test_default_config_shape():
    config = ScenarioConfig.default()
    assert (config.p, config.conductor, config.a) == (3, 7, 2)
    assert config.s_primes == (3, 7)
    assert config.checks == ("crosscheck", "transfer", "delta", "qexp", "sigma")
    level = config.level()
    assert level.modulus == 63
    described = config.describe()
    assert described["frobenius"] == [2, 5]
    assert described["eps_basis"] == "even_orbit_indicators"


def test_bundled_file_matches_default():
    config = ScenarioConfig.from_ini(REPO_ROOT / "configs" / "default.ini")
    assert config.describe() == ScenarioConfig.default().describe()


def test_ini_table_parsing(tmp_path):
    path = tmp_path / "table.ini"
    path.write_text(
        SMALL_INI
        + "eps_basis = table\n"
        + _eps_table_line({1: "1/2", 62: "1/2", 8: -3, 55: -3}, {13: "7/5", 50: "7/5"})
        + "\n"
    )
    config = ScenarioConfig.from_ini(path)
    assert config.eps_basis == "table"
    first, second = config.eps_table
    assert set(first) == set(second) == set(L_CLASSES_63)
    assert (first[1], first[62], first[8], first[13]) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(-3),
        Fraction(0),
    )
    assert (second[13], second[50], second[1]) == (Fraction(7, 5), Fraction(7, 5), 0)


def test_partial_table_is_rejected_when_read(tmp_path, capsys):
    """A table that `run` would refuse is refused by `from_ini` and `cache-warm` too."""
    path = tmp_path / "partial.ini"
    path.write_text(SMALL_INI + "eps_basis = table\neps_table = 1:1, 62:1\n")
    with pytest.raises(ConfigInvalid, match="must cover exactly the 12"):
        ScenarioConfig.from_ini(path)
    cache = tmp_path / "cache"
    assert main(["cache-warm", "--config", str(path), "--cache-dir", str(cache)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not cache.exists()


def test_scenario_keys_have_one_home(tmp_path):
    """The INI keys, the report's config block and the constructor agree."""
    config = ScenarioConfig.default()
    described = set(config.describe()) | {"eps_table"}
    keywords = set(inspect.signature(ScenarioConfig).parameters)
    assert described == keywords
    path = tmp_path / "all.ini"
    path.write_text(
        SMALL_INI
        + "scaled = true\neps_basis = table\n"
        + _eps_table_line({1: 1, 62: 1})
        + "\n"
    )
    parser = configparser.ConfigParser()
    parser.read(path)
    assert set(parser["scenario"]) == keywords
    assert ScenarioConfig.from_ini(path).describe()["scaled"] is True
    path.write_text(path.read_text() + "extra = 1\n")
    with pytest.raises(ConfigInvalid, match=r"unknown configuration keys: \['extra'\]"):
        ScenarioConfig.from_ini(path)


def test_config_defaults_and_unknown_keywords():
    config = _small_config()
    assert (config.qexp_bound, config.scaled, config.eps_basis, config.eps_table) == (
        2,
        False,
        "even_orbit_indicators",
        None,
    )
    bare = ScenarioConfig(p=3, conductor=7, s_primes=(7, 3, 3), a=2)
    assert bare.describe() == {
        "p": 3,
        "conductor": 7,
        "s_primes": [3, 7],
        "a": 2,
        "k_values": [2, 4],
        "frobenius": [2],
        "qexp_bound": 12,
        "ideal_bound": 300,
        "checks": ["crosscheck", "transfer", "delta", "qexp", "sigma"],
        "scaled": False,
        "eps_basis": "even_orbit_indicators",
    }
    with pytest.raises(TypeError):
        _small_config(extra=1)
    with pytest.raises(TypeError):
        ScenarioConfig(p=3, conductor=7, a=2)


def _fresh_python(code: str, *args: str) -> list[str]:
    """The stdout lines of `code` run in a new interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_dataclasses_and_inspect_out():
    """Start-up: `import pmcong.cli` in a fresh interpreter loads neither module."""
    code = "import sys, pmcong.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_python(code) == ["[]"]


def test_config_and_cache_warm_leave_the_check_modules_unrun(tmp_path):
    """Accepting the desk scenario and warming its cache import neither the
    cyclotomic arithmetic of the zeta routes nor the group rings of the
    σ-suite; a run of the routes checks imports no group ring.  `pmcong.cache`
    stays the lazy loader's module until `cache_warm` runs it: neither
    accepting a scenario nor a run without a cache directory executes it."""
    prelude = (
        "import sys, types\n"
        "from pmcong.harness import ScenarioConfig, cache_warm, run_scenario\n"
        "def imported():\n"
        "    ran = type(sys.modules['pmcong.cache']) is types.ModuleType\n"
        "    print(sorted({'pmcong.cyclotomic', 'pmcong.groupring'} & set(sys.modules)), ran)\n"
        "config = ScenarioConfig.from_ini(sys.argv[1])\n"
        "imported()\n"
    )
    routes = "assert run_scenario(config, checks=('crosscheck', 'transfer', 'delta'))['verdict']\nimported()\n"
    warm = "cache_warm(config, sys.argv[2])\nimported()\n"
    args = (str(REPO_ROOT / "configs" / "default.ini"), str(tmp_path))
    lines = _fresh_python(prelude + warm + routes, *args)
    assert lines == ["[] False", "[] True", "['pmcong.cyclotomic'] True"]
    lines = _fresh_python(prelude + routes, *args)
    assert lines == ["[] False", "['pmcong.cyclotomic'] False"]


def test_readme_scenario_example_reads_as_the_default(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    config = ScenarioConfig.from_ini(path)
    assert config.describe() == ScenarioConfig.default().describe()


def test_readme_command_lines_parse():
    """Every `pmcong …` line of the README's command block is accepted by the parser."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["pmcong"]]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README line {shlex.join(argv)!r} does not parse")


def test_ini_rejections(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read"):
        ScenarioConfig.from_ini(tmp_path / "absent.ini")
    empty = tmp_path / "empty.ini"
    empty.write_text("[other]\nx = 1\n")
    with pytest.raises(ConfigInvalid, match="scenario"):
        ScenarioConfig.from_ini(empty)
    unknown = tmp_path / "unknown.ini"
    unknown.write_text(SMALL_INI + "colour = blue\n")
    with pytest.raises(ConfigInvalid, match="unknown configuration keys"):
        ScenarioConfig.from_ini(unknown)
    partial = tmp_path / "partial.ini"
    partial.write_text("[scenario]\np = 3\nconductor = 7\n")
    with pytest.raises(ConfigInvalid, match="missing"):
        ScenarioConfig.from_ini(partial)
    twice = tmp_path / "twice.ini"
    twice.write_text(SMALL_INI + "eps_basis = table\neps_table = 1:1/9, 1:1\n")
    with pytest.raises(ConfigInvalid, match="names class 1 twice"):
        ScenarioConfig.from_ini(twice)


def test_validation_branches():
    # every standing hypothesis has its own rejection
    cases = [
        (dict(p=4), "odd prime"),
        (dict(p=2, s_primes=(2, 7)), "odd prime"),
        (dict(p=5, s_primes=(3, 7)), "contain p"),
        (dict(s_primes=(3, 7, 15)), "consist of primes"),
        (dict(s_primes=(3, 11), conductor=7), "ramified"),
        (dict(s_primes=(3, 31), conductor=31), r"\[O_L : Z\[η_0\]\] = 2;"),
        (dict(a=0), "must be ≥ 1"),
        (dict(a=1), "a ≥ 2"),
        (dict(k_values=()), "positive"),
        (dict(k_values=(0, 2)), "positive"),
        (dict(k_values=(3,), checks=("qexp",)), "even k"),
        (dict(frobenius=()), "Frobenius"),
        (dict(qexp_bound=0), "bounds"),
        (dict(ideal_bound=0), "bounds"),
        (dict(checks=("transfer", "nonsense")), "unknown checks"),
        (dict(checks=()), "at least one check"),
        (dict(eps_basis="junk"), "eps_basis"),
        (dict(eps_basis="table"), "nonempty"),
        (dict(a=8), "26244 · 4374 = 114791256 slots, above the cap 16777216"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigInvalid, match=needle):
            _small_config(**overrides)
    # the a=1 restriction only binds the transfer comparison
    shallow = _small_config(a=1, checks=("delta",))
    assert shallow.a == 1
    # the transform grid fits at a=7 (8 748 · 1 458 slots), and the sigma
    # check alone reads no zeta table
    assert _small_config(a=7).a == 7
    assert _small_config(a=8, checks=("sigma",)).checks == ("sigma",)


def test_jsonable_conversions():
    value = {
        "plain": Fraction(5),
        "ratio": Fraction(3, 4),
        "negative": Fraction(-7),
        "depth": 2,
        "infinite": math.inf,
        3: (Fraction(1, 2), None, True),
    }
    converted = jsonable(value)
    assert converted == {
        "plain": "5",
        "ratio": "3/4",
        "negative": "-7",
        "depth": 2,
        "infinite": "+inf",
        "3": ["1/2", None, True],
    }
    json.dumps(converted)
    assert jsonable({"timings": {"qexp": 0.038}}) == {"timings": {"qexp": 0.038}}
    with pytest.raises(TypeError, match="object"):
        jsonable([object()])


def test_run_scenario_report_is_deterministic():
    config = _small_config()
    first = run_scenario(config)
    second = run_scenario(config)
    assert first["schema"] == REPORT_SCHEMA
    assert first["verdict"]
    assert list(first["checks"]) == ["transfer", "delta"]
    assert set(first["timings"]) == {"transfer", "delta"}
    first.pop("timings")
    second.pop("timings")
    assert first == second
    json.dumps(first)  # the whole report must serialize as-is


def test_run_scenario_checks_override():
    config = _small_config()
    report = run_scenario(config, checks=("transfer",))
    assert list(report["checks"]) == ["transfer"]
    assert report["verdict"]
    with pytest.raises(ConfigInvalid, match="unknown checks"):
        run_scenario(config, checks=("bogus",))
    with pytest.raises(ConfigInvalid, match="at least one check"):
        run_scenario(ScenarioConfig.default(), checks=())


def test_cache_warm_is_idempotent_and_heals(tmp_path):
    config = _small_config()
    cache = tmp_path / "cache"
    cache.mkdir()
    first = cache_warm(config, cache)
    assert first["files"]
    assert first["new_files"] == first["files"]
    snapshot = {name: (cache / name).read_bytes() for name in first["files"]}
    second = cache_warm(config, cache)
    assert second["new_files"] == []
    assert second["files"] == first["files"]
    for name, blob in snapshot.items():
        assert (cache / name).read_bytes() == blob
    # corrupt one file: the next warm pass recomputes and heals it
    victim = cache / first["files"][0]
    victim.write_bytes(b"\xff\xfe not a cache file")
    cache_warm(config, cache)
    assert victim.read_bytes() == snapshot[victim.name]


def test_cli_run_and_verify(tmp_path, capsys):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(ini), "--json-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "check transfer: PASS" in printed
    assert "check delta: PASS" in printed
    assert "overall: PASS" in printed
    report = json.loads(out.read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert report["verdict"] is True
    assert main(["verify", "delta", "--config", str(ini)]) == 0
    printed = capsys.readouterr().out
    assert "check delta: PASS" in printed
    assert "check transfer" not in printed


def test_emit_rejects_non_finite_floats(tmp_path):
    # jsonable writes v_p(0) as "+inf"; any other non-finite float is a bug,
    # and Infinity or NaN in the file would not be JSON
    from pmcong.cli import _emit

    out = tmp_path / "r.json"
    for bad in (float("nan"), -math.inf):
        with pytest.raises(ValueError, match="JSON compliant"):
            _emit({"x": bad}, out)
        assert not out.exists()
    _emit({"x": math.inf}, out)
    assert json.loads(out.read_text()) == {"x": "+inf"}


def test_desk_report_is_strict_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--cache-dir", str(tmp_path / "cache"), "--json-out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(out.read_text(), parse_constant=reject)
    valuations = [
        v for run in report["checks"]["qexp"]["runs"] for v in run["valuations"].values()
    ]
    assert valuations.count("+inf") == 14
    assert all(v == "+inf" or type(v) is int for v in valuations)


def test_cli_rejects_bad_config(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(SMALL_INI + "colour = blue\n")
    assert main(["run", "--config", str(ini)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        ("p = 3", "p = x"),
        ("conductor = 7\ns_primes = 3, 7", "conductor = 5\ns_primes = 3, 5"),
        ("frobenius = 2", "frobenius = 3, 5"),
        ("qexp_bound = 2", "qexp_bound = 800"),
        ("checks", "eps_basis = table\neps_table = 1:abc\nchecks"),
        ("checks", "eps_basis = table\neps_table = 1:1, 62:1\nchecks"),
        (
            "checks = transfer, delta",
            "eps_basis = table\n" + _eps_table_line({1: 1}) + "\nchecks = qexp",
        ),
        (
            "checks",
            "eps_basis = table\n" + _eps_table_line({1: "1/3", 62: "1/3"}) + "\nchecks",
        ),
        ("conductor = 7\ns_primes = 3, 7", "conductor = 31\ns_primes = 3, 31"),
        ("checks = transfer, delta", "eps_table = 1:1/9, 62:1/9\nchecks = delta"),
        ("ideal_bound = 40", "ideal_bound = 300%"),
        ("p = 3", "p = 3\np = 3"),
        ("[scenario]\n", ""),
        ("p = 3", "p = 3\udcff"),
        (
            "checks = transfer, delta",
            "eps_basis = table\n"
            + _eps_table_line({1: 1, 62: 1}).replace("= ", "= 1:1/9, ", 1)
            + "\nchecks = delta",
        ),
    ],
    ids=[
        "p-not-an-integer",
        "conductor-not-1-mod-p",
        "frobenius-not-a-unit",
        "trace-bound-too-large",
        "eps-value-not-rational",
        "eps-table-misses-classes",
        "eps-table-odd",
        "eps-table-not-p-integral",
        "power-basis-not-integral",
        "eps-table-without-table-basis",
        "interpolation-syntax",
        "option-given-twice",
        "no-section-header",
        "not-utf-8",
        "eps-table-class-twice",
    ],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, edit):
    """Malformed input is a configuration error, never a false verdict."""
    old, new = edit
    assert old in SMALL_INI
    ini = tmp_path / "bad.ini"
    # a lone surrogate in an edit stands for a byte that is not UTF-8
    ini.write_bytes(SMALL_INI.replace(old, new, 1).encode("utf-8", "surrogateescape"))
    assert main(["run", "--config", str(ini)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("conductor", [13, 19])
def test_cli_run_passes_beyond_the_desk_field(tmp_path, capsys, conductor):
    """The field-dependent checks at a=2 over the next admissible conductors."""
    ini = tmp_path / f"f{conductor}.ini"
    ini.write_text(
        (REPO_ROOT / "configs" / "default.ini")
        .read_text()
        .replace("conductor = 7", f"conductor = {conductor}")
        .replace("s_primes = 3, 7", f"s_primes = 3, {conductor}")
        .replace("qexp, sigma", "qexp")
    )
    config = ScenarioConfig.from_ini(ini)
    assert (config.conductor, config.s_primes, config.a) == (conductor, (3, conductor), 2)
    assert main(["run", "--config", str(ini)]) == 0
    printed = capsys.readouterr().out
    for check in ("crosscheck", "transfer", "delta", "qexp"):
        assert f"check {check}: PASS" in printed
    assert "overall: PASS" in printed


def test_cli_run_passes_with_a_third_prime_in_s(tmp_path, capsys):
    """S = {2, 3, 7}: Euler factors at a prime that is neither p nor the conductor."""
    ini = tmp_path / "s237.ini"
    ini.write_text(
        (REPO_ROOT / "configs" / "default.ini")
        .read_text()
        .replace("s_primes = 3, 7", "s_primes = 2, 3, 7")
        .replace("frobenius = 2, 5", "frobenius = 5, 11")
        .replace("qexp, sigma", "qexp")
    )
    config = ScenarioConfig.from_ini(ini)
    assert (config.s_primes, config.frobenius) == ((2, 3, 7), (5, 11))
    assert main(["run", "--config", str(ini)]) == 0
    printed = capsys.readouterr().out
    for check in ("crosscheck", "transfer", "delta", "qexp"):
        assert f"check {check}: PASS" in printed
    assert "overall: PASS" in printed


def _run_quintic(tmp_path, capsys, qexp_bound):
    """`pmcong run` at p=5, conductor 11, a=2, picks 2, 3, all checks but σ."""
    ini = tmp_path / "quintic.ini"
    ini.write_text(
        (REPO_ROOT / "configs" / "default.ini")
        .read_text()
        .replace("p = 3", "p = 5")
        .replace("conductor = 7", "conductor = 11")
        .replace("s_primes = 3, 7", "s_primes = 5, 11")
        .replace("frobenius = 2, 5", "frobenius = 2, 3")
        .replace("qexp_bound = 12", f"qexp_bound = {qexp_bound}")
        .replace("qexp, sigma", "qexp")
    )
    config = ScenarioConfig.from_ini(ini)
    assert (config.p, config.conductor, config.s_primes) == (5, 11, (5, 11))
    assert (config.a, config.frobenius, config.qexp_bound) == (2, (2, 3), qexp_bound)
    assert config.checks == ("crosscheck", "transfer", "delta", "qexp")
    assert main(["run", "--config", str(ini)]) == 0
    printed = capsys.readouterr().out
    for check in ("crosscheck", "transfer", "delta", "qexp"):
        assert f"check {check}: PASS" in printed
    assert "overall: PASS" in printed


def test_cli_run_passes_for_a_quintic_field(tmp_path, capsys):
    """p=5, conductor 11: the q-expansion check in degree 5 (traces 5, 10, …, 30)."""
    _run_quintic(tmp_path, capsys, 6)


@pytest.mark.slow
def test_cli_run_passes_for_a_quintic_field_at_qexp_bound_8(tmp_path, capsys):
    """At `qexp_bound` 8 the ideal pool reaches norm 8⁵ = 32 768, so every
    prime up to it is split (~1.5 s)."""
    _run_quintic(tmp_path, capsys, 8)


def _run_routes(tmp_path, capsys, a, field=(3, 7), picks=(2, 5)):
    """`pmcong run` on the field (p, conductor) at depth a with the checks
    crosscheck, transfer and delta."""
    p, conductor = field
    ini = tmp_path / f"p{p}-f{conductor}-a{a}.ini"
    ini.write_text(
        (REPO_ROOT / "configs" / "default.ini")
        .read_text()
        .replace("p = 3", f"p = {p}")
        .replace("conductor = 7", f"conductor = {conductor}")
        .replace("s_primes = 3, 7", f"s_primes = {p}, {conductor}")
        .replace("a = 2", f"a = {a}")
        .replace("frobenius = 2, 5", "frobenius = " + ", ".join(map(str, picks)))
        .replace("crosscheck, transfer, delta, qexp, sigma", "crosscheck, transfer, delta")
    )
    config = ScenarioConfig.from_ini(ini)
    assert (config.p, config.conductor, config.a, config.frobenius, config.checks) == (
        p, conductor, a, picks, ("crosscheck", "transfer", "delta")
    )
    assert main(["run", "--config", str(ini)]) == 0
    printed = capsys.readouterr().out
    for check in ("crosscheck", "transfer", "delta"):
        assert f"check {check}: PASS" in printed
    assert "overall: PASS" in printed


def test_cli_run_passes_at_depth_4(tmp_path, capsys):
    """a=4 (modulus 567, ring Z/27): the dual zeta routes at ambient order 54."""
    _run_routes(tmp_path, capsys, 4)


def test_cli_run_passes_at_depth_5(tmp_path, capsys):
    """a=5 (modulus 1701, ring Z/81): the dual zeta routes at ambient order 162."""
    _run_routes(tmp_path, capsys, 5)


def test_cli_run_passes_for_p5_conductor_11_at_depth_3(tmp_path, capsys):
    """(5, 11) at a=3 (modulus 1375, ring Z/25): the dual zeta routes at ambient order 100."""
    _run_routes(tmp_path, capsys, 3, field=(5, 11), picks=(2, 3))


def test_cli_run_passes_for_p3_conductor_13_at_depth_4(tmp_path, capsys):
    """(3, 13) at a=4 (modulus 1053, ring Z/27): the dual zeta routes at ambient order 108."""
    _run_routes(tmp_path, capsys, 4, field=(3, 13), picks=(2, 5))


@pytest.mark.slow
def test_cli_run_passes_at_depth_6(tmp_path, capsys):
    """a=6 (modulus 5103, ring Z/243): 2 916 characters at ambient order 486 (~5 s)."""
    _run_routes(tmp_path, capsys, 6)


def test_qexp_factors_each_nu_once(monkeypatch):
    config = ScenarioConfig.default()
    factor_principal = qexpansion.factor_principal
    calls = []

    def counting(spec, nu):
        calls.append(nu.coords)
        return factor_principal(spec, nu)

    monkeypatch.setattr(qexpansion, "factor_principal", counting)
    report = run_scenario(config, checks=("qexp",))
    assert report["verdict"]
    # E(μ) reads only the ν of trace p·μ; the base divisors d·o_L are among them
    field = config.level().field
    read_nu = sum(
        len(enumerate_tot_pos_trace(field, config.p * mu))
        for mu in range(1, config.qexp_bound + 1)
    )
    assert len(calls) == read_nu == 414
    assert len(set(calls)) == len(calls)


def test_report_is_identical_with_cold_and_warm_cache(tmp_path):
    # the σ-suite is configuration-free and reads no cache, so it is left out
    config = ScenarioConfig.default()
    checks = ("crosscheck", "transfer", "delta", "qexp")
    cache = tmp_path / "cache"
    reports = []
    for _ in ("cold", "warm"):
        report = run_scenario(config, cache_dir=cache, checks=checks)
        report.pop("timings")
        reports.append(json.dumps(report, sort_keys=True))
    assert any(cache.iterdir())
    assert reports[0] == reports[1]


def test_cache_warm_writes_exactly_the_files_a_cold_run_writes(tmp_path):
    # the σ-suite reads no cache, so it is left out as above
    config = ScenarioConfig.default()
    cold = tmp_path / "cold"
    run_scenario(config, cache_dir=cold, checks=("crosscheck", "transfer", "delta", "qexp"))
    warmed = cache_warm(config, tmp_path / "warm")
    assert warmed["files"] == sorted(p.name for p in cold.iterdir())


def test_cache_warm_scans_only_the_traces_p_mu(tmp_path):
    config = ScenarioConfig.default()
    warmed = cache_warm(config, tmp_path)
    assert warmed["files"] == sorted(f"totpos-fL7-p3-t{t}.txt" for t in range(3, 37, 3))


def test_a_str_cache_directory_works_like_a_path(tmp_path):
    config = ScenarioConfig.default()
    cache = str(tmp_path / "cache")
    assert run_scenario(config, cache_dir=cache, checks=("qexp",))["verdict"]
    assert sorted(p.name for p in Path(cache).iterdir()) == cache_warm(config, tmp_path / "warm")["files"]
    assert (Path(cache) / "totpos-fL7-p3-t6.txt").exists()
    assert cache_warm(config, cache)["new_files"] == []
    fresh = str(tmp_path / "fresh")
    assert cache_warm(_small_config(qexp_bound=1), fresh)["new_files"] == ["totpos-fL7-p3-t3.txt"]
    assert [p.name for p in Path(fresh).iterdir()] == ["totpos-fL7-p3-t3.txt"]


def test_desk_cache_files_are_pinned_byte_for_byte(tmp_path):
    """The totpos files of the desk field for t = 3 and t = 6, as every
    version since pmcong-cache/2 writes them; a directory warmed by one
    version reads as warm in the others."""
    config = _small_config()
    expected = {
        "totpos-fL7-p3-t3.txt": "pmcong-cache/2 totpos fL=7 p=3 t=3\n-1,-1,-1|484e5265\nend 1\n",
        "totpos-fL7-p3-t6.txt": (
            "pmcong-cache/2 totpos fL=7 p=3 t=6\n"
            "-3,-2,-1|cd64eca2\n"
            "-2,-2,-2|f21ab6ac\n"
            "-2,-1,-3|97a829d4\n"
            "-1,-3,-2|7b4ecb54\n"
            "end 4\n"
        ),
    }
    assert cache_warm(config, tmp_path)["files"] == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")
    # files written from the literal text are warm: nothing is rewritten
    warm = tmp_path / "warm"
    warm.mkdir()
    for name, text in expected.items():
        (warm / name).write_bytes(text.encode("utf-8"))
        os.utime(warm / name, ns=(0, 0))
    assert cache_warm(config, warm)["new_files"] == []
    assert all((warm / name).stat().st_mtime_ns == 0 for name in expected)


def test_the_walk_and_the_nu_table_do_no_file_io():
    """`numberfield` and `qexpansion` import nothing from `cache` or `pathlib`
    and open no file, and the walk and the ν table take no cache directory;
    `harness` compares a cache directory with the walk."""
    package = REPO_ROOT / "src" / "pmcong"
    trees = {
        name: ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("numberfield", "qexpansion")
    }
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported = {a.name for a in node.names}
            else:
                assert not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"), name
                continue
            assert not imported & {"cache", "pmcong.cache", "pathlib"}, (name, node.lineno)

    def params(tree, qualname):
        body = tree.body
        *owner, name = qualname.split(".")
        if owner:
            body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
        fn = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
        return [a.arg for a in fn.args.args + fn.args.kwonlyargs]

    assert params(trees["numberfield"], "enumerate_tot_pos_trace") == ["spec", "t"]
    assert params(trees["numberfield"], "tot_pos_up_to") == ["spec", "trace_bound"]
    assert params(trees["qexpansion"], "NuTable.__init__") == ["self", "level", "trace_bound"]


def test_a_cache_file_without_a_sigma_orbit_changes_no_report(tmp_path):
    """The trace-9 file cut to -3,-3,-3, with valid checksums and trailer, is
    σ-closed and holds only totally positive ν of trace 9; the qexp report must
    still be the one a run without a cache gives, and the file must be healed."""
    config = ScenarioConfig.default()
    cache = tmp_path / "cache"
    cache_warm(config, cache)
    path = cache / "totpos-fL7-p3-t9.txt"
    fresh = path.read_bytes()
    key = {"p": 3, "fL": 7, "t": 9}
    orbit = {"-4,-3,-2", "-3,-2,-4", "-2,-4,-3"}  # the σ-orbit of (-4,-3,-2)
    records = load_records(cache, "totpos", key)
    assert orbit < set(records)
    store_records(cache, "totpos", key, [r for r in records if r not in orbit])
    reports = []
    for cache_dir in (None, cache):
        report = run_scenario(config, cache_dir=cache_dir, checks=("qexp",))
        report.pop("timings")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
    assert path.read_bytes() == fresh, "the healed file must match a fresh one"


def test_no_assert_statements_in_the_package():
    # checks must also run under python -O, which strips assert statements
    package = REPO_ROOT / "src" / "pmcong"
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_optimized_run_reports_the_same_as_a_plain_run(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        (REPO_ROOT / "configs" / "default.ini")
        .read_text()
        .replace("qexp, sigma", "qexp")
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{''.join(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "pmcong.cli", "run", "--config", str(ini), "--json-out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert set(report.pop("timings")) == {"crosscheck", "transfer", "delta", "qexp"}
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_failure_exit_code(monkeypatch, capsys):
    import pmcong.cli as cli_module

    def fake_run(config, cache_dir=None, checks=None):
        return {
            "schema": REPORT_SCHEMA,
            "config": config.describe(),
            "checks": {"transfer": {"verdict": False}},
            "verdict": False,
            "timings": {},
        }

    monkeypatch.setattr(cli_module, "run_scenario", fake_run)
    assert main(["run"]) == 1
    printed = capsys.readouterr().out
    assert "check transfer: FAIL" in printed
    assert "overall: FAIL" in printed


@pytest.fixture
def no_checks(monkeypatch):
    """Make run_scenario, cache_warm and the σ-suite fail the test if the CLI reaches them."""
    import pmcong.cli as cli_module
    import pmcong.sigma as sigma_module

    def never(*args, **kwargs):
        raise AssertionError("no check may run on a bad output path")

    monkeypatch.setattr(cli_module, "run_scenario", never)
    monkeypatch.setattr(cli_module, "cache_warm", never)
    # the CLI reads sigma.run_sigma_suite at call time
    monkeypatch.setattr(sigma_module, "run_sigma_suite", never)


def _assert_configuration_error(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert named in captured.err


@pytest.fixture
def no_scenario_checks(monkeypatch):
    """Make every check of `run_scenario` fail the test if it starts."""
    import pmcong.harness as harness_module
    import pmcong.sigma as sigma_module

    def never(*args, **kwargs):
        raise AssertionError("no check may run on a bad check selection")

    for name in ("_check_crosscheck", "_check_transfer", "_check_delta", "_check_qexp"):
        monkeypatch.setattr(harness_module, name, never)
    # run_scenario reads sigma.run_sigma_suite at call time
    monkeypatch.setattr(sigma_module, "run_sigma_suite", never)


def test_cli_verify_transfer_at_depth_1_exits_2(tmp_path, capsys, no_scenario_checks):
    # the file's own checks do not need a ≥ 2; the selected transfer check does
    ini = tmp_path / "shallow.ini"
    ini.write_text(
        SMALL_INI.replace("a = 2", "a = 1").replace("checks = transfer, delta", "checks = crosscheck")
    )
    _assert_configuration_error(capsys, ["verify", "transfer", "--config", str(ini)], "a ≥ 2")


def test_cli_verify_qexp_without_an_even_k_exits_2(tmp_path, capsys, no_scenario_checks):
    ini = tmp_path / "odd.ini"
    ini.write_text(SMALL_INI.replace("k_values = 2", "k_values = 1, 3"))
    _assert_configuration_error(capsys, ["verify", "qexp", "--config", str(ini)], "even k")


def test_cli_empty_check_list_exits_2(tmp_path, capsys, no_scenario_checks):
    ini = tmp_path / "none.ini"
    ini.write_text(SMALL_INI.replace("checks = transfer, delta", "checks ="))
    _assert_configuration_error(capsys, ["run", "--config", str(ini)], "at least one check")
    cache = tmp_path / "cache"
    _assert_configuration_error(
        capsys, ["cache-warm", "--config", str(ini), "--cache-dir", str(cache)], "at least one check"
    )
    assert not cache.exists()


def test_cli_json_out_in_a_missing_directory_exits_2(tmp_path, capsys, no_checks):
    target = tmp_path / "missing" / "r.json"
    _assert_configuration_error(capsys, ["run", "--json-out", str(target)], "--json-out")
    assert not target.parent.exists()


def test_cli_json_out_naming_a_directory_exits_2(tmp_path, capsys, no_checks):
    _assert_configuration_error(capsys, ["run", "--json-out", str(tmp_path)], "is a directory")


def test_cli_run_cache_dir_naming_a_file_exits_2(tmp_path, capsys, no_checks):
    regular = tmp_path / "file"
    regular.write_text("")
    _assert_configuration_error(capsys, ["run", "--cache-dir", str(regular)], "--cache-dir")
    _assert_configuration_error(capsys, ["run", "--cache-dir", str(regular / "sub")], "--cache-dir")


def test_cli_run_beyond_the_transform_grid_cap_exits_2(tmp_path, capsys, no_checks):
    ini = tmp_path / "deep.ini"
    ini.write_text(SMALL_INI.replace("a = 2", "a = 9"))
    _assert_configuration_error(capsys, ["run", "--config", str(ini)], "above the cap")


def test_cli_cache_warm_cache_dir_naming_a_file_exits_2(tmp_path, capsys, no_checks):
    regular = tmp_path / "file"
    regular.write_text("")
    _assert_configuration_error(capsys, ["cache-warm", "--cache-dir", str(regular)], "--cache-dir")
    assert regular.read_text() == ""


_PROC_WRITABLE = Path("/proc/sys/kernel").is_dir()


@pytest.mark.skipif(not _PROC_WRITABLE, reason="needs a /proc file system")
@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--cache-dir", "/proc/forbidden"], "--cache-dir /proc/forbidden"),
        (["run", "--cache-dir", "/proc/sys/kernel"], "--cache-dir /proc/sys/kernel"),
        (["sigma", "--json-out", "/proc/x.json"], "--json-out /proc/x.json"),
        (["crosscheck", "--json-out", "/proc/x.json"], "--json-out /proc/x.json"),
        (["cache-warm", "--cache-dir", "/proc/forbidden"], "--cache-dir /proc/forbidden"),
    ],
    ids=["run-missing", "run-existing", "sigma-json", "crosscheck-json", "cache-warm"],
)
def test_cli_unwritable_output_paths_exit_2(capsys, no_checks, argv, named):
    """Paths that even root cannot write to are configuration errors found
    before any check runs, not a failure after the checks."""
    _assert_configuration_error(capsys, argv, named)


def test_cli_output_directories_that_refuse_a_file_exit_2(tmp_path, capsys, no_checks, monkeypatch):
    """File modes do not stop root, so a refusing directory is simulated by a
    probe that raises; a cache directory made for the probe is removed."""
    import pmcong.cli as cli_module

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli_module.tempfile, "mkstemp", refuse)
    cache = tmp_path / "new" / "cache"
    _assert_configuration_error(capsys, ["run", "--cache-dir", str(cache)], "Permission denied")
    assert not (tmp_path / "new").exists()
    _assert_configuration_error(capsys, ["cache-warm", "--cache-dir", str(tmp_path)], "--cache-dir")
    out = tmp_path / "r.json"
    _assert_configuration_error(capsys, ["sigma", "--json-out", str(out)], "--json-out")
    assert list(tmp_path.iterdir()) == []


def test_cli_output_probe_leaves_nothing_behind(tmp_path, monkeypatch, capsys):
    import pmcong.cli as cli_module

    def passing_run(config, cache_dir=None, checks=None):
        return {"checks": {"transfer": {"verdict": True}}, "verdict": True}

    monkeypatch.setattr(cli_module, "run_scenario", passing_run)
    cache = tmp_path / "new" / "cache"
    out = tmp_path / "r.json"
    assert main(["run", "--cache-dir", str(cache), "--json-out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    existing = tmp_path / "kept"
    existing.mkdir()
    assert main(["run", "--cache-dir", str(existing)]) == 0
    assert existing.is_dir() and list(existing.iterdir()) == []
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_zeta_base_side(capsys):
    rc = main(["zeta", "--modulus", "63", "--k", "2", "--cls", "2"])
    assert rc == 0
    assert "zeta(1-2; 2 mod 63) = -1079/252" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--modulus", "0", "--k", "2"], "modulus"),
        (["--modulus", "63", "--k", "0"], "--k"),
        (["--modulus", "63", "--k", "2", "--cls", "3"], "--cls 3"),
        (["--modulus", "63", "--k", "2", "--side", "L", "--p", "3", "--conductor", "13"], "conductor"),
        (["--modulus", "7", "--k", "2", "--side", "L", "--p", "5", "--conductor", "7"], "conductor"),
        (["--modulus", "31", "--k", "2", "--side", "L", "--p", "3", "--conductor", "31"], "[O_L"),
        (["--modulus", "63", "--k", "2", "--p", "5"], "degree p is read only with a conductor"),
    ],
    ids=[
        "modulus-0",
        "k-0",
        "non-unit-class",
        "conductor-off-modulus",
        "bad-field",
        "unsupported-field",
        "p-without-conductor",
    ],
)
def test_cli_zeta_bad_arguments_exit_2(capsys, argv, named):
    assert main(["zeta", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert named in captured.err


def test_cli_zeta_extension_side(capsys):
    rc = main(
        [
            "zeta",
            "--modulus",
            "7",
            "--k",
            "2",
            "--side",
            "L",
            "--p",
            "3",
            "--conductor",
            "7",
        ]
    )
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == [
        "zeta(1-2; 1 mod 7) = 1/7",
        "zeta(1-2; 6 mod 7) = 1/7",
    ]
    # the extension side is meaningless without the field data
    assert main(["zeta", "--modulus", "7", "--k", "2", "--side", "L"]) == 2
    assert "extension side" in capsys.readouterr().err


def test_cli_zeta_extension_side_beyond_the_transform_grid_cap_exits_2(capsys, monkeypatch):
    """Desk a=8 (26 244 · 4 374 slots) is rejected before the transform starts;
    the base side reads the Hurwitz route, which runs no transform."""
    import pmcong.zeta as zeta_module

    def never(*args, **kwargs):
        raise AssertionError("the extension table must not start above the grid cap")

    monkeypatch.setattr(zeta_module, "_l_table", never)
    deep = ["zeta", "--modulus", "45927", "--k", "2", "--p", "3", "--conductor", "7"]
    _assert_configuration_error(capsys, [*deep, "--side", "L"], "above the cap")
    assert main([*deep, "--side", "Q", "--cls", "1"]) == 0
    assert capsys.readouterr().out.startswith("zeta(1-2; 1 mod 45927) = ")


def test_cli_sigma(capsys):
    assert main(["sigma"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_cache_warm(tmp_path, capsys):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    cache = tmp_path / "cache"
    assert main(["cache-warm", "--config", str(ini), "--cache-dir", str(cache)]) == 0
    printed = capsys.readouterr().out
    assert "new: " in printed
    assert "kept: " not in printed
    assert main(["cache-warm", "--config", str(ini), "--cache-dir", str(cache)]) == 0
    printed = capsys.readouterr().out
    assert "new: " not in printed
    assert "kept: " in printed
