"""Scenario configuration, check orchestration, and machine-readable reports.

A scenario is described by an INI file (one `[scenario]` section; see
`ScenarioConfig.from_ini`).  `run_scenario` executes the requested checks in
dependency order — engine crosschecks first, then the transfer congruence,
the Δ-congruence, the q-expansion congruence, and the symbolic suite — and
assembles a JSON-ready report with schema tag ``pmcong-report/1``.  Reports
are deterministic for a fixed configuration and code version, except for the
``timings`` block, which is explicitly excluded from that contract.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .dirichlet import characters_of, conductor_primitive, series_coefficients
from .exact import PValuation, p_valuation
from .levels import (
    L_SIDE,
    Q_SIDE,
    FrobeniusChoice,
    LocallyConstantFn,
    even_orbit_indicators,
    scenario_level,
)
from .numberfield import _MAX_TRACE, enumerate_ideals, tot_pos_up_to
from .pseudomeasure import (
    lambda_approx,
    verify_delta_congruence,
    verify_transfer_congruence,
)
from .qexpansion import NuTable, verify_qexp_congruence
from .sigma import run_sigma_suite
from .units import parse_int_list
from .zeta import (
    delta_sum_integrality,
    delta_table,
    partial_zeta,
    partial_zeta_q_characters,
)

__all__ = [
    "REPORT_SCHEMA",
    "ConfigInvalid",
    "ScenarioConfig",
    "cache_warm",
    "jsonable",
    "run_scenario",
]

REPORT_SCHEMA = "pmcong-report/1"

_KNOWN_CHECKS = ("crosscheck", "transfer", "delta", "qexp", "sigma")


class ConfigInvalid(ValueError):
    """A scenario configuration violates a standing hypothesis."""


def _read_section(sec) -> dict:
    """Constructor keyword arguments from a `[scenario]` section, unvalidated."""
    kwargs = {}
    for key in ("p", "conductor", "a", "qexp_bound", "ideal_bound"):
        if key in sec:
            kwargs[key] = sec.getint(key)
    for key in ("s_primes", "k_values", "frobenius"):
        if key in sec:
            kwargs[key] = parse_int_list(sec[key])
    if "checks" in sec:
        kwargs["checks"] = tuple(sec["checks"].replace(",", " ").split())
    if "scaled" in sec:
        kwargs["scaled"] = sec.getboolean("scaled")
    if "eps_basis" in sec:
        kwargs["eps_basis"] = sec["eps_basis"].strip()
    if "eps_table" in sec:
        table = []
        for chunk in sec["eps_table"].split(";"):
            entries = {}
            for item in chunk.split(","):
                item = item.strip()
                if not item:
                    continue
                cls_txt, _, val_txt = item.partition(":")
                cls = int(cls_txt)
                if cls in entries:
                    raise ValueError(f"eps_table names class {cls} twice in one function")
                entries[cls] = Fraction(val_txt)
            if entries:
                table.append(entries)
        kwargs["eps_table"] = table
    return kwargs


@dataclass(slots=True, eq=False)
class ScenarioConfig:
    """Validated scenario parameters; see `from_ini` for the file format.

    The fields are the scenario keys.  Every running hypothesis is checked
    when a config is built, so any config that exists can be run.
    """

    p: int
    conductor: int
    s_primes: tuple[int, ...]
    a: int
    k_values: tuple[int, ...] = (2, 4)
    frobenius: tuple[int, ...] = (2,)
    qexp_bound: int = 12
    ideal_bound: int = 300
    checks: tuple[str, ...] = _KNOWN_CHECKS
    scaled: bool = False
    eps_basis: str = "even_orbit_indicators"
    eps_table: list[dict[int, Fraction]] | None = None

    def __post_init__(self):
        self.p, self.conductor, self.a = int(self.p), int(self.conductor), int(self.a)
        self.s_primes = tuple(sorted({int(q) for q in self.s_primes}))
        self.k_values = tuple(int(k) for k in self.k_values)
        self.frobenius = tuple(int(n) for n in self.frobenius)
        self.qexp_bound, self.ideal_bound = int(self.qexp_bound), int(self.ideal_bound)
        self.checks = tuple(self.checks)
        self.scaled = bool(self.scaled)
        self.validate()

    @classmethod
    def default(cls) -> "ScenarioConfig":
        """The bundled desk scenario: p=3, conductor 7, S={3,7}, a=2."""
        return cls(p=3, conductor=7, s_primes=(3, 7), a=2, frobenius=(2, 5))

    @classmethod
    def from_ini(cls, path) -> "ScenarioConfig":
        """Read a `[scenario]` section.

        The recognized keys are the fields of the class; those without a
        default are required.  Integer lists are comma- or space-separated.
        An explicit function table uses `eps_basis = table` with `eps_table`
        holding one function per ';'-separated group of comma-separated
        `class:value` entries, values being exact rationals.
        """
        parser = configparser.ConfigParser()
        try:
            read = parser.read(str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"malformed configuration file: {exc}") from None
        if not read:
            raise ConfigInvalid(f"cannot read configuration file {path}")
        if "scenario" not in parser:
            raise ConfigInvalid("configuration needs a [scenario] section")
        sec = parser["scenario"]
        unknown = set(sec) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigInvalid(f"unknown configuration keys: {sorted(unknown)}")
        try:
            kwargs = _read_section(sec)
        except (ValueError, ZeroDivisionError, configparser.Error) as exc:
            raise ConfigInvalid(f"malformed configuration value: {exc}") from None
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(kwargs)
        if missing:
            raise ConfigInvalid(f"configuration is missing {sorted(missing)}")
        return cls(**kwargs)

    def validate(self) -> None:
        # p, S, the conductor, the field and a: the level owns these hypotheses
        try:
            level = self.level()
        except (ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(str(exc)) from None
        if self.a < 2 and "transfer" in self.checks:
            raise ConfigInvalid(
                "transfer comparison needs a ≥ 2 (LevelTooShallow at a=1)"
            )
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigInvalid("k values must be positive")
        if "qexp" in self.checks and not any(
            k >= 2 and k % 2 == 0 for k in self.k_values
        ):
            raise ConfigInvalid("q-expansion checks need an even k ≥ 2")
        if not self.frobenius:
            raise ConfigInvalid("at least one Frobenius pick is required")
        non_units = [
            n for n in self.frobenius if n < 1 or math.gcd(n, level.modulus) != 1
        ]
        if non_units:
            raise ConfigInvalid(
                f"Frobenius picks must be positive units mod {level.modulus}: {non_units}"
            )
        if self.qexp_bound < 1 or self.ideal_bound < 1:
            raise ConfigInvalid("bounds must be ≥ 1")
        if self.qexp_trace_bound > _MAX_TRACE:
            raise ConfigInvalid(
                f"p · qexp_bound = {self.qexp_trace_bound} exceeds the largest "
                f"supported trace {_MAX_TRACE}"
            )
        unknown = set(self.checks) - set(_KNOWN_CHECKS)
        if unknown:
            raise ConfigInvalid(f"unknown checks: {sorted(unknown)}")
        if self.eps_basis not in ("even_orbit_indicators", "table"):
            raise ConfigInvalid(
                "eps_basis must be 'even_orbit_indicators' or 'table'"
            )
        if self.eps_basis != "table":
            if self.eps_table is not None:
                raise ConfigInvalid("eps_table is read only with eps_basis = table")
            return
        if not self.eps_table:
            raise ConfigInvalid("eps_basis 'table' needs a nonempty eps_table")
        # each explicit ε must cover the extension-side classes, be even and p-integral
        classes = set(level.classes(L_SIDE))
        for i, table in enumerate(self.eps_table):
            if set(table) != classes:
                raise ConfigInvalid(
                    f"eps_table function {i} must cover exactly the "
                    f"{len(classes)} extension-side classes mod {level.modulus}"
                )
            eps = LocallyConstantFn.from_table(level, L_SIDE, table)
            if not eps.even:
                raise ConfigInvalid(f"eps_table function {i} is not even")
            if not eps.p_integral:
                raise ConfigInvalid(f"eps_table function {i} is not {self.p}-integral")

    def level(self):
        return scenario_level(self.p, self.conductor, self.s_primes, self.a)

    @property
    def qexp_trace_bound(self) -> int:
        """p · qexp_bound: the largest ν-trace the q-expansion check scans."""
        return self.p * self.qexp_bound

    def describe(self) -> dict:
        """The report's `config` block: every key but `eps_table`, lists for tuples."""
        out = {}
        for f in fields(self):
            if f.name != "eps_table":
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def jsonable(value):
    """Recursively convert exact values into JSON-representable ones.

    Floats (the `timings`) pass through as numbers; any other type outside
    the handled set is a `TypeError`, not a `repr` in the report.
    """
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, PValuation):
        return "+inf" if not value.finite else value.value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"{type(value).__name__} value {value!r} has no JSON form")


def _eps_functions(config: ScenarioConfig, level) -> list[LocallyConstantFn]:
    if config.eps_basis == "table":
        return [
            LocallyConstantFn.from_table(level, L_SIDE, table)
            for table in config.eps_table
        ]
    return list(even_orbit_indicators(level, L_SIDE))


def _qexp_functions(config: ScenarioConfig, level) -> list[LocallyConstantFn]:
    """ε ≡ 1 plus the first two nontrivial even indicators (or the whole table)."""
    if config.eps_basis == "table":
        return _eps_functions(config, level)
    out = [LocallyConstantFn.constant_fn(level, L_SIDE, 1)]
    nontrivial = [
        eps
        for eps in even_orbit_indicators(level, L_SIDE)
        if len(eps.support) < len(level.h_classes)
    ]
    return out + nontrivial[:2]


def _check_crosscheck(config: ScenarioConfig, level) -> dict:
    details = {}

    dual = True
    for k in config.k_values:
        for x in level.classes(Q_SIDE):
            if partial_zeta(level, Q_SIDE, x, k) != partial_zeta_q_characters(
                level, x, k
            ):
                dual = False
    details["partial_zeta_dual_route"] = {"verdict": dual, "k_values": list(config.k_values)}

    k_indep = True
    for n in config.frobenius:
        g = FrobeniusChoice(level, n)
        h = g.transfer()
        for side, pick in ((Q_SIDE, g), (L_SIDE, h)):
            base = lambda_approx(level, side, pick, config.k_values[0])
            for k in config.k_values[1:]:
                if lambda_approx(level, side, pick, k).coeffs != base.coeffs:
                    k_indep = False
    details["lambda_k_independent"] = {"verdict": k_indep}

    integral = True
    worst = None
    for n in config.frobenius:
        g = FrobeniusChoice(level, n)
        for k in config.k_values:
            for side in (Q_SIDE, L_SIDE):
                pick = g if side == Q_SIDE else g.transfer()
                for value in delta_table(level, side, pick, k).values():
                    v = p_valuation(value, config.p)
                    if not v >= 0:
                        integral = False
                    if worst is None or v < worst:
                        worst = v
    details["delta_p_integral"] = {"verdict": integral, "min_valuation": worst}

    twist = True
    g = FrobeniusChoice(level, config.frobenius[0])
    for x in level.classes(Q_SIDE):
        eps_by_k = dict.fromkeys(config.k_values, LocallyConstantFn.delta_fn(level, Q_SIDE, x))
        if not delta_sum_integrality(level, Q_SIDE, g, eps_by_k) >= 0:
            twist = False
    details["twisted_sum_integral"] = {"verdict": twist}

    field = level.field
    ideals = enumerate_ideals(field, config.ideal_bound)
    counts = {}
    for ideal in ideals:
        counts[ideal.norm()] = counts.get(ideal.norm(), 0) + 1
    norm_classes = tuple(
        x for x in sorted(field.coset_of) if field.coset_of[x] == 0
    )
    chars = characters_of(field.conductor, trivial_on=norm_classes)
    prims = [conductor_primitive(chi) for chi in chars]
    series = series_coefficients(prims, config.ideal_bound, ())
    euler_ok = all(
        counts.get(n, 0) == series[n] for n in range(1, config.ideal_bound + 1)
    )
    details["ideal_counts_match_euler_product"] = {
        "verdict": euler_ok,
        "bound": config.ideal_bound,
        "ideals": len(ideals),
    }

    return {
        "verdict": all(d["verdict"] for d in details.values()),
        "details": details,
    }


def _check_transfer(config: ScenarioConfig, level) -> dict:
    runs = []
    for n in config.frobenius:
        g = FrobeniusChoice(level, n)
        for k in config.k_values:
            report = verify_transfer_congruence(level, g, k)
            runs.append(report)
    return {"verdict": all(r["verdict"] for r in runs), "runs": runs}


def _check_delta(config: ScenarioConfig, level) -> dict:
    runs = []
    verdict = True
    for n in config.frobenius:
        g = FrobeniusChoice(level, n)
        for k in config.k_values:
            for i, eps in enumerate(_eps_functions(config, level)):
                v = verify_delta_congruence(level, g, eps, k)
                ok = v >= 1
                verdict = verdict and ok
                runs.append(
                    {"n": n, "k": k, "eps": i, "valuation": v, "verdict": ok}
                )
    return {"verdict": verdict, "runs": runs}


def _check_qexp(config: ScenarioConfig, level, cache_dir) -> dict:
    runs = []
    verdict = True
    ks = [k for k in config.k_values if k >= 2 and k % 2 == 0]
    table = NuTable(level, config.qexp_trace_bound, cache_dir=cache_dir)
    for k in ks:
        for i, eps in enumerate(_qexp_functions(config, level)):
            report = verify_qexp_congruence(
                level, eps, k, config.qexp_bound, table=table
            )
            verdict = verdict and report["verdict"]
            runs.append(
                {
                    "k": k,
                    "eps": i,
                    "verdict": report["verdict"],
                    "routes_agree": report["routes_agree"],
                    "constant_term": report["constant_term"],
                    "valuations": report["valuations"],
                    "bookkeeping": report["bookkeeping"],
                }
            )
    return {"verdict": verdict, "runs": runs}


def run_scenario(
    config: ScenarioConfig, cache_dir: Path | None = None, checks=None
) -> dict:
    """Execute the configured checks and assemble the versioned report.

    A `checks` selection replaces the configured one and is validated like
    it, so its hypotheses fail before any check runs; the report's `config`
    block still describes `config` itself.
    """
    selected = config.checks
    if checks is not None:
        selected = replace(config, checks=tuple(checks)).checks
    level = config.level()
    report_checks = {}
    timings = {}
    # dependency order: engine crosschecks before the congruences they feed
    for name in _KNOWN_CHECKS:
        if name not in selected:
            continue
        start = time.monotonic()
        if name == "crosscheck":
            result = _check_crosscheck(config, level)
        elif name == "transfer":
            result = _check_transfer(config, level)
        elif name == "delta":
            result = _check_delta(config, level)
        elif name == "qexp":
            result = _check_qexp(config, level, cache_dir)
        elif name == "sigma":
            result = run_sigma_suite()
        timings[name] = round(time.monotonic() - start, 3)
        report_checks[name] = jsonable(result)
    verdict = all(c["verdict"] for c in report_checks.values())
    return {
        "schema": REPORT_SCHEMA,
        "config": config.describe(),
        "checks": report_checks,
        "verdict": verdict,
        "timings": timings,
    }


def cache_warm(config: ScenarioConfig, cache_dir: Path) -> dict:
    """Populate the lattice-scan cache that the q-expansion check of a run reads."""
    cache_dir = Path(cache_dir)
    files_before = {p.name for p in cache_dir.glob("*")} if cache_dir.exists() else set()
    tot_pos_up_to(config.level().field, config.qexp_trace_bound, cache_dir=cache_dir)
    files_after = sorted(p.name for p in cache_dir.glob("*"))
    return {
        "directory": str(cache_dir),
        "files": files_after,
        "new_files": sorted(set(files_after) - files_before),
    }
