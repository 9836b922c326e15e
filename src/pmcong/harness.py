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
import importlib.util
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .exact import int_valuation
from .levels import (
    L_SIDE,
    Q_SIDE,
    LocallyConstantFn,
    even_orbit_indicators,
    grid_cap_error,
    scenario_level,
    scenario_modulus,
)
from .numberfield import _MAX_TRACE, enumerate_ideals, tot_pos_up_to
from .units import parse_int_list


def _register_lazily(name: str):
    """The submodule `pmcong.<name>`, in `sys.modules` and on the package but not run.

    Its first attribute access runs it, so a process that never reads it
    never compiles or executes it.  Unlike an import inside the functions
    that use it, the module is findable by name from the start, and callers
    that read `module.function` at call time see any later rebinding of that
    attribute.  An already imported module is returned as it is.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the modules behind the checks, and the cache a --cache-dir run compares
# with; cli takes sigma and zeta from here
cache = _register_lazily("cache")
dirichlet = _register_lazily("dirichlet")
pseudomeasure = _register_lazily("pseudomeasure")
qexpansion = _register_lazily("qexpansion")
sigma = _register_lazily("sigma")
zeta = _register_lazily("zeta")

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


class ScenarioConfig:
    """Validated scenario parameters; see `from_ini` for the file format.

    The slots are the scenario keys in report order, and the constructor takes
    them in the same order; the keys without a default are required.  Every
    running hypothesis is checked when a config is built, so any config that
    exists can be run.
    """

    __slots__ = (
        "p",
        "conductor",
        "s_primes",
        "a",
        "k_values",
        "frobenius",
        "qexp_bound",
        "ideal_bound",
        "checks",
        "scaled",
        "eps_basis",
        "eps_table",
    )

    def __init__(
        self,
        p: int,
        conductor: int,
        s_primes: tuple[int, ...],
        a: int,
        k_values: tuple[int, ...] = (2, 4),
        frobenius: tuple[int, ...] = (2,),
        qexp_bound: int = 12,
        ideal_bound: int = 300,
        checks: tuple[str, ...] = _KNOWN_CHECKS,
        scaled: bool = False,
        eps_basis: str = "even_orbit_indicators",
        eps_table: list[dict[int, Fraction]] | None = None,
    ):
        self.p, self.conductor, self.a = int(p), int(conductor), int(a)
        self.s_primes = tuple(sorted({int(q) for q in s_primes}))
        self.k_values = tuple(int(k) for k in k_values)
        self.frobenius = tuple(int(n) for n in frobenius)
        self.qexp_bound, self.ideal_bound = int(qexp_bound), int(ideal_bound)
        self.checks = tuple(checks)
        self.scaled = bool(scaled)
        self.eps_basis = eps_basis
        self.eps_table = eps_table
        self.validate()

    @classmethod
    def default(cls) -> "ScenarioConfig":
        """The bundled desk scenario: p=3, conductor 7, S={3,7}, a=2."""
        return cls(p=3, conductor=7, s_primes=(3, 7), a=2, frobenius=(2, 5))

    @classmethod
    def from_ini(cls, path) -> "ScenarioConfig":
        """Read a `[scenario]` section.

        The recognized keys are the slots of the class; those without a
        default in the constructor are required.  Integer lists are comma- or
        space-separated.  An explicit function table uses `eps_basis = table`
        with `eps_table` holding one function per ';'-separated group of
        comma-separated `class:value` entries, values being exact rationals.
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
        unknown = set(sec) - set(cls.__slots__)
        if unknown:
            raise ConfigInvalid(f"unknown configuration keys: {sorted(unknown)}")
        try:
            kwargs = _read_section(sec)
        except (ValueError, ZeroDivisionError, configparser.Error) as exc:
            raise ConfigInvalid(f"malformed configuration value: {exc}") from None
        # the constructor takes the slots in order, the defaulted ones last
        required = cls.__slots__[: len(cls.__slots__) - len(cls.__init__.__defaults__)]
        missing = set(required) - set(kwargs)
        if missing:
            raise ConfigInvalid(f"configuration is missing {sorted(missing)}")
        return cls(**kwargs)

    def validate(self) -> None:
        # p, S, the conductor, the field and a: the level owns these hypotheses.
        # The grid cap reads only the modulus, so it is checked after the
        # hypotheses that need no field and before the field is built.
        try:
            modulus = scenario_modulus(self.p, self.conductor, self.s_primes, self.a)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        # every check but sigma reads zeta tables from the packed transform
        grid_error = grid_cap_error(modulus)
        if set(self.checks) != {"sigma"} and grid_error:
            raise ConfigInvalid(grid_error)
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
        if not self.checks:
            raise ConfigInvalid("at least one check is required")
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
        for key in self.__slots__:
            if key != "eps_table":
                value = getattr(self, key)
                out[key] = list(value) if isinstance(value, tuple) else value
        return out


def jsonable(value):
    """Recursively convert exact values into JSON-representable ones.

    This is the one place that writes v_p(0) = ``math.inf`` as ``"+inf"``.
    Other floats (the `timings`) pass through as numbers; any other type
    outside the handled set is a `TypeError`, not a `repr` in the report.
    """
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if value == math.inf:
        return "+inf"
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
        if len(eps.nums) < len(level.h_classes)
    ]
    return out + nontrivial[:2]


def _check_crosscheck(config: ScenarioConfig, level) -> dict:
    details = {}

    dual = True
    for k in config.k_values:
        for x in level.classes(Q_SIDE):
            if zeta.partial_zeta(level, Q_SIDE, x, k) != zeta.partial_zeta_q_characters(
                level, x, k
            ):
                dual = False
    details["partial_zeta_dual_route"] = {"verdict": dual, "k_values": list(config.k_values)}

    side_picks = [pair for n in config.frobenius for pair in ((Q_SIDE, n), (L_SIDE, n**config.p))]
    worst = math.inf
    for side, pick in side_picks:
        for k in config.k_values:
            nums, den = zeta.delta_numerators(level, side, pick, k)
            finite = [int_valuation(c, config.p) for c in nums.values() if c]
            if finite:
                worst = min(worst, min(finite) - int_valuation(den, config.p))
    # λ is a residue of Δ, so it exists only when every Δ is p-integral
    k_indep = worst >= 0 and all(
        pseudomeasure.lambda_approx(level, side, pick, k)
        == pseudomeasure.lambda_approx(level, side, pick, config.k_values[0])
        for side, pick in side_picks
        for k in config.k_values[1:]
    )
    details["lambda_k_independent"] = {"verdict": k_indep}
    details["delta_p_integral"] = {"verdict": worst >= 0, "min_valuation": worst}

    twist = True
    n = config.frobenius[0]
    for x in level.classes(Q_SIDE):
        eps_by_k = dict.fromkeys(config.k_values, LocallyConstantFn.delta_fn(level, Q_SIDE, x))
        if not zeta.delta_sum_integrality(level, Q_SIDE, n, eps_by_k) >= 0:
            twist = False
    details["twisted_sum_integral"] = {"verdict": twist}

    field = level.field
    ideals = enumerate_ideals(field, config.ideal_bound)
    counts = {}
    for ideal in ideals:
        counts[ideal.norm()] = counts.get(ideal.norm(), 0) + 1
    chars = dirichlet.characters_of(field.conductor, trivial_on=field.cosets[0])
    prims = [dirichlet.conductor_primitive(chi) for chi in chars]
    series = dirichlet.series_coefficients(prims, config.ideal_bound, ())
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
        for k in config.k_values:
            report = pseudomeasure.verify_transfer_congruence(level, n, k)
            runs.append(report)
    return {"verdict": all(r["verdict"] for r in runs), "runs": runs}


def _check_delta(config: ScenarioConfig, level) -> dict:
    runs = []
    verdict = True
    functions = _eps_functions(config, level)
    for n in config.frobenius:
        for k in config.k_values:
            for i, eps in enumerate(functions):
                v = pseudomeasure.verify_delta_congruence(level, n, eps, k)
                ok = v >= 1
                verdict = verdict and ok
                runs.append(
                    {"n": n, "k": k, "eps": i, "valuation": v, "verdict": ok}
                )
    return {"verdict": verdict, "runs": runs}


def _heal_totpos(cache_dir, field, by_trace) -> None:
    """Rewrite each trace's totpos file that is missing, stale or differs from the walk's ν."""
    for t, nus in by_trace.items():
        key = {"p": field.p, "fL": field.conductor, "t": t}
        records = [",".join(map(str, nu.coords)) for nu in nus]
        if cache.load_records(cache_dir, "totpos", key) != records:
            cache.store_records(cache_dir, "totpos", key, records)


def _check_qexp(config: ScenarioConfig, level, cache_dir) -> dict:
    runs = []
    verdict = True
    table = qexpansion.NuTable(level, config.qexp_trace_bound)
    if cache_dir is not None:
        _heal_totpos(cache_dir, level.field, table.by_trace)
    functions = _qexp_functions(config, level)
    for k in [k for k in config.k_values if k >= 2 and k % 2 == 0]:
        for i, eps in enumerate(functions):
            report = qexpansion.verify_qexp_congruence(
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
        values = {key: getattr(config, key) for key in config.__slots__}
        selected = ScenarioConfig(**{**values, "checks": tuple(checks)}).checks
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
            result = sigma.run_sigma_suite()
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
    """Write, or heal, the lattice-scan files the q-expansion check of a run compares with."""
    cache_dir = Path(cache_dir)
    files_before = {p.name for p in cache_dir.glob("*")} if cache_dir.exists() else set()
    field = config.level().field
    _heal_totpos(cache_dir, field, tot_pos_up_to(field, config.qexp_trace_bound))
    files_after = sorted(p.name for p in cache_dir.glob("*"))
    return {
        "directory": str(cache_dir),
        "files": files_after,
        "new_files": sorted(set(files_after) - files_before),
    }
