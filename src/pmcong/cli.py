"""Command-line front end.

Verbs:

* ``pmcong run`` — execute every check named in the configuration.
* ``pmcong verify transfer|delta|qexp`` — run a single congruence check.
* ``pmcong crosscheck`` — engine consistency checks (dual zeta routes,
  k-independence, integrality, ideal counts).
* ``pmcong sigma`` — the symbolic group-theory suite (configuration-free).
* ``pmcong zeta`` — print exact partial zeta values at a level.
* ``pmcong cache-warm`` — fill the lattice-scan cache for a scenario.

Exit status is 0 exactly when every executed check reports a true verdict;
configuration errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigInvalid,
    ScenarioConfig,
    cache_warm,
    jsonable,
    run_scenario,
)
from .levels import L_SIDE, Q_SIDE, zeta_level
from .sigma import run_sigma_suite
from .units import parse_int_list
from .zeta import partial_zeta

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="scenario INI file (defaults to the bundled desk scenario)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the checked lattice-scan cache (default: none, caching off)",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        help="write the full report as JSON to this file",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcong",
        description="Exact verification of transfer congruences between "
        "finite-level pseudomeasures.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute every configured check")
    _add_common(run)

    verify = sub.add_parser("verify", help="run a single congruence check")
    verify.add_argument(
        "check",
        choices=("transfer", "delta", "qexp"),
        help="which congruence to verify",
    )
    _add_common(verify)

    cross = sub.add_parser("crosscheck", help="engine consistency checks")
    _add_common(cross)

    sigma = sub.add_parser("sigma", help="symbolic group-theory suite")
    sigma.add_argument("--json-out", type=Path, default=None)

    zeta = sub.add_parser("zeta", help="print exact partial zeta values")
    zeta.add_argument("--modulus", type=int, required=True)
    zeta.add_argument("--k", type=int, required=True)
    zeta.add_argument("--side", choices=(Q_SIDE, L_SIDE), default=Q_SIDE)
    zeta.add_argument(
        "--s-primes",
        type=parse_int_list,
        default=(),
        help="comma-separated primes whose Euler factors are removed",
    )
    zeta.add_argument("--p", type=int, default=None, help="degree of the extension side")
    zeta.add_argument(
        "--conductor", type=int, default=None, help="conductor of the extension side"
    )
    zeta.add_argument(
        "--cls", type=int, default=None, help="single class (default: whole table)"
    )

    warm = sub.add_parser("cache-warm", help="fill the lattice-scan cache")
    warm.add_argument("--config", type=Path, default=None)
    warm.add_argument("--cache-dir", type=Path, required=True)

    return parser


def _load_config(path: Path | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig.default()
    return ScenarioConfig.from_ini(path)


def _check_output_paths(args) -> None:
    """Reject --json-out and --cache-dir paths that could only fail after the checks ran.

    A write error at the end of a run would exit 1, the status of a false
    verdict, so these are configuration errors found before any check runs.
    """
    json_out = getattr(args, "json_out", None)
    if json_out is not None:
        if json_out.is_dir():
            raise ConfigInvalid(f"--json-out {json_out} is a directory")
        if not json_out.parent.is_dir():
            raise ConfigInvalid(f"--json-out {json_out}: {json_out.parent} is not a directory")
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        # the cache creates missing directories, so the nearest existing one decides
        existing = next((path for path in (cache_dir, *cache_dir.parents) if path.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigInvalid(f"--cache-dir {cache_dir}: {existing} is not a directory")


def _emit(report: dict, json_out: Path | None) -> None:
    if json_out is not None:
        json_out.write_text(json.dumps(jsonable(report), indent=2, sort_keys=True))


def _print_summary(report: dict) -> None:
    for name, chk in report["checks"].items():
        word = "PASS" if chk["verdict"] else "FAIL"
        print(f"check {name}: {word}")
    print(f"overall: {'PASS' if report['verdict'] else 'FAIL'}")


def _cmd_scenario(args, checks=None) -> int:
    config = _load_config(args.config)
    report = run_scenario(config, cache_dir=args.cache_dir, checks=checks)
    _emit(report, args.json_out)
    _print_summary(report)
    return 0 if report["verdict"] else 1


def _cmd_sigma(args) -> int:
    result = run_sigma_suite()
    _emit(result, args.json_out)
    _print_summary(result)
    return 0 if result["verdict"] else 1


def _cmd_zeta(args) -> int:
    if args.k < 1:
        raise ConfigInvalid("--k must be ≥ 1")
    try:  # zeta_level only checks and builds what the arguments describe
        level = zeta_level(args.modulus, args.s_primes, p=args.p, conductor=args.conductor)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(str(exc)) from None
    if args.side == L_SIDE and level.field is None:
        raise ConfigInvalid("the extension side needs --p and --conductor")
    if args.cls is not None and not level.has_class(args.side, args.cls % args.modulus):
        raise ConfigInvalid(f"--cls {args.cls} is not a class of side {args.side} mod {args.modulus}")
    classes = (args.cls,) if args.cls is not None else level.classes(args.side)
    for cls in classes:
        value = partial_zeta(level, args.side, cls % args.modulus, args.k)
        print(f"zeta(1-{args.k}; {cls} mod {args.modulus}) = {value}")
    return 0


def _cmd_cache_warm(args) -> int:
    config = _load_config(args.config)
    result = cache_warm(config, args.cache_dir)
    for name in result["files"]:
        marker = "new" if name in result["new_files"] else "kept"
        print(f"{marker}: {name}")
    print(f"cache directory: {result['directory']}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        if args.verb == "run":
            return _cmd_scenario(args)
        if args.verb == "verify":
            return _cmd_scenario(args, checks=(args.check,))
        if args.verb == "crosscheck":
            return _cmd_scenario(args, checks=("crosscheck",))
        if args.verb == "sigma":
            return _cmd_sigma(args)
        if args.verb == "zeta":
            return _cmd_zeta(args)
        if args.verb == "cache-warm":
            return _cmd_cache_warm(args)
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
