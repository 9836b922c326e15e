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
import os
import sys
import tempfile
from pathlib import Path

# sigma and zeta are the modules harness registers unexecuted (see its
# _register_lazily); their functions are read at call time
from .harness import (
    ConfigInvalid,
    ScenarioConfig,
    cache_warm,
    jsonable,
    run_scenario,
    sigma,
    zeta,
)
from .levels import L_SIDE, Q_SIDE, check_zeta_arguments, grid_cap_error, zeta_level

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
        help="directory of lattice-scan files; every scan still runs, and a file that "
        "differs from it is rewritten (default: none)",
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

    suite = sub.add_parser("sigma", help="symbolic group-theory suite")
    suite.add_argument("--json-out", type=Path, default=None)

    table = sub.add_parser("zeta", help="print exact partial zeta values")
    table.add_argument("--modulus", type=int, required=True)
    table.add_argument("--k", type=int, required=True)
    table.add_argument("--side", choices=(Q_SIDE, L_SIDE), default=Q_SIDE)
    table.add_argument("--p", type=int, default=None, help="degree of the extension side")
    table.add_argument(
        "--conductor", type=int, default=None, help="conductor of the extension side"
    )
    table.add_argument(
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
    Each directory must take a new file: the cache directory is created as
    the cache would create it, and removed again if it was missing.
    """
    json_out = getattr(args, "json_out", None)
    if json_out is not None:
        if json_out.is_dir():
            raise ConfigInvalid(f"--json-out {json_out} is a directory")
        if not json_out.parent.is_dir():
            raise ConfigInvalid(f"--json-out {json_out}: {json_out.parent} is not a directory")
        _probe_writable(json_out.parent, f"--json-out {json_out}")
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        # the cache creates missing directories, so the nearest existing one decides
        existing = next((path for path in (cache_dir, *cache_dir.parents) if path.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigInvalid(f"--cache-dir {cache_dir}: {existing} is not a directory")
        missing = [path for path in (cache_dir, *cache_dir.parents) if not path.exists()]
        try:
            _probe_writable(cache_dir, f"--cache-dir {cache_dir}", create=True)
        finally:
            for path in missing:  # deepest first
                try:
                    path.rmdir()
                except OSError:
                    break


def _probe_writable(directory: Path, named: str, create: bool = False) -> None:
    """Create (when asked) `directory`, then create and delete a file in it."""
    try:
        if create:
            directory.mkdir(parents=True, exist_ok=True)
        fd, probe = tempfile.mkstemp(dir=directory, prefix=".pmcong-probe-")
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        raise ConfigInvalid(f"{named}: {directory} is not writable ({exc.strerror or exc})") from None


def _emit(report: dict, json_out: Path | None) -> None:
    if json_out is not None:
        json_out.write_text(json.dumps(jsonable(report), indent=2, sort_keys=True, allow_nan=False))


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
    result = sigma.run_sigma_suite()
    _emit(result, args.json_out)
    _print_summary(result)
    return 0 if result["verdict"] else 1


def _cmd_zeta(args) -> int:
    if args.k < 1:
        raise ConfigInvalid("--k must be ≥ 1")
    # the arguments' own hypotheses, then the grid cap of the extension side,
    # which reads only the modulus, and only then the field and the unit group
    try:
        check_zeta_arguments(args.modulus, p=args.p, conductor=args.conductor)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    if args.side == L_SIDE:
        if args.conductor is None:
            raise ConfigInvalid("the extension side needs --p and --conductor")
        if grid_error := grid_cap_error(args.modulus):
            raise ConfigInvalid(grid_error)
    try:
        level = zeta_level(args.modulus, p=args.p, conductor=args.conductor)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(str(exc)) from None
    if args.cls is not None and not level.has_class(args.side, args.cls % args.modulus):
        raise ConfigInvalid(f"--cls {args.cls} is not a class of side {args.side} mod {args.modulus}")
    classes = (args.cls,) if args.cls is not None else level.classes(args.side)
    for cls in classes:
        value = zeta.partial_zeta(level, args.side, cls % args.modulus, args.k)
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
