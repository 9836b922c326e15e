"""pmcong benchmark: time to a verified verdict, one fresh `pmcong run` per sample.

Usage (from the repository root)::

    python3 bench/run.py --workload desk-a2-cold --seed 0 --seconds 40 --trace 0

Closed loop, one client: a single benchmark process starts one ``pmcong``
subprocess at a time and starts the next only when the previous one exited.
Every sample is a fresh interpreter, because the package memoizes heavily
in-process and users pay the cold cost on every ``pmcong run``.

``--trace 0`` repeats (set-up, run) until ``--seconds`` is spent and reports
the end-to-end metrics as medians.  ``--trace 1`` makes one untraced and one
traced run (see ``tracer.py``) and reports per-layer metrics.  Every report
is checked: exit 0, ``overall: PASS``, and a canonical digest equal to the
reference (seed 0) or to the other runs of the seed.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
a full record, with the machine it ran on, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from scenarios import WORKLOADS, Workload, scenario_ini

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# Every subprocess must end well inside the 180 s an invocation may take.
_DEADLINE_S = 150.0

END_TO_END = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CHECKS = ("crosscheck", "transfer", "delta", "qexp", "sigma")

# Per-layer metric -> unit.  `*_s` is self time unless named `*_incl_s`.
PER_LAYER = {
    "harness.startup_s": "s",
    "harness.config_s": "s",
    "harness.report_s": "s",
    **{f"harness.check.{c}_s": "s" for c in CHECKS},
    "levels.setup_s": "s",
    "numberfield.field_setup_s": "s",
    "numberfield.totpos_s": "s",
    "numberfield.totpos_calls": "count",
    "numberfield.nu_count": "count",
    "numberfield.ideals_s": "s",
    "numberfield.ideals_calls": "count",
    "numberfield.ideals_count": "count",
    "numberfield.factor_s": "s",
    "numberfield.factor_calls": "count",
    "numberfield.factor_distinct_ratio": "ratio",
    "numberfield.split_type_s": "s",
    "numberfield.split_type_calls": "count",
    "numberfield.split_type_distinct_ratio": "ratio",
    "numberfield.char_poly_s": "s",
    "numberfield.char_poly_calls": "count",
    "cache.load_s": "s",
    "cache.load_calls": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.store_s": "s",
    "cache.store_calls": "count",
    "cache.bytes_written": "bytes",
    "dirichlet.l_value_s": "s",
    "dirichlet.l_value_calls": "count",
    "dirichlet.bernoulli_s": "s",
    "dirichlet.series_s": "s",
    "cyclotomic.add_calls": "count",
    "cyclotomic.mul_root_calls": "count",
    "zeta.hurwitz_s": "s",
    "zeta.hurwitz_calls": "count",
    "zeta.characters_s": "s",
    "zeta.characters_calls": "count",
    "zeta.delta_s": "s",
    "pseudomeasure.lambda_s": "s",
    "pseudomeasure.lambda_calls": "count",
    "pseudomeasure.transfer_s": "s",
    "pseudomeasure.delta_s": "s",
    "groupring.same_ring_calls": "count",
    "qexpansion.verify_incl_s": "s",
    "qexpansion.self_s": "s",
    "qexpansion.eisenstein_l_s": "s",
    "qexpansion.eisenstein_q_s": "s",
    "qexpansion.calls": "count",
    "sigma.suite_incl_s": "s",
    "sigma.galois_setups": "count",
    "sigma.galois_setup_s": "s",
    "sigma.coset_transfer_calls": "count",
    "sigma.smith_calls": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot measure in this checkout."""


# -- machine record -------------------------------------------------------------


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": _loadavg(),
    }


# -- subprocesses ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PMCONG_CACHE_DIR", None)  # a caller's cache must not leak in
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list[str], cwd: Path, timeout: float) -> dict:
    """Run one subprocess to completion; wall, CPU and peak RSS of that child."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
        "timed_out": killed.is_set(),
        "last_line": _last_line(cwd / "stdout.txt"),
    }


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _remaining(started: float) -> float:
    return _DEADLINE_S - (time.perf_counter() - started)


# -- set-up ---------------------------------------------------------------------


_VALIDATE = (
    "import sys; from pmcong.harness import ScenarioConfig; "
    "ScenarioConfig.from_ini(sys.argv[1])"
)


def set_up(workload: Workload, seed: int, workdir: Path, started: float) -> dict:
    """Write the scenario, have the program accept it, and prepare the cache.

    The cache directory is new for every run: empty for a cold workload, and
    filled by ``pmcong cache-warm`` for a warm one, so one run's writes or
    heals never feed the next.
    """
    begin = time.perf_counter()
    workdir.mkdir(parents=True)
    ini = workdir / "scenario.ini"
    ini.write_text(scenario_ini(workload, seed), encoding="utf-8")
    checked = run_child([sys.executable, "-c", _VALIDATE, str(ini)], workdir, _remaining(started))
    if checked["exit_code"] != 0:
        raise BenchError(f"the program rejects the generated scenario: {workdir / 'stderr.txt'}")
    cache = None
    if workload.cache != "none":
        cache = workdir / "cache"
        cache.mkdir()
    if workload.cache == "warm":
        warmed = run_child(
            [sys.executable, "-m", "pmcong.cli", "cache-warm", "--config", str(ini), "--cache-dir", str(cache)],
            workdir,
            _remaining(started),
        )
        if warmed["exit_code"] != 0:
            raise BenchError(f"pmcong cache-warm failed: {workdir / 'stderr.txt'}")
    return {"setup_s": time.perf_counter() - begin, "ini": ini, "cache": cache}


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


# -- correctness ----------------------------------------------------------------


def report_digest(path: Path) -> str | None:
    """SHA-256 of the report without `timings`/`metrics`, keys sorted."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    report.pop("timings", None)
    report.pop("metrics", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_digest(workload: Workload, seed: int) -> str | None:
    if seed != 0:
        return None
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if workload.name not in references:
        raise BenchError(f"no reference digest for {workload.name} in {REFERENCE}")
    return references[workload.name]


def failure_of(sample: dict, expected: str | None) -> str | None:
    """Why a run does not count as a verified verdict, or None when it does."""
    if sample["timed_out"]:
        return "timed out"
    if sample["exit_code"] != 0:
        return f"exit code {sample['exit_code']}"
    if sample["last_line"] != "overall: PASS":
        return f"summary {sample['last_line']!r}"
    if sample["digest"] is None:
        return "no report"
    if expected is not None and sample["digest"] != expected:
        return "report digest differs from the reference"
    return None


# -- one measured run -----------------------------------------------------------


def measured_run(workload: Workload, seed: int, workdir: Path, started: float, traced_to: Path | None = None) -> dict:
    """Set up, then run `pmcong run` once (traced when `traced_to` is given)."""
    prepared = set_up(workload, seed, workdir, started)
    report = workdir / "report.json"
    cli = ["run", "--config", str(prepared["ini"]), "--json-out", str(report)]
    if prepared["cache"] is not None:
        cli += ["--cache-dir", str(prepared["cache"])]
    if traced_to is None:
        argv = [sys.executable, "-m", "pmcong.cli"] + cli
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(traced_to), workdir.name] + cli
    cache_before = _dir_bytes(prepared["cache"])
    sample = run_child(argv, workdir, _remaining(started))
    sample["setup_s"] = prepared["setup_s"]
    sample["cache_bytes_written"] = _dir_bytes(prepared["cache"]) - cache_before
    sample["digest"] = report_digest(report)
    try:
        timings = json.loads(report.read_text(encoding="utf-8")).get("timings", {})
    except (OSError, ValueError):
        timings = {}
    sample["timings"] = {name: float(value) for name, value in timings.items()}
    return sample


def _judge(samples: list[dict], expected: str | None) -> None:
    """Mark each sample's failure; without a reference the first passing run is it."""
    for sample in samples:
        sample["failure"] = failure_of(sample, expected)
        if expected is None and sample["failure"] is None:
            expected = sample["digest"]


# -- trace 0: end-to-end metrics ------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float, rundir: Path, started: float) -> tuple[list[dict], dict]:
    budget = min(float(seconds), _DEADLINE_S - 30.0)
    samples = []
    while True:
        begin = time.perf_counter()
        samples.append(measured_run(workload, seed, rundir / f"run{len(samples)}", started))
        shutil.rmtree(rundir / f"run{len(samples) - 1}")
        took = time.perf_counter() - begin
        if time.perf_counter() - started + took > budget:
            break
    _judge(samples, reference_digest(workload, seed))
    ok = [s for s in samples if s["failure"] is None] or samples
    metrics = {
        "verify_s": statistics.median(s["wall_s"] for s in ok),
        "cpu_s": statistics.median(s["cpu_s"] for s in ok),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
    }
    return samples, metrics


# -- trace 1: per-layer metrics -------------------------------------------------


def span_totals(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time and self time (minus child spans)."""
    starts, ends = spans["span_start"], spans["span_end"]
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for i, parent in enumerate(spans["span_parent"]):
        if parent >= 0:
            covered[parent] += durations[i]
    totals = {name: {"calls": 0, "incl": 0.0, "self": 0.0} for name in spans["names"]}
    for i, name_idx in enumerate(spans["span_name"]):
        entry = totals[spans["names"][name_idx]]
        entry["calls"] += 1
        entry["incl"] += durations[i]
        entry["self"] += durations[i] - covered[i]
    return totals


def startup_seconds(rundir: Path, started: float, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter that imports `pmcong.cli`."""
    probe = rundir / "startup"
    probe.mkdir()
    times = []
    for _ in range(repeats):
        sample = run_child([sys.executable, "-c", "import pmcong.cli"], probe, _remaining(started))
        if sample["exit_code"] != 0:
            raise BenchError("importing pmcong.cli failed")
        times.append(sample["wall_s"])
    return statistics.median(times)


def layer_metrics(spans: dict, traced: dict, untraced: dict, startup_s: float) -> dict[str, float]:
    totals = span_totals(spans)
    counts = spans["counts"]

    def self_s(name):
        return totals[name]["self"]

    def calls(name):
        return totals[name]["calls"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    load_calls = calls("cache.load")
    misses = counts["cache_misses"]
    m = {
        "harness.startup_s": startup_s,
        "harness.config_s": self_s("harness.config"),
        "harness.report_s": self_s("harness.report"),
        **{f"harness.check.{c}_s": untraced["timings"].get(c, 0.0) for c in CHECKS},
        "levels.setup_s": self_s("levels.setup"),
        "numberfield.field_setup_s": self_s("numberfield.field_setup"),
        "numberfield.totpos_s": self_s("numberfield.totpos"),
        "numberfield.totpos_calls": calls("numberfield.totpos"),
        "numberfield.nu_count": counts["nu_count"],
        "numberfield.ideals_s": self_s("numberfield.ideals"),
        "numberfield.ideals_calls": calls("numberfield.ideals"),
        "numberfield.ideals_count": counts["ideals_count"],
        "numberfield.factor_s": self_s("numberfield.factor"),
        "numberfield.factor_calls": calls("numberfield.factor"),
        "numberfield.factor_distinct_ratio": ratio(
            counts["numberfield.factor.distinct"], calls("numberfield.factor")
        ),
        "numberfield.split_type_s": self_s("numberfield.split_type"),
        "numberfield.split_type_calls": calls("numberfield.split_type"),
        "numberfield.split_type_distinct_ratio": ratio(
            counts["numberfield.split_type.distinct"], calls("numberfield.split_type")
        ),
        "numberfield.char_poly_s": self_s("numberfield.char_poly"),
        "numberfield.char_poly_calls": calls("numberfield.char_poly"),
        "cache.load_s": self_s("cache.load"),
        "cache.load_calls": load_calls,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(load_calls - misses, load_calls),
        "cache.store_s": self_s("cache.store"),
        "cache.store_calls": calls("cache.store"),
        "cache.bytes_written": traced["cache_bytes_written"],
        "dirichlet.l_value_s": self_s("dirichlet.l_value"),
        "dirichlet.l_value_calls": calls("dirichlet.l_value"),
        "dirichlet.bernoulli_s": self_s("dirichlet.bernoulli"),
        "dirichlet.series_s": self_s("dirichlet.series"),
        "cyclotomic.add_calls": counts["cyclotomic.add"],
        "cyclotomic.mul_root_calls": counts["cyclotomic.mul_root"],
        "zeta.hurwitz_s": self_s("zeta.hurwitz"),
        "zeta.hurwitz_calls": calls("zeta.hurwitz"),
        "zeta.characters_s": self_s("zeta.characters"),
        "zeta.characters_calls": calls("zeta.characters"),
        "zeta.delta_s": self_s("zeta.delta"),
        "pseudomeasure.lambda_s": self_s("pseudomeasure.lambda"),
        "pseudomeasure.lambda_calls": calls("pseudomeasure.lambda"),
        "pseudomeasure.transfer_s": self_s("pseudomeasure.transfer"),
        "pseudomeasure.delta_s": self_s("pseudomeasure.delta"),
        "groupring.same_ring_calls": counts["groupring.same_ring"],
        "qexpansion.verify_incl_s": totals["qexpansion.verify"]["incl"],
        "qexpansion.self_s": self_s("qexpansion.verify"),
        "qexpansion.eisenstein_l_s": self_s("qexpansion.eisenstein_l"),
        "qexpansion.eisenstein_q_s": self_s("qexpansion.eisenstein_q"),
        "qexpansion.calls": calls("qexpansion.verify"),
        "sigma.suite_incl_s": totals["sigma.suite"]["incl"],
        "sigma.galois_setups": calls("sigma.galois_setup"),
        "sigma.galois_setup_s": self_s("sigma.galois_setup"),
        "sigma.coset_transfer_calls": counts["sigma.coset_transfer"],
        "sigma.smith_calls": counts["sigma.smith"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.coverage": (startup_s + sum(t["self"] for t in totals.values())) / traced["wall_s"],
    }
    assert set(m) == set(PER_LAYER), "every per-layer metric is reported"
    return m


def per_layer(workload: Workload, seed: int, rundir: Path, started: float) -> tuple[list[dict], dict]:
    untraced = measured_run(workload, seed, rundir / "untraced", started)
    spans_path = rundir / "spans.json"
    traced = measured_run(workload, seed, rundir / "traced", started, traced_to=spans_path)
    samples = [untraced, traced]
    _judge(samples, reference_digest(workload, seed))
    if traced["digest"] != untraced["digest"] and traced["failure"] is None:
        traced["failure"] = "traced report differs from the untraced one"
    if any(s["failure"] for s in samples):
        return samples, {}
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return samples, layer_metrics(spans, traced, untraced, startup_seconds(rundir, started))


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "pmcong" / "cli.py").is_file():
        print(f"pmcong sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_record()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    rundir = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.trace:
            samples, metrics = per_layer(workload, args.seed, rundir, started)
            units = PER_LAYER
        else:
            samples, metrics = end_to_end(workload, args.seed, args.seconds, rundir, started)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        machine["loadavg_end"] = _loadavg()

    failed = sum(1 for s in samples if s["failure"])
    for s in samples:
        if s["failure"]:
            print(f"failed run: {s['failure']}")
    print(f"{tag}: {len(samples)} runs, {failed} failed, error_rate {failed / len(samples):g}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={len(samples)}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, why=workload.why, seed=args.seed, machine=machine)
    record["samples"] = samples
    record["error_rate"] = failed / len(samples)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if args.trace and (rundir / "spans.json").exists():
        shutil.move(str(rundir / "spans.json"), results / f"{tag}-spans.json")
    shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
