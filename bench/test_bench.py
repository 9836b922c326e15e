"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench

They start real benchmark invocations, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from pmcong.harness import ScenarioConfig  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from scenarios import WORKLOADS, frobenius_picks, scenario_ini  # noqa: E402

# Metrics that count work; they must repeat exactly from run to run.
COUNTED = [n for n, unit in PER_LAYER.items() if unit in ("count", "bytes") or n.endswith("_ratio")]


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=200)


def metrics_of(done: subprocess.CompletedProcess) -> dict[str, float]:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def routes_traced():
    return [metrics_of(bench("routes-a3", trace=1)) for _ in range(2)]


@pytest.fixture(scope="module")
def warm_traced():
    return metrics_of(bench("desk-a3-warm", trace=1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_emits_accepted_scenarios(name, tmp_path):
    workload = WORKLOADS[name]
    assert frobenius_picks(workload, 0) == (2, 5)
    for seed in range(25):
        ini = tmp_path / f"s{seed}.ini"
        ini.write_text(scenario_ini(workload, seed))
        config = ScenarioConfig.from_ini(ini)
        picks = frobenius_picks(workload, seed)
        assert config.frobenius == picks == frobenius_picks(workload, seed)
        assert config.a == workload.a and config.checks == workload.checks
        assert len(set(picks)) == 2
        assert all(gcd(n, workload.modulus) == 1 for n in picks)


def test_end_to_end_reports_every_metric():
    metrics = metrics_of(bench("routes-a3", trace=0))
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_traced_counts_repeat_exactly(routes_traced):
    first, second = routes_traced
    assert set(first) == set(PER_LAYER)
    assert {n: first[n] for n in COUNTED} == {n: second[n] for n in COUNTED}


def test_cache_counters_are_consistent(routes_traced, warm_traced):
    for metrics in routes_traced + [warm_traced]:
        expected = metrics["cache.load_calls"] * (1 - metrics["cache.hit_ratio"])
        assert metrics["cache.misses"] == pytest.approx(expected)


def test_warm_cache_has_no_misses(warm_traced):
    assert warm_traced["cache.load_calls"] > 0
    assert warm_traced["cache.misses"] == 0
    assert warm_traced["cache.bytes_written"] == 0


def test_routes_workload_skips_qexp_and_sigma(routes_traced):
    for metrics in routes_traced:
        for name in COUNTED:
            if name.startswith(("sigma.", "qexpansion.")):
                assert metrics[name] == 0, name
        assert metrics["zeta.characters_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("routes-a3", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
