"""Benchmark workloads and the seeded scenario generator.

Each workload is one `[scenario]` INI file plus a cache policy.  The seed
only draws the two Frobenius picks, as units modulo the workload's modulus;
seed 0 reproduces the bundled picks ``2, 5``.  The generated INI is the only
input the program receives.
"""

from __future__ import annotations

import random
from math import gcd

__all__ = ["WORKLOADS", "Workload", "frobenius_picks", "scenario_ini"]

_BUNDLED_PICKS = (2, 5)
_ALL_CHECKS = ("crosscheck", "transfer", "delta", "qexp", "sigma")


class Workload:
    """A fixed scenario of the desk field (p=3, conductor 7, S={3,7}).

    `cache` is "cold" (empty cache directory), "warm" (filled by
    ``pmcong cache-warm``) or "none" (no cache directory).
    """

    def __init__(self, name: str, a: int, checks: tuple[str, ...], cache: str, why: str):
        self.name = name
        self.a = a
        self.checks = checks
        self.cache = cache
        self.why = why

    @property
    def modulus(self) -> int:
        return 3**self.a * 7


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-a2-cold",
            a=2,
            checks=_ALL_CHECKS,
            cache="cold",
            why="the everyday pmcong run (bundled scenario, empty cache): "
            "qexp and the sigma-suite dominate; every enumeration is computed "
            "and written to the cache",
        ),
        Workload(
            "desk-a3-warm",
            a=3,
            checks=_ALL_CHECKS,
            cache="warm",
            why="depth 3 (ring Z/9) with a cache filled by cache-warm: the read "
            "side of the cache, the nonzero-difference certificate and a "
            "visible character route",
        ),
        Workload(
            "routes-a3",
            a=3,
            checks=("crosscheck", "transfer", "delta"),
            cache="none",
            why="depth 3 without qexp and sigma: the dual zeta routes dominate, "
            "so a qexp, sigma or cache change must show no change here",
        ),
    )
}


def frobenius_picks(workload: Workload, seed: int) -> tuple[int, int]:
    """Two distinct units modulo the workload's modulus, drawn from `seed`."""
    if seed == 0:
        return _BUNDLED_PICKS
    m = workload.modulus
    # 1 is excluded: the identity pick makes every Δ vanish and checks nothing
    units = [n for n in range(2, m) if gcd(n, m) == 1]
    return tuple(random.Random(f"{workload.name}:{seed}").sample(units, 2))


def scenario_ini(workload: Workload, seed: int) -> str:
    """The `[scenario]` INI text the program receives for this seed."""
    picks = ", ".join(map(str, frobenius_picks(workload, seed)))
    return (
        "[scenario]\n"
        "p = 3\n"
        "conductor = 7\n"
        "s_primes = 3, 7\n"
        f"a = {workload.a}\n"
        "k_values = 2, 4\n"
        f"frobenius = {picks}\n"
        "qexp_bound = 12\n"
        "ideal_bound = 300\n"
        f"checks = {', '.join(workload.checks)}\n"
        "scaled = false\n"
        "eps_basis = even_orbit_indicators\n"
    )
