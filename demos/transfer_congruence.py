"""The central congruence: pull back the base pseudomeasure, compare mod 3.

At depth a=2 the comparison ring is Z/3[H] and the two sides agree on the
nose.  At depth a=3 the ring is Z/9[H]; the difference is no longer zero, but
every coefficient is divisible by 3 — membership in the trace ideal — and the
report carries a certificate alpha with 3·alpha = difference.

Run with:  python3 demos/transfer_congruence.py
"""

from collections import Counter

from pmcong.levels import Q_SIDE, scenario_level
from pmcong.pseudomeasure import lambda_approx, verify_transfer_congruence


def main() -> None:
    for a in (2, 3):
        level = scenario_level(3, 7, (3, 7), a)
        lam = lambda_approx(level, Q_SIDE, 2, 2)
        print(f"depth a={a}: modulus {level.modulus}, "
              f"lambda lives in Z/{level.p**a}[{len(lam)} classes]")
        print(f"  first coefficients: "
              + ", ".join(f"c({x})={lam[x]}" for x in (1, 2, 4, 5)))

        report = verify_transfer_congruence(level, 2, 2)
        histogram = Counter(report["difference"].values())
        print(f"  comparison ring Z/{report['comparison_modulus']}"
              f"[{len(report['difference'])} subgroup classes]")
        print(f"  difference histogram: {dict(sorted(histogram.items()))}")
        print(f"  verdict: {report['verdict']}")
        cert = report["certificate"]
        if cert is not None and any(cert.values()):
            print(f"  certificate alpha (3·alpha = difference): {cert}")
        print()


if __name__ == "__main__":
    main()
