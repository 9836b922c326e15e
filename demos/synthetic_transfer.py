"""Synthetic group-theory side: transfers, trace ideals, conjugation identity.

Everything here works in plain finite group rings — no number theory — which
is what makes the membership claims checkable by exhaustive enumeration.

Run with:  python3 demos/synthetic_transfer.py
"""

from pmcong.sigma import (
    CATALOG,
    TraceIdeal,
    coset_transfer,
    semidirect_setup,
    verify_conjugation_identity,
)


def main() -> None:
    # F21 = Z/7 ⋊ C3: the smallest setup with a genuinely moving action.
    setup = semidirect_setup(**CATALOG["f21"])
    print(f"{setup!r}; orbit sizes {[len(o) for o in setup.orbits()]}")
    sample = list(setup.group.elements)[:5]
    print("ver on a few elements:", {g: coset_transfer(setup, g) for g in sample})

    ideal = TraceIdeal(setup)
    ring = ideal.ring
    fixed_point = setup.group.identity
    inside = ring.delta(fixed_point).scale(3)
    outside = ring.delta(fixed_point)
    for name, elt in (("3·delta_e", inside), ("delta_e", outside)):
        verdict, cert = ideal.membership(elt)
        print(f"membership({name}) = {verdict}"
              + (f", certificate {cert}" if cert is not None else ""))

    # The conjugation-element identity on the two catalog setups with fibers.
    for name in ("a4", "two_fiber_48"):
        report = verify_conjugation_identity(semidirect_setup(**CATALOG[name]))
        print(f"\n{name}: fibers={report['fibers']}, labels={report['labels']}")
        print(f"  difference zero: {report['difference_is_zero']}")
        print(f"  difference: {report['difference']}")
        print(f"  in the trace ideal: {report['verdict']}")


if __name__ == "__main__":
    main()
