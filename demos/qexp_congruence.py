"""The q-expansion route to the congruence: a weight-6 difference divisible by 3.

E = thin_3(restrict(G_{2,eps})) − G_{6,eps∘ver} has rational coefficients
E(mu) = Σ_{tr nu = 3·mu} c_L(nu) − c_Q(mu); the claim is that every
non-constant one is divisible by 3.  The verification recomputes each
coefficient from an independently enumerated ideal pool and decomposes the
contributing (ideal, nu) pairs into conjugation orbits: moved orbits
contribute 3·(one term), fixed pairs pair off against the base series up to a
Fermat-quotient defect, so E(mu) = moved sum + defect whenever the identity
holds.

Run with:  python3 demos/qexp_congruence.py
"""

from pmcong.levels import L_SIDE, LocallyConstantFn, scenario_level
from pmcong.qexpansion import verify_qexp_congruence


def main() -> None:
    level = scenario_level(3, 7, (3, 7), 2)
    eps = LocallyConstantFn.constant_fn(level, L_SIDE, 1)

    report = verify_qexp_congruence(level, eps, 2, 8)
    print(f"E: weight {report['weight_out']}, constant term {report['constant_term']}")
    for mu, book in report["bookkeeping"].items():
        c = book["moved_sum"] + book["fermat_defect"]
        print(f"  E({mu}) = {c}" + ("" if c == 0 else f"  = 3 · {c / 3}"))

    print(f"\nverdict: {report['verdict']}  (routes agree: {report['routes_agree']})")
    print("orbit bookkeeping per index:")
    for mu, book in report["bookkeeping"].items():
        print(
            f"  mu={mu}: {book['pairs']} pairs | {book['moved_orbits']} moved orbits "
            f"sum {book['moved_sum']} | {book['fixed_pairs']} fixed pairs, "
            f"defect {book['fermat_defect']} | identity {book['identity_holds']}"
        )

if __name__ == "__main__":
    main()
