"""Exact partial zeta values, two independent routes, and a field-level sum.

Run with:  python3 demos/zeta_values.py
"""

from fractions import Fraction

from pmcong.dirichlet import characters_of, l_value_neg
from pmcong.levels import L_SIDE, Q_SIDE, zeta_level
from pmcong.zeta import partial_zeta, partial_zeta_q_characters


def main() -> None:
    # Base side: the 36 classes coprime to 63, Euler factors at 3 and 7 removed.
    level = zeta_level(63)
    print("zeta_S(1-2; x mod 63) for the first few classes, both routes:")
    for x in (1, 2, 4, 62):
        hurwitz = partial_zeta(level, Q_SIDE, x, 2)
        characters = partial_zeta_q_characters(level, x, 2)
        marker = "==" if hurwitz == characters else "!="
        print(f"  x={x:3d}: {hurwitz}  {marker}  {characters}")

    total = sum((partial_zeta(level, Q_SIDE, x, 2) for x in level.classes(Q_SIDE)),
                Fraction(0))
    print(f"sum over all 36 classes  = {total}")

    # Extension side: the two norm classes of the cubic field of conductor 7.
    ext = zeta_level(7, p=3, conductor=7)
    values = {cls: partial_zeta(ext, L_SIDE, cls, 2) for cls in ext.classes(L_SIDE)}
    print("\nextension side, conductor 7, S = {7}:")
    for cls, value in values.items():
        print(f"  zeta_S(-1; class {cls}) = {value}")
    total = sum(values.values(), Fraction(0))
    print(f"  sum = {total}")

    # Independent check: the same number as a product of L-values.
    product = None
    for chi in characters_of(7, trivial_on=(1, 6)):
        factor = l_value_neg(chi, 2, (7,))
        product = factor if product is None else product * factor
    print(f"  product of the three L-values = {product.rational_part()}")


if __name__ == "__main__":
    main()
