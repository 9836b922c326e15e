"""Group rings over Z/m: convolution, pushforward, and structural equality.

Elements built over *distinct but identical* ring objects must interoperate —
a setup rebuilds its ring for each trace ideal — while rings that differ in
any structural way (modulus, carrier, group law) must stay apart.
"""

import pytest

from pmcong.groupring import GroupRing, GroupRingElement


def cyclic(n, modulus):
    return GroupRing(
        tuple(range(n)), lambda x, y: (x + y) % n, 0, modulus
    )


def test_ring_axioms_exhaustive_c6():
    ring = cyclic(6, 9)
    pool = [
        ring.zero(),
        ring.one(),
        ring.delta(3),
        ring.from_coeffs({0: 2, 1: 7, 5: 4}),
        ring.from_coeffs({2: 8, 4: 1}),
    ]
    for a in pool:
        for b in pool:
            assert a + b == b + a
            assert a * b == b * a  # the group is abelian
            for c in pool:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in pool:
        assert a + ring.zero() == a
        assert a * ring.one() == a
        assert (a - a).is_zero()
        assert -(-a) == a


def test_convolution_matches_naive_double_sum():
    ring = cyclic(5, 7)
    a = ring.from_coeffs({0: 1, 2: 3, 3: 6})
    b = ring.from_coeffs({1: 2, 4: 5})
    product = a * b
    for z in range(5):
        total = 0
        for x in range(5):
            for y in range(5):
                if (x + y) % 5 == z:
                    total += a.coefficient(x) * b.coefficient(y)
        assert product.coefficient(z) == total % 7


def test_delta_basis_and_support():
    ring = cyclic(4, 5)
    d = ring.delta(2)
    assert d.coefficient(2) == 1
    assert d.support() == (2,)
    assert ring.delta(1) * ring.delta(3) == ring.delta(0) == ring.one()
    scaled = d.scale(10)
    assert scaled.is_zero()  # 10 = 0 mod 5


def test_coefficients_always_reduced():
    ring = cyclic(3, 4)
    elt = ring.from_coeffs({0: 7, 1: -1, 2: 4})
    assert elt.coefficient(0) == 3
    assert elt.coefficient(1) == 3
    assert elt.coefficient(2) == 0
    assert elt.support() == (0, 1)


def test_map_group_pushforward_sums_fibers():
    ring = cyclic(6, 9)
    elt = ring.from_coeffs({0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 7})
    pushed = elt.map_group(lambda x: 2 * x % 6)
    assert pushed.coefficient(0) == (1 + 4) % 9
    assert pushed.coefficient(2) == (2 + 5) % 9
    assert pushed.coefficient(4) == (3 + 7) % 9
    assert pushed.support() == (0, 2, 4)


def test_map_group_ring_hom_for_group_hom():
    ring = cyclic(6, 9)
    hom = lambda x: 2 * x % 6
    a = ring.from_coeffs({1: 2, 4: 7})
    b = ring.from_coeffs({2: 5, 3: 1})
    assert (a * b).map_group(hom) == a.map_group(hom) * b.map_group(hom)


def test_rebuilt_rings_interoperate():
    # same data, different objects: equality and arithmetic must both work
    a = cyclic(6, 9).from_coeffs({1: 2})
    b = cyclic(6, 9).from_coeffs({1: 2})
    assert a == b
    assert hash(a) == hash(b)
    assert (a - b).is_zero()
    assert a * b == cyclic(6, 9).from_coeffs({2: 4})


def test_different_group_law_on_same_carrier_is_a_different_ring():
    add = GroupRing(tuple(range(5)), lambda x, y: (x + y) % 5, 0, 7)
    # same carrier {0..4}, same identity element label, different law:
    # y-coordinates relabeled by doubling (an isomorphic but distinct table)
    twisted = GroupRing(tuple(range(5)), lambda x, y: (x + 2 * y) % 5, 0, 7)
    assert not add.same_ring(twisted)
    with pytest.raises(ValueError):
        add.delta(1) + twisted.delta(1)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        cyclic(4, 5).one() + cyclic(4, 7).one()
    with pytest.raises(ValueError):
        GroupRing((0, 1), lambda x, y: (x + y) % 2, 0, 1)


def test_multiplicative_unit_group_ring():
    # the group the package actually uses: units mod 9 under multiplication
    elements = tuple(x for x in range(9) if x % 3)
    ring = GroupRing(elements, lambda x, y: (x * y) % 9, 1, 27)
    g = ring.delta(2)
    power = ring.one()
    seen = [power]
    for _ in range(5):
        power = power * g
        seen.append(power)
    assert power == ring.delta(2**5 % 9)
    total = seen[0]
    for elt in seen[1:]:
        total = total + elt
    assert sorted(total.support()) == sorted(elements)
