from math import gcd

import pytest

from pmcong.units import divisors, factorize, is_prime, parse_int_list, unit_group


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            for m in range(n * n, limit + 1, n):
                flags[m] = False
    return flags


def test_is_prime_against_sieve():
    flags = sieve(5000)
    for n in range(0, 5001):
        assert is_prime(n) == flags[n]


def test_factorize_reconstructs_and_divisors_complete():
    for n in range(1, 2001):
        factors = factorize(n)
        product = 1
        for q, e in factors.items():
            assert is_prime(q)
            assert e >= 1
            product *= q**e
        assert product == n
        expected = sorted(d for d in range(1, n + 1) if n % d == 0)
        assert sorted(divisors(n)) == expected


def test_unit_group_structure_exhaustive():
    # generators really generate, orders are right, dlog inverts
    for n in range(1, 80):
        group = unit_group(n)
        units = [x for x in range(n) if gcd(x, n) == 1] if n > 1 else [0]
        assert sorted(group.elements) == units
        assert len(group.elements) == len(units)
        seen = set()
        for element in group.elements:
            logs = group.dlog(element)
            rebuilt = 1 % n
            for g, d in zip(group.generators, logs):
                rebuilt = (rebuilt * pow(g, d, n)) % n if n > 1 else 0
            assert rebuilt == element
            assert tuple(d % o for d, o in zip(logs, group.orders)) == tuple(logs)
            seen.add(tuple(logs))
        assert len(seen) == len(units)
        order_product = 1
        for o in group.orders:
            order_product *= o
        assert order_product == len(units)


def test_unit_group_exponent_annihilates():
    for n in (2, 7, 9, 12, 35, 63, 64, 100, 189):
        group = unit_group(n)
        for x in group.elements:
            assert pow(x, group.exponent, n) == 1 % n


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3,7", (3, 7)),
        ("3 7", (3, 7)),
        (" 3, 7 ,11\t13\n", (3, 7, 11, 13)),
        ("3,,7", (3, 7)),
        ("-2, 5", (-2, 5)),
        ("", ()),
        ("  ", ()),
        (",", ()),
    ],
)
def test_parse_int_list(text, expected):
    assert parse_int_list(text) == expected


def test_parse_int_list_rejects_other_separators():
    with pytest.raises(ValueError):
        parse_int_list("3;7")
