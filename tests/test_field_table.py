"""The accepted scenario space at a=2 below conductor 200, as checked tables.

There are 57 fields (p, f_L) with f_L < 200 prime and p an odd prime dividing
f_L − 1.  At a=2, with S = {p, f_L} and every check but σ (which reads no
scenario field):
- 11 are accepted, and all but (23, 47) pass `pmcong run` here;
- 35 are rejected because [O_L : Z[η_0]] > 1;
- 11 are rejected by the grid cap of the character transform.  The cap reads
  only the modulus, so it is checked before the field is built, and six of
  these fields would also fail the index check.
"""

import pytest

import pmcong.levels as levels
from pmcong.cli import main
from pmcong.levels import grid_cap_error
from pmcong.units import factorize, is_prime, unit_group

#: Accepted fields that pass `pmcong run`, with the `qexp_bound` each runs at.
PASSING = [
    pytest.param(3, 7, 6, id="3-7"),
    pytest.param(3, 13, 6, id="3-13"),
    pytest.param(3, 19, 6, id="3-19"),
    pytest.param(3, 37, 6, id="3-37"),
    pytest.param(3, 79, 6, id="3-79"),
    pytest.param(3, 97, 6, id="3-97"),
    pytest.param(3, 139, 6, id="3-139"),
    pytest.param(3, 163, 6, id="3-163"),
    pytest.param(5, 11, 6, id="5-11"),
    # the crosscheck alone takes about 2 s; at `qexp_bound` 3 the walk takes 30 s
    pytest.param(11, 23, 1, id="11-23", marks=pytest.mark.slow),
]

#: Accepted, but its crosscheck takes minutes and about 2 GB at a=2: it waits
#: on a grid cap that counts bits (ROADMAP item 3).
WAITING = [(23, 47)]

INDEX_REJECTED = [
    (7, 29), (3, 31), (5, 31), (5, 41), (3, 43), (7, 43), (13, 53), (3, 61), (5, 61),
    (3, 67), (11, 67), (5, 71), (7, 71), (3, 73), (13, 79), (11, 89), (5, 101), (3, 103),
    (3, 109), (7, 113), (3, 127), (7, 127), (5, 131), (13, 131), (17, 137), (3, 151),
    (5, 151), (3, 157), (13, 157), (3, 181), (5, 181), (5, 191), (3, 193), (7, 197),
    (3, 199),
]  # fmt: skip

#: Rejected by the grid cap; the last six fail the index check as well.
CAP_REJECTED = [
    (29, 59), (41, 83), (53, 107), (83, 167), (89, 179),
    (17, 103), (23, 139), (37, 149), (43, 173), (19, 191), (11, 199),
]  # fmt: skip

INDEX = "[O_L : Z[η_0]]"
CAP = "above the cap"


def _write_scenario(tmp_path, p, conductor, qexp_bound=6):
    picks = "2, 5" if p == 3 else "2, 3"
    ini = tmp_path / f"p{p}-f{conductor}.ini"
    ini.write_text(
        "[scenario]\n"
        f"p = {p}\nconductor = {conductor}\ns_primes = {p}, {conductor}\na = 2\n"
        f"k_values = 2, 4\nfrobenius = {picks}\nqexp_bound = {qexp_bound}\n"
        "ideal_bound = 300\nchecks = crosscheck, transfer, delta, qexp\n"
    )
    return str(ini)


def _assert_exit_2(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line naming the cause, and no traceback
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err


def test_the_tables_cover_every_field_below_conductor_200():
    fields = {
        (p, f)
        for f in range(3, 200)
        if is_prime(f)
        for p in factorize(f - 1)
        if p != 2
    }
    passing = {tuple(param.values[:2]) for param in PASSING}
    tables = [passing, set(WAITING), set(INDEX_REJECTED), set(CAP_REJECTED)]
    assert sum(map(len, tables)) == len(fields) == 57
    assert set().union(*tables) == fields


@pytest.mark.parametrize("p, conductor, qexp_bound", PASSING)
def test_accepted_field_passes_every_check(tmp_path, capsys, p, conductor, qexp_bound):
    assert main(["run", "--config", _write_scenario(tmp_path, p, conductor, qexp_bound)]) == 0
    printed = capsys.readouterr().out
    for check in ("crosscheck", "transfer", "delta", "qexp"):
        assert f"check {check}: PASS" in printed
    assert "overall: PASS" in printed


@pytest.mark.parametrize("p, conductor", INDEX_REJECTED + CAP_REJECTED[5:])
def test_index_rejected_field_exits_2(tmp_path, capsys, p, conductor):
    """The field alone (the base side of `pmcong zeta` builds it and runs no
    transform) fails the index check; the scenario at a=2 names the index,
    or the grid cap where that comes first."""
    field = ["--p", str(p), "--conductor", str(conductor)]
    _assert_exit_2(capsys, ["zeta", "--modulus", str(conductor), "--k", "2", *field], INDEX)
    named = CAP if (p, conductor) in CAP_REJECTED else INDEX
    _assert_exit_2(capsys, ["run", "--config", _write_scenario(tmp_path, p, conductor)], named)


@pytest.fixture
def nothing_built(monkeypatch):
    """Make building a field or a unit group fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("the grid cap must be checked before anything is built")

    monkeypatch.setattr(levels, "field_spec", never)
    monkeypatch.setattr(levels, "unit_group", never)


@pytest.mark.parametrize("p, conductor", CAP_REJECTED)
def test_grid_cap_rejects_before_the_field_is_built(tmp_path, capsys, nothing_built, p, conductor):
    _assert_exit_2(capsys, ["run", "--config", _write_scenario(tmp_path, p, conductor)], CAP)
    modulus = str(p * p * conductor)
    argv = ["zeta", "--modulus", modulus, "--k", "2", "--side", "L", "--p", str(p), "--conductor", str(conductor)]
    _assert_exit_2(capsys, argv, CAP)


def test_grid_cap_reads_the_unit_group_off_the_factorization(monkeypatch):
    """|G| and the exponent n, from φ and the factorization, against the unit
    group built element by element, powers of 2 included."""
    monkeypatch.setattr(levels, "_MAX_GRID_SLOTS", 0)  # so every grid is named
    for modulus in [*range(1, 300), 2**7 * 9, 2**3 * 5 * 7, 3**6 * 7]:
        group = unit_group(modulus)
        cells, slots = len(group.elements), group.exponent
        assert f"|G| · n = {cells} · {slots} = {cells * slots} slots" in grid_cap_error(modulus)
