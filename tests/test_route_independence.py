"""Route independence: the two sides of a dual route share no package code.

Every claim is reached by two independent routes, so a helper shared by both
sides would let one fault pass both of them.  Each side runs alone, after every
package `lru_cache` is cleared, with `sys.setprofile` recording the `pmcong`
functions it enters; the functions both sides enter must lie in an allowlist
that gives the reason for each entry.
"""

import os
import sys

import pmcong
from pmcong import dirichlet, numberfield, sigma, zeta
from pmcong.levels import scenario_level

PACKAGE_DIR = pmcong.__path__[0] + os.sep


def _entered(clear_caches, fn, *args) -> set[str]:
    """The `pmcong` functions that fn(*args) enters, as ``module.qualname``,
    with every package cache cleared first."""
    clear_caches()
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE_DIR):
            seen.add(code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return {f"{_module_of(code)}.{code.co_qualname}" for code in seen}


def _module_of(code) -> str:
    return code.co_filename[len(PACKAGE_DIR) : -len(".py")].replace(os.sep, ".")


#: Functions both the Hurwitz route and a character route may enter.
HURWITZ_CHARACTER_SHARED = {
    # B_k's coefficients are the statement's input, not a derived value: the
    # Hurwitz route evaluates B_k(a/f) and the character route sums B_k(a/f)
    # against χ(a), so both must read the same polynomial.
    "exact.bernoulli_poly": "the polynomial B_k is the common input",
    "exact.bernoulli_poly.<locals>.<genexpr>": "the coefficient loop of bernoulli_poly",
    "exact.bernoulli_number": "the coefficients of B_k are Bernoulli numbers",
    # LevelData is the question both routes answer: which classes, and the
    # lru_cache key of the level.
    "levels.LevelData.classes": "the classes both tables are indexed by",
    "levels.LevelData.key": "hashing the level for the route's lru_cache",
    "levels.LevelData.__hash__": "hashing the level for the route's lru_cache",
}


def test_hurwitz_and_character_routes_share_only_the_allowlist(fresh_caches):
    """At desk a=3, k=4: the Hurwitz table against each character side."""
    level = scenario_level(3, 7, (3, 7), 3)
    hurwitz = _entered(fresh_caches, zeta._q_table, level, 4)
    assert "zeta._q_table" in hurwitz
    for side in (zeta._q_table_characters, zeta._l_table):
        characters = _entered(fresh_caches, side, level, 4)
        assert f"zeta.{side.__name__}" in characters
        shared = hurwitz & characters
        assert shared <= HURWITZ_CHARACTER_SHARED.keys(), (
            f"{side.__name__} shares {sorted(shared - HURWITZ_CHARACTER_SHARED.keys())} "
            "with the Hurwitz route"
        )


#: Functions both the ideal enumeration and the Euler-product series may enter.
#: The two sides share no function today; an entry needs its reason, as above.
IDEAL_SERIES_SHARED: dict[str, str] = {}


def _series_side(field, bound):
    """The Euler-product side of the ideal-count crosscheck, as the harness runs it."""
    chars = dirichlet.characters_of(field.conductor, trivial_on=field.cosets[0])
    prims = [dirichlet.conductor_primitive(chi) for chi in chars]
    return dirichlet.series_coefficients(prims, bound, ())


def test_ideal_enumeration_and_series_share_only_the_allowlist(fresh_caches):
    """At desk a=2: the ideals of norm ≤ 300 against the coefficients of the
    product of the L-series of the characters trivial on the norm group."""
    field = scenario_level(3, 7, (3, 7), 2).field
    ideals = _entered(fresh_caches, numberfield.enumerate_ideals, field, 300)
    assert "numberfield.enumerate_ideals" in ideals
    series = _entered(fresh_caches, _series_side, field, 300)
    assert "dirichlet.series_coefficients" in series
    shared = ideals & series
    assert shared <= IDEAL_SERIES_SHARED.keys(), (
        f"the two sides share {sorted(shared - IDEAL_SERIES_SHARED.keys())}"
    )


#: Functions both the Smith-form solver and the closure walk of the σ-suite
#: may enter.
SMITH_CLOSURE_SHARED = {
    # The Σ-fixed vectors are the question both routes answer: the solver
    # refuses a query outside them, and the walk a sum outside them.
    "sigma.TraceIdeal._is_fixed_vector": "the fixed vectors are the domain of both routes",
}


def test_smith_form_and_closure_share_only_the_allowlist(fresh_caches):
    """In the f21 ring, (Z/9)[C_7] under x -> 2x: one membership query solved
    by the Smith form over Z/9 against the closure walk.  Both read the
    generators, the traces of the basis vectors, which the ideal computes
    once when it is built."""
    setup = sigma.semidirect_setup(**sigma.CATALOG["f21"])
    ideal = sigma.TraceIdeal(setup)
    smith = _entered(fresh_caches, ideal._solve, ideal.generators[1])
    assert "sigma.smith_normal_form" in smith
    walk = _entered(fresh_caches, sigma._trace_ideal_closure, ideal, 9 ** len(setup.orbits()))
    assert "sigma._trace_ideal_closure" in walk
    shared = smith & walk
    assert shared <= SMITH_CLOSURE_SHARED.keys(), (
        f"the two routes share {sorted(shared - SMITH_CLOSURE_SHARED.keys())}"
    )
