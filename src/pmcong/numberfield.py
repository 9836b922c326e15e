"""Exact arithmetic in cyclic totally real fields of odd prime degree.

Supported fields L have prime degree p and prime conductor f_L ≡ 1 (mod p), so
the Gaussian periods η_0, …, η_{p−1} — coset sums of f_L-th roots of unity over
the index-p subgroup of (Z/f_L)^× — form an integral basis of o_L on which the
Galois group acts by cyclic shift.  All element arithmetic runs over the exact
integer multiplication table of the periods; norms, traces, characteristic
polynomials, prime splitting, principal-ideal factorization, and total
positivity are all decided exactly.

Floating point does two jobs here, and neither can drop a solution:
- It places the p + 1 points of the root certificate (_period_bounds).  The
  minimal polynomial of η_0 is evaluated exactly at them, and only sign
  alternation certifies the rational interval that holds every conjugate;
  floats that fail to separate the roots raise ArithmeticError.
- It drives the embedding prefilter inside enumerate_tot_pos_trace, which is
  conservative: a totally positive integer of trace t has every embedding
  ≥ 1/t^(p−1), far above the prefilter threshold and the accumulated rounding
  error, so no true solution is ever discarded.  Every candidate that
  survives the prefilter is accepted or rejected by the exact sign test on
  its characteristic polynomial.

Linear algebra is on integers.  The power matrix (whose determinant is the
index [o_L : Z[η_0]]) and the trace form each go through one fraction-free
Gauss–Jordan elimination (Gauss–Bareiss, _det_adj), which returns the
determinant and the adjugate: every division in it is exact.  A field with
index > 1 is refused after the first of the two.

Extension point: composite conductors would need a genuine maximal-order
computation and are out of scope; constructors reject them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import int_valuation, poly_eval, poly_eval_mod
from .units import factorize, is_prime, unit_group

__all__ = [
    "AbelianFieldSpec",
    "AlgebraicInt",
    "IdealFactored",
    "NotCoprime",
    "PrimeIdeal",
    "SplitData",
    "ZeroElement",
    "artin_symbol",
    "enumerate_ideals",
    "enumerate_tot_pos_trace",
    "factor_principal",
    "field_spec",
    "sigma_ideal",
    "split_type",
    "tot_pos_up_to",
]

# Largest trace for which the float prefilter margin is proven safe; see
# enumerate_tot_pos_trace.
_MAX_TRACE = 2000


class ZeroElement(ValueError):
    """Raised when an operation requires a nonzero field element."""


class NotCoprime(ValueError):
    """Raised when an ideal shares a prime with the reference modulus."""


# ---------------------------------------------------------------------------
# small exact linear algebra (p × p, p the degree of the field)


def _det_adj(rows) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of an integer matrix; the adjugate is None if singular.

    One fraction-free Gauss–Jordan elimination on [rows | I] (Gauss–Bareiss,
    Cohen §2.2): at step k every other row r becomes
    (d_k·r − r[k]·pivot row) / d_{k−1}, with d_k the pivot.  The division is
    exact, because each entry is then a minor of [rows | I], so every value
    stays an integer.  The last pivot is ±det and the right half ±adj, the
    sign being that of the row swaps.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            sign = -sign
        top = aug[col]
        d = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(d * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = d
    return sign * prev, [[sign * v for v in row[n:]] for row in aug]


def _newton_char_poly(power_sums: list[int], degree: int) -> tuple[int, ...]:
    """Monic characteristic polynomial from power sums s_1..s_degree.

    Returns ascending coefficients (a_0, …, a_{degree−1}, 1); the elementary
    symmetric functions are integers for algebraic integers, so each division
    by k in k·e_k = Σ (−1)^(i−1) e_{k−i} s_i is checked to be exact.
    """
    e = [1]
    for k in range(1, degree + 1):
        acc = 0
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * power_sums[i - 1]
            sign = -sign
        if acc % k:
            raise ArithmeticError("power sums of a non-integral element")
        e.append(acc // k)
    # coefficient of x^j is (−1)^(degree−j) e_{degree−j}
    return tuple(
        e[degree - j] if (degree - j) % 2 == 0 else -e[degree - j]
        for j in range(degree + 1)
    )


class AlgebraicInt:
    """An element of o_L in exact period coordinates."""

    __slots__ = ("spec", "coords", "_char_poly")

    def __init__(self, spec: "AbelianFieldSpec", coords: tuple[int, ...]):
        if len(coords) != spec.p:
            raise ValueError("coordinate count must equal the degree")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("AlgebraicInt is immutable")

    # -- ring structure -----------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraicInt(self.spec, tuple(a * other for a in self.coords))
        self._check(other)
        p = self.spec.p
        table = self.spec.structure
        out = [0] * p
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            row = table[i]
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                ab = a * b
                vec = row[j]
                for k in range(p):
                    out[k] += ab * vec[k]
        return AlgebraicInt(self.spec, tuple(out))

    __rmul__ = __mul__

    def _check(self, other: "AlgebraicInt") -> None:
        if self.spec is not other.spec:
            raise ValueError("elements of different fields")

    # -- invariants ----------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def trace(self) -> int:
        return -sum(self.coords)

    def char_poly(self) -> tuple[int, ...]:
        """Ascending coefficients of the degree-p characteristic polynomial.

        Computed on the first call and kept in a slot, so the total-positivity
        test of the lattice scan and the norm read by factor_principal share
        one computation.  The slot stays unset until then: construction costs
        nothing extra.
        """
        try:
            return self._char_poly
        except AttributeError:
            pass
        sums = [self.trace()]
        power = self
        for _ in range(self.spec.p - 1):
            power = power * self
            sums.append(power.trace())
        cp = _newton_char_poly(sums, self.spec.p)
        object.__setattr__(self, "_char_poly", cp)
        return cp

    def norm(self) -> int:
        cp = self.char_poly()
        # constant term is (−1)^p · norm and p is odd
        return -cp[0]

    def is_totally_positive(self) -> bool:
        """Exact verdict: all real embeddings positive.

        L is totally real, so the characteristic polynomial has only real
        roots, and all of them are positive iff every elementary symmetric
        function is strictly positive — equivalently the coefficients
        strictly alternate in sign.
        """
        if self.is_zero():
            return False
        cp = self.char_poly()
        degree = self.spec.p
        for j in range(degree):
            e_k = cp[j] if (degree - j) % 2 == 0 else -cp[j]
            if e_k <= 0:
                return False
        return True

    def sigma(self) -> "AlgebraicInt":
        """The chosen generator of Gal(L/Q): cyclic shift of the period basis."""
        p = self.spec.p
        out = [0] * p
        for i, c in enumerate(self.coords):
            out[(i + 1) % p] = c
        return AlgebraicInt(self.spec, tuple(out))

    def power_coords(self) -> tuple[int, ...]:
        """Integer coordinates with respect to 1, η_0, η_0², …, η_0^{p−1}."""
        mat = self.spec.period_in_power
        p = self.spec.p
        return tuple(sum(mat[i][j] * self.coords[j] for j in range(p)) for i in range(p))

    # -- plumbing -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraicInt)
            and self.spec.p == other.spec.p
            and self.spec.conductor == other.spec.conductor
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.conductor, self.coords))

    def __repr__(self) -> str:
        return f"AlgebraicInt{self.coords}"


class AbelianFieldSpec:
    """Precomputed exact data for L: periods, structure constants, splitting,
    and the box of the totally positive walk per unit trace."""

    def __init__(self, p: int, conductor: int):
        if not is_prime(p) or p == 2:
            raise ValueError("degree must be an odd prime")
        if not is_prime(conductor) or conductor % p != 1:
            raise ValueError("conductor must be a prime ≡ 1 mod degree")
        self.p = p
        self.conductor = conductor
        self._splits: dict[int, SplitData] = {}

        group = unit_group(conductor)
        if len(group.generators) != 1:
            raise ArithmeticError("(Z/f_L)^× must be cyclic")
        self.generator = group.generators[0]
        # coset i of the index-p subgroup = {x : dlog(x) ≡ i mod p}
        cosets: list[list[int]] = [[] for _ in range(p)]
        for x in group.elements:
            cosets[group.dlog(x)[0] % p].append(x)
        self.cosets = tuple(tuple(sorted(c)) for c in cosets)
        coset_of = {}
        for i, coset in enumerate(self.cosets):
            for x in coset:
                coset_of[x] = i
        self.coset_of = coset_of

        # structure constants: η_i η_j = Σ_k structure[i][j][k] η_k, after
        # folding the rational part via 1 = −(η_0 + … + η_{p−1})
        structure = []
        for i in range(p):
            row = []
            for j in range(p):
                counts = [0] * conductor
                for a in self.cosets[i]:
                    for b in self.cosets[j]:
                        counts[(a + b) % conductor] += 1
                m_ij = counts[0]
                vec = []
                for k in range(p):
                    rep = self.cosets[k][0]
                    n_ijk = counts[rep]
                    if any(counts[c] != n_ijk for c in self.cosets[k]):
                        raise ArithmeticError("period products must be constant on cosets")
                    vec.append(n_ijk - m_ij)
                row.append(tuple(vec))
            structure.append(tuple(row))
        self.structure = tuple(structure)

        # change of basis: power_matrix columns are η_0^j in period coordinates;
        # it needs only the structure constants, so the index is checked first
        power_cols = []
        elt = self.one()
        for _ in range(p):
            power_cols.append(elt.coords)
            elt = elt * self.period(0)
        power_matrix = [[power_cols[j][i] for j in range(p)] for i in range(p)]
        index, adj = _det_adj(power_matrix)
        if abs(index) != 1:
            raise ArithmeticError(
                f"[O_L : Z[η_0]] = {abs(index)}; only fields with O_L = Z[η_0] are supported"
            )
        # the inverse is adj / index, and index = ±1 = 1 / index
        self.period_in_power = tuple(tuple(index * v for v in row) for row in adj)

        self.trace_form = tuple(
            tuple(-sum(self.structure[i][j]) for j in range(p)) for i in range(p)
        )
        det, adj = _det_adj(self.trace_form)
        if abs(det) != conductor ** (p - 1):
            raise ArithmeticError("trace form determinant must match the discriminant")

        # minimal polynomial of η_0 (= characteristic polynomial, irreducible)
        self.min_poly = self.period(0).char_poly()

        # σ^{-1}(η_0) = η_{p−1} as an integer polynomial in η_0
        self.prev_period_power = self.period(p - 1).power_coords()

        # float embedding values: they place the points of the root certificate
        # and drive the walk's prefilter, and neither can drop a solution
        tau = 2.0 * math.pi / conductor
        self.eta_floats = tuple(
            sum(math.cos(tau * a) for a in coset) for coset in self.cosets
        )

        # the walk's box per unit trace.  With w_j = tr(ν·η_j), a totally
        # positive ν of trace t has every w_j in t·[r_min, r_max] and
        # Σ_j w_j = −t, so c_i = Σ_j (T⁻¹_ij − κ_i)·w_j − t·κ_i for any κ_i;
        # κ_i, the median of row i of T⁻¹ = adj / det, keeps the ranges sharp.
        # Each bound is linear in t: coordinate i lies in t·box[i].  Row i of
        # |det|·T⁻¹ is ±adj_i, so each end is an integer combination of r_min,
        # r_max and 1 over |det|.
        r_min, r_max = _period_bounds(self.min_poly, self.eta_floats)
        box = []
        for row in adj:
            scaled = sorted(v if det > 0 else -v for v in row)
            kappa = scaled[p // 2]
            up = sum(v - kappa for v in scaled if v > kappa)
            down = sum(v - kappa for v in scaled if v < kappa)
            box.append((
                (up * r_min + down * r_max - kappa) / abs(det),
                (up * r_max + down * r_min - kappa) / abs(det),
            ))
        self.box = tuple(box)

    # -- element constructors -------------------------------------------------
    def element(self, coords) -> AlgebraicInt:
        return AlgebraicInt(self, tuple(coords))

    def one(self) -> AlgebraicInt:
        return self.from_rational(1)

    def from_rational(self, m: int) -> AlgebraicInt:
        return AlgebraicInt(self, (-m,) * self.p)

    def period(self, i: int) -> AlgebraicInt:
        coords = [0] * self.p
        coords[i % self.p] = 1
        return AlgebraicInt(self, tuple(coords))

    def split(self, q: int) -> "SplitData":
        """split_type(self, q), computed once per prime."""
        data = self._splits.get(q)
        if data is None:
            data = self._splits[q] = split_type(self, q)
        return data

    def __repr__(self) -> str:
        return f"AbelianFieldSpec(p={self.p}, conductor={self.conductor})"


@lru_cache(maxsize=None)
def field_spec(p: int, conductor: int) -> AbelianFieldSpec:
    return AbelianFieldSpec(p, conductor)


def _period_bounds(poly: tuple[int, ...], approx) -> tuple[Fraction, Fraction]:
    """Exact rationals r_min < r_max with every real root of `poly` between them.

    `approx` holds float approximations of the p = deg(poly) real roots.  With
    them sorted, `poly` is evaluated exactly at p + 1 points: min − 2^-16, the
    midpoints of neighbouring approximations, and max + 2^-16.  If its sign
    alternates along them, each of the p gaps holds a root, and a polynomial of
    degree p has no other; so all roots lie between the end points, which are
    returned.  The floats only choose where to look: if they do not separate
    the roots, the signs fail to alternate and ArithmeticError is raised.
    """
    xs = sorted(map(Fraction, approx))
    margin = Fraction(1, 2**16)
    points = [xs[0] - margin, *((a + b) / 2 for a, b in zip(xs, xs[1:])), xs[-1] + margin]
    signs = [(v > 0) - (v < 0) for v in (poly_eval(poly, x) for x in points)]
    if len(points) != len(poly) or any(a * b >= 0 for a, b in zip(signs, signs[1:])):
        raise ArithmeticError("the period approximations do not separate the roots of the minimal polynomial")
    return points[0], points[-1]


# ---------------------------------------------------------------------------
# prime splitting and ideals


class PrimeIdeal:
    """A prime of o_L above q, identified (when split) by the root of the
    minimal polynomial of η_0 mod q that cuts it out."""

    __slots__ = ("q", "e", "f", "root")

    def __init__(self, q: int, e: int, f: int, root: int | None):
        self.q = q
        self.e = e
        self.f = f
        self.root = root

    def norm(self) -> int:
        return self.q**self.f

    def sort_key(self) -> tuple[int, int]:
        return (self.q, -1 if self.root is None else self.root)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrimeIdeal)
            and (self.q, self.e, self.f, self.root) == (other.q, other.e, other.f, other.root)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.e, self.f, self.root))

    def __repr__(self) -> str:
        if self.root is not None:
            return f"PrimeIdeal(q={self.q}, root={self.root})"
        kind = "ramified" if self.e > 1 else f"inert f={self.f}"
        return f"PrimeIdeal(q={self.q}, {kind})"


class SplitData:
    """Splitting of a rational prime: invariants (e, f, g) and the slots."""

    __slots__ = ("q", "e", "f", "g", "slots")

    def __init__(self, q: int, e: int, f: int, g: int, slots: tuple[PrimeIdeal, ...]):
        self.q = q
        self.e = e
        self.f = f
        self.g = g
        self.slots = slots

    def __repr__(self) -> str:
        return f"SplitData(q={self.q}, e={self.e}, f={self.f}, g={self.g})"


def split_type(spec: AbelianFieldSpec, q: int) -> SplitData:
    """Splitting data of the rational prime q in o_L.

    For a split q the slots are named by the p roots of the minimal
    polynomial of η_0 mod q, in ascending order.  Only the least root r is
    searched for; Gal(L/Q) permutes the primes above q transitively, so the
    others are its orbit under r ↦ η_{p−1}(r) mod q, the map sigma_ideal
    uses.  Every orbit value is re-evaluated, and p distinct roots of a
    degree-p polynomial over F_q are all of its roots.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    p, f_L = spec.p, spec.conductor
    if q == f_L:
        return SplitData(q, p, 1, 1, (PrimeIdeal(q, p, 1, None),))
    if pow(q, (f_L - 1) // p, f_L) == 1:
        r = next((r for r in range(q) if poly_eval_mod(spec.min_poly, r, q) == 0), None)
        if r is None:
            raise ArithmeticError("split prime must yield p distinct roots")
        orbit = [r]
        for _ in range(p - 1):
            orbit.append(poly_eval_mod(spec.prev_period_power, orbit[-1], q))
        roots = sorted(set(orbit))
        if len(roots) != p or any(poly_eval_mod(spec.min_poly, x, q) for x in roots):
            raise ArithmeticError("split prime must yield p distinct roots")
        return SplitData(q, 1, 1, p, tuple(PrimeIdeal(q, 1, 1, x) for x in roots))
    return SplitData(q, 1, p, 1, (PrimeIdeal(q, 1, p, None),))


class IdealFactored:
    """An integral ideal as a sorted multiset of prime powers."""

    __slots__ = ("spec", "factors")

    def __init__(self, spec: AbelianFieldSpec, factors):
        items = sorted(((pr, int(e)) for pr, e in factors), key=lambda t: t[0].sort_key())
        if any(e < 1 for _, e in items):
            raise ValueError("exponents must be ≥ 1")
        if len({pr for pr, _ in items}) != len(items):
            raise ValueError("duplicate prime in factorization")
        self.spec = spec
        self.factors = tuple(items)

    def norm(self) -> int:
        out = 1
        for pr, e in self.factors:
            out *= pr.norm() ** e
        return out

    def divisors(self, skip_primes=()) -> list["IdealFactored"]:
        """All ideal divisors, omitting prime factors above `skip_primes`.

        Sorted by (norm, slot data) for deterministic downstream sums.
        """
        skip = set(skip_primes)
        kept = [(pr, e) for pr, e in self.factors if pr.q not in skip]
        out = [[]]
        for pr, e in kept:
            out = [base + [(pr, j)] for base in out for j in range(e + 1)]
        ideals = [
            IdealFactored(self.spec, [(pr, j) for pr, j in combo if j > 0]) for combo in out
        ]
        return sorted(ideals, key=lambda b: (b.norm(), b.key()))

    def key(self) -> tuple:
        return tuple((pr.q, -1 if pr.root is None else pr.root, e) for pr, e in self.factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IdealFactored) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if not self.factors:
            return "IdealFactored(unit)"
        return "IdealFactored(" + ", ".join(f"{pr!r}^{e}" for pr, e in self.factors) + ")"


def sigma_ideal(spec: AbelianFieldSpec, ideal: IdealFactored) -> IdealFactored:
    """Image of an ideal under the chosen generator of Gal(L/Q).

    A split slot where η_0 ≡ r moves to the slot where η_0 takes the value of
    η_{p−1} at r (σ(P) contains η_0 − r′ iff η_{p−1} ≡ r′ mod P); inert and
    ramified primes are fixed.
    """
    moved = []
    for pr, e in ideal.factors:
        if pr.root is None:
            moved.append((pr, e))
        else:
            r2 = poly_eval_mod(spec.prev_period_power, pr.root, pr.q)
            moved.append((PrimeIdeal(pr.q, pr.e, pr.f, r2), e))
    return IdealFactored(spec, moved)


def artin_symbol(ideal: IdealFactored, modulus: int) -> int:
    """Class of the absolute norm mod `modulus` (the symbol in an abelian level).

    Conjugate ideals share a norm, so the symbol is Σ-invariant.
    """
    cls = 1
    for pr, e in ideal.factors:
        if modulus % pr.q == 0:
            raise NotCoprime(f"prime {pr.q} divides the modulus {modulus}")
        cls = (cls * pow(pr.q, pr.f * e, modulus)) % modulus
    return cls


# ---------------------------------------------------------------------------
# principal ideals


def _hensel_root(poly: tuple[int, ...], q: int, root: int, target: int) -> int:
    """Lift a simple root of `poly` mod q to a root mod q^target."""
    deriv = tuple(j * c for j, c in enumerate(poly) if j > 0)
    r = root
    precision = 1
    while precision < target:
        precision = min(2 * precision, target)
        mod = q**precision
        val = poly_eval_mod(poly, r, mod)
        r = (r - val * pow(poly_eval_mod(deriv, r, mod), -1, mod)) % mod
    return r


def factor_principal(spec: AbelianFieldSpec, nu: AlgebraicInt) -> IdealFactored:
    """Factor the principal ideal (ν) into primes of o_L."""
    if nu.is_zero():
        raise ZeroElement("cannot factor the zero ideal")
    n = abs(nu.norm())
    factors = []
    for q, vn in sorted(factorize(n).items()):
        data = spec.split(q)
        if data.e == spec.p:  # ramified: the unique prime above f_L
            factors.append((data.slots[0], vn))
            continue
        if data.f == spec.p:  # inert: valuation is the minimal coordinate valuation
            v = min(int_valuation(c, q) for c in nu.coords if c != 0)
            if spec.p * v != vn:
                raise ArithmeticError("inert valuation must account for the norm")
            factors.append((data.slots[0], v))
            continue
        # split: evaluate ν in the power basis at each Hensel-lifted root
        target = vn + 1
        power = nu.power_coords()
        total = 0
        for slot in data.slots:
            r = _hensel_root(spec.min_poly, q, slot.root, target)
            mod = q**target
            val = poly_eval_mod(power, r, mod)
            if val == 0:
                raise ArithmeticError("valuation exceeded the norm bound")
            v = int_valuation(val, q)
            total += v
            if v:
                factors.append((slot, v))
        if total != vn:
            raise ArithmeticError("split valuations must sum to the norm valuation")
    return IdealFactored(spec, factors)


# ---------------------------------------------------------------------------
# enumerations (pure functions of the field and the bound: no file is read or
# written here; harness compares a cache directory with the walk's ν)


def enumerate_ideals(spec: AbelianFieldSpec, bound: int, s_primes=()) -> tuple[IdealFactored, ...]:
    """All integral ideals of norm ≤ bound, coprime to S, sorted by norm."""
    if bound < 1:
        raise ValueError("bound must be ≥ 1")
    skip = set(s_primes)
    primes: list[PrimeIdeal] = []
    for q in range(2, bound + 1):
        if is_prime(q) and q not in skip:
            for slot in spec.split(q).slots:
                if slot.norm() <= bound:
                    primes.append(slot)
    primes.sort(key=PrimeIdeal.sort_key)

    results: list[IdealFactored] = []

    def extend(start: int, factors: list, norm: int) -> None:
        results.append(IdealFactored(spec, list(factors)))
        for i in range(start, len(primes)):
            pr = primes[i]
            if norm * pr.q > bound:
                break  # sorted by q and N𝔭 ≥ q: no later prime fits either
            e = 1
            nn = norm * pr.norm()
            while nn <= bound:
                factors.append((pr, e))
                extend(i + 1, factors, nn)
                factors.pop()
                e += 1
                nn *= pr.norm()

    extend(0, [], 1)
    results.sort(key=lambda b: (b.norm(), b.key()))
    return tuple(results)


def enumerate_tot_pos_trace(spec: AbelianFieldSpec, t: int) -> tuple[AlgebraicInt, ...]:
    """All totally positive ν ∈ o_L with tr(ν) = t, sorted by coordinates.

    The search box: with w_j = tr(ν·η_j), total positivity traps every w_j in
    t·[r_min, r_max] (bounds on the conjugates of the periods) and forces
    Σ_j w_j = −t exactly; pulling the box through the inverse trace form gives
    sharp ranges for the coordinates, of which the last is determined by the
    trace.  Every bound is linear in t, so the box is t·`spec.box`, rounded
    inward to integers.  Candidates are prefiltered in floating point with a
    margin below the 1/t^(p−1) floor on embeddings of totally positive
    integers, then decided exactly.  The walk is the only source of these ν:
    it reads and writes no file.
    """
    if t <= 0:
        return ()
    if t > _MAX_TRACE:
        raise ValueError(f"trace {t} exceeds the supported prefilter range {_MAX_TRACE}")
    p = spec.p
    ranges = [(math.ceil(t * a), math.floor(t * b)) for a, b in spec.box]

    etas = spec.eta_floats
    threshold = 0.5 / float(t) ** (p - 1)
    found = []

    def scan(idx: int, partial: list[int]) -> None:
        if idx == p - 1:
            lo, hi = ranges[idx]
            c_last = -t - sum(partial)  # trace pins the final coordinate
            if not lo <= c_last <= hi:
                return
            coords = tuple(partial) + (c_last,)
            for k in range(p):
                emb = sum(coords[i] * etas[(i + k) % p] for i in range(p))
                if emb < threshold:
                    return
            candidate = spec.element(coords)
            if candidate.is_totally_positive():
                found.append(candidate)
            return
        lo, hi = ranges[idx]
        for c in range(lo, hi + 1):
            partial.append(c)
            scan(idx + 1, partial)
            partial.pop()

    scan(0, [])
    found.sort(key=lambda nu: nu.coords)
    return tuple(found)


def tot_pos_up_to(spec: AbelianFieldSpec, trace_bound: int) -> dict[int, tuple[AlgebraicInt, ...]]:
    """Totally positive integers grouped by trace, for the traces p, 2p, … ≤ bound.

    These are the only traces the q-expansion congruence reads: its
    coefficient E(μ) sums over the ν of trace p·μ.
    """
    return {t: enumerate_tot_pos_trace(spec, t) for t in range(spec.p, trace_bound + 1, spec.p)}
