"""Exact monomial-ideal arithmetic in the bigraded ring K[x_1..x_m, y_1..y_n].

Monomials are exponent tuples of length m+n (x-block first).  Ideals are kept
in minimal-generator normal form with a fixed lexicographic generator order,
so equal ideals compare equal and all downstream output is deterministic.

A characteristic is read by one rule, `characteristic`: an integer, 0 or a
prime, and below MAX_CHAR, where deterministic Miller-Rabin is exact.
`RingSpec` and `kernels.rank_mod_p` both call it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DimensionMismatch, RingMismatch, UnitIdeal

Monomial = tuple[int, ...]
PrimeSupport = frozenset  # set of variable indices; the prime generated by them


@dataclass(frozen=True)
class RingSpec:
    """Ambient ring data: m x-variables, n y-variables, rank characteristic.

    The three fields are integers (`_integer`), stored as plain ints, and
    m = n = 0 is the point ring K[], over which the fibers along an empty
    axis live.  A memo key: its hash (that of the field tuple), `nvars` and
    the set of all variables that `all_vars` returns are computed once, at
    construction, so the depth scans' axis read on every call compares
    against a stored set.
    """

    m: int
    n: int
    char: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "char", _integer(self.char, "the characteristic"))
        if self.m < 0 or self.n < 0:
            raise ValueError(f"need m, n >= 0, got m={self.m} n={self.n}")
        # the value rule comes after the m, n check, which names a bad m or n first
        characteristic(self.char)
        object.__setattr__(self, "nvars", self.m + self.n)
        object.__setattr__(self, "_hash", hash((self.m, self.n, self.char)))
        object.__setattr__(self, "_all_vars", frozenset(range(self.nvars)))

    def __hash__(self):
        return self._hash

    def var_name(self, i: int) -> str:
        if i < self.m:
            return f"x{i + 1}"
        return f"y{i - self.m + 1}"

    def x_block(self) -> frozenset:
        return frozenset(range(self.m))

    def y_block(self) -> frozenset:
        return frozenset(range(self.m, self.m + self.n))

    def all_vars(self) -> frozenset:
        return self._all_vars

    def axis(self, Z) -> frozenset:
        """Z as a frozenset of variable indices: each entry must be an integer
        (`_integer`) in 0..nvars-1, or ValueError, so no index wraps around."""
        out = set()
        for z in Z:
            z = _integer(z, "an axis variable")
            if not 0 <= z < self.nvars:
                raise ValueError(f"axis variable {z} outside 0..{self.nvars - 1}")
            out.add(z)
        return frozenset(out)


def _integer(value, what: str) -> int:
    """value as an int (`operator.index`, so a bool is 0 or 1); a float or a
    string is refused with ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def characteristic(value) -> int:
    """value as a characteristic: an integer (`_integer`), 0 or a prime, and
    below MAX_CHAR, or ValueError."""
    char = _integer(value, "the characteristic")
    if char >= MAX_CHAR:
        raise ValueError(f"characteristic must be below {MAX_CHAR}, got {char}")
    if char < 0 or char == 1 or (char > 1 and not _is_prime(char)):
        raise ValueError(f"characteristic must be 0 or prime, got {char}")
    return char


# Strong-probable-prime tests to these bases decide primality exactly below
# MAX_CHAR (Sorenson-Webster, Math. Comp. 2017); larger characteristics are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHAR = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < MAX_CHAR.

    Every `RingSpec` with a prime characteristic asks this, and a run builds
    many rings over the few characteristics it uses (each parse and each
    fiber's sub-ring), so the answers are kept in a small memo.
    """
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def divides(u: Monomial, v: Monomial) -> bool:
    return all(map(operator.le, u, v))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(u, v))


def mon_quot(g: Monomial, u: Monomial) -> Monomial:
    """g / gcd(g, u): the generator of the colon (g : u)."""
    return tuple(max(a - b, 0) for a, b in zip(g, u))


def support(u: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(u) if e > 0)


def unit_monomial(ring: RingSpec) -> Monomial:
    return (0,) * ring.nvars


def var_power(ring: RingSpec, i: int, e: int = 1) -> Monomial:
    u = [0] * ring.nvars
    u[i] = e
    return tuple(u)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in canonical form: minimal generators, lex-sorted.

    A memo key: its hash (that of the field tuple) and `is_unit` are computed
    once, at construction.  `minimal_generators`, which builds the canonical
    form, takes integer exponents only.
    """

    ring: RingSpec
    gens: tuple = field(default=())

    def __post_init__(self):
        nvars = self.ring.nvars
        for g in self.gens:
            if len(g) != nvars:
                raise DimensionMismatch(
                    f"generator {g} has length {len(g)}, ring has {nvars} variables"
                )
        object.__setattr__(self, "is_unit", bool(self.gens) and not any(self.gens[0]))
        object.__setattr__(self, "_hash", hash((self.ring, self.gens)))

    def __hash__(self):
        return self._hash

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, u: Monomial) -> bool:
        return any(divides(g, u) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def max_exponents(self) -> Monomial:
        """Componentwise max of generator exponents (the lcm box); 0-vector if zero ideal."""
        box = [0] * self.ring.nvars
        for g in self.gens:
            for i, e in enumerate(g):
                if e > box[i]:
                    box[i] = e
        return tuple(box)

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(render_monomial(self.ring, g) for g in self.gens) + ")"


def render_monomial(ring: RingSpec, u: Monomial) -> str:
    parts = [
        ring.var_name(i) + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(u)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"


def _minimal(monomials) -> tuple:
    """The monomials, given in lex order, that no monomial kept before them
    divides (an equal one included), in that order.

    A proper divisor of u is lex-smaller than u, so one pass in lex order
    meets every divisor of u before u (a dropped one has a kept divisor of
    its own), and what is kept are the minimal elements, each once.  The
    package's one minimality pass: `minimal_generators` and the fibers'
    restricted colons (`invariants._restricted_colons`) both read it.
    """
    kept = []
    for u in monomials:
        for v in kept:
            if all(map(operator.le, v, u)):
                break
        else:
            kept.append(u)
    return tuple(kept)


def _monomial(u, nvars: int) -> Monomial:
    """u as a monomial of a ring with nvars variables: a tuple of nvars
    nonnegative integer exponents.

    The package's one monomial rule, applied to each generator by
    `minimal_generators` and to u by `colon`.  Exponents must be integers
    (`operator.index`): a float or a string is refused with ValueError, not
    rounded or parsed.  The one monomial of K[] is ().
    """
    try:
        u = tuple(map(operator.index, u))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {u!r}") from None
    if len(u) != nvars:
        raise DimensionMismatch(f"monomial {u} has length {len(u)}, ring has {nvars} variables")
    if u and min(u) < 0:
        raise ValueError(f"negative exponent in {u}")
    return u


def minimal_generators(ring: RingSpec, raw) -> MonomialIdeal:
    """Canonical form: drop duplicates and any generator divisible by another.

    Each generator is read by `_monomial`.  The distinct monomials are
    sorted and kept by the one pass of `_minimal`, so the generators come
    out lex-sorted.
    """
    nvars = ring.nvars
    gens = {_monomial(u, nvars) for u in raw}
    return MonomialIdeal(ring, _minimal(sorted(gens)))


def unit_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, (unit_monomial(ring),))


def zero_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, ())


def _check_same_ring(I: MonomialIdeal, J: MonomialIdeal):
    """The package's one same-ring rule: the same object, or else equal values."""
    if I.ring is not J.ring and I.ring != J.ring:
        raise RingMismatch(f"rings differ: {I.ring} vs {J.ring}")


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    return minimal_generators(I.ring, (lcm(u, v) for u in I.gens for v in J.gens))


def intersect_all(ideals) -> MonomialIdeal:
    ideals = list(ideals)
    if not ideals:
        raise ValueError("intersect_all needs at least one ideal")
    acc = ideals[0]
    for J in ideals[1:]:
        acc = intersect(acc, J)
    return acc


def intersect_pure_powers(I: MonomialIdeal, a: Monomial, rad) -> MonomialIdeal:
    """I cap (x_i^{a_i} : i in rad): I met with a component of `_decomposition`.

    The package's one construction of a component ideal.  As in `intersect`,
    S met with the component is the component itself, built here from its
    sorted pure powers with no canonical-form pass.  Otherwise lcm(g,
    x_i^{a_i}) is g with g_i raised to a_i, so a generator g with g_i >= a_i
    for some i in rad lies in the component and stays as it is (its other
    lcms are its multiples), and any other g gives one monomial per i in rad.
    """
    if I.is_unit:
        return MonomialIdeal(I.ring, tuple(sorted(var_power(I.ring, i, a[i]) for i in rad)))
    raw = []
    for g in I.gens:
        inside = any(g[i] >= a[i] for i in rad)
        raw += [g] if inside else [g[:i] + (a[i],) + g[i + 1:] for i in rad]
    return minimal_generators(I.ring, raw)


def colon(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """(I : u) = {v : v*u in I}, for a monomial u (`_monomial`)."""
    u = _monomial(u, I.ring.nvars)
    return minimal_generators(I.ring, (mon_quot(g, u) for g in I.gens))


def colon_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """(I : J) = intersection of (I : g) over generators g of J."""
    _check_same_ring(I, J)
    if J.is_zero:
        return unit_ideal(I.ring)
    return intersect_all([colon(I, g) for g in J.gens])


def sum_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    return minimal_generators(I.ring, I.gens + J.gens)


def prime_ideal(ring: RingSpec, p: PrimeSupport) -> MonomialIdeal:
    return minimal_generators(ring, (var_power(ring, i) for i in sorted(p)))


@dataclass(frozen=True)
class PrimaryComponent:
    """A primary (or irreducible) monomial ideal together with its radical."""

    component: MonomialIdeal
    radical: PrimeSupport


def irreducible_decomposition(I: MonomialIdeal) -> list:
    """Irredundant irreducible decomposition, each component pure variable powers.

    Adds the generators of I one at a time to the decomposition of the ideal
    they generate so far, starting from the zero ideal's single empty
    component.  For coprime u and v, (q + (uv)) = (q + (u)) cap (q + (v)), so
    a component that does not hold the new generator g splits into one child
    q + (x_i^{g_i}) per variable of g, and a child over another component is
    dropped.  The decomposition is unique, so it is computed once per ideal
    and kept in a bounded memo (`_decomposition`) as exponent vectors and
    radicals.  Each call builds a fresh list of `PrimaryComponent` objects
    from it, each component met from S (`intersect_pure_powers`), sorted by
    generator tuple; `associated_primes` and `meet_components` read the memo
    without building any.

    The zero ideal is the irreducible monomial ideal with no pure powers, so
    its decomposition is the one empty component PrimaryComponent((0), {}):
    exactly the start of the walk when there is no generator to add.
    """
    if I.is_unit:
        raise UnitIdeal("unit ideal has no decomposition")
    S = unit_ideal(I.ring)
    comps = [PrimaryComponent(intersect_pure_powers(S, a, rad), rad) for a, rad in _decomposition(I)]
    return sorted(comps, key=lambda pc: pc.component.gens)


def _inside(c: Monomial, b: Monomial) -> bool:
    """Component c lies inside component b (exponent vectors, 0 = absent)."""
    return all(0 < f <= e for e, f in zip(c, b) if e)


@lru_cache(maxsize=1024)
def _decomposition(I: MonomialIdeal) -> tuple:
    """The one decomposition memo: (exponent vector, radical) per component.

    Adds the generators of a proper I one at a time, as
    `irreducible_decomposition` describes.  A component's exponent vector
    holds the power of each variable it uses (0 for the others), and its
    radical is the support of that vector.  For I = 0 there is no generator
    to add, and the empty component is the answer.
    """
    ring = I.ring
    comps = {unit_monomial(ring): 0}  # exponent vector (0 = absent) -> support bitmask
    for g in I.gens:
        sup = [i for i, e in enumerate(g) if e]
        kept, children = {}, {}
        for a, mask in comps.items():
            if any(0 < a[i] <= g[i] for i in sup):
                kept[a] = mask
            else:
                for i in sup:
                    children[a[:i] + (g[i],) + a[i + 1:]] = mask | 1 << i
        # a kept component stays minimal: a child inside it would put its
        # parent inside it too, and the previous components were irredundant;
        # c inside b needs the support of c within that of b
        every = list(kept.items()) + list(children.items())
        comps = kept
        for b, mask in children.items():
            if not any(not m & ~mask and c != b and _inside(c, b) for c, m in every):
                comps[b] = mask
    return tuple((a, support(a)) for a in comps)


def meet_components(J: MonomialIdeal, I: MonomialIdeal, radicals) -> MonomialIdeal:
    """J met with each irreducible component of I whose radical is in `radicals`.

    Reads the decomposition memo (`_decomposition`) and meets each such
    component once (`intersect_pure_powers`), building no component object.
    The filtration ladder meets one cd class per step, and
    `primary_decomposition` one radical from S.
    """
    for a, rad in _decomposition(I):
        if rad in radicals:
            J = intersect_pure_powers(J, a, rad)
    return J


def associated_primes(I: MonomialIdeal) -> set:
    """Ass(S/I) as a set of variable-index frozensets; {frozenset()} for I = 0.

    The radicals of the irreducible components, read off the decomposition
    memo (`_decomposition`) without building a component ideal.  Each call
    returns a fresh set.
    """
    if I.is_unit:
        raise UnitIdeal("Ass(S/S) is undefined (zero module)")
    return {rad for _, rad in _decomposition(I)}


def primary_decomposition(I: MonomialIdeal) -> list:
    """Irredundant primary decomposition, one component per associated prime.

    Per prime, in sorted order, the component is the meet from S of the
    irreducible components with that radical (`meet_components`).
    """
    if I.is_unit:
        raise UnitIdeal("unit ideal has no decomposition")
    S = unit_ideal(I.ring)
    radicals = sorted(associated_primes(I), key=sorted)
    return [PrimaryComponent(meet_components(S, I, {rad}), rad) for rad in radicals]


def dim_quotient(I: MonomialIdeal) -> int:
    """Krull dimension of S/I: nvars minus the size of a smallest associated prime.

    Every associated prime contains a minimal one, so a smallest associated
    prime is minimal and the minimal primes need not be sorted out.  For
    I = 0 the one associated prime is (0), so dim S = m + n.
    """
    if I.is_unit:
        raise UnitIdeal("S/S is the zero module")
    return I.ring.nvars - min(len(p) for p in associated_primes(I))
