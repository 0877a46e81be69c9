"""Fine-degree Koszul and Cech homology of monomial subquotients.

A subquotient J/J' has a monomial K-basis (monomials in J but not J'), so in
each fine degree every term of a Koszul or Cech complex is 0- or 1-dimensional
and the differentials are 0/+-1 matrices.  All dimensions come out of exact
integer ranks over the ring's configured characteristic.

Betti numbers and depths are taken over all variables of the module's
ring.  There they live only in degrees of the lcm lattice of the generators
of J and J' (the Taylor resolution and the long exact Tor sequence of
0 -> J' -> J -> J/J' -> 0, Gasharov-Peeva-Welker 1999), so the Betti scan
visits those degrees and no others.  Depth needs only the projective
dimension (Auslander-Buchsbaum).  On a cyclic S/I that is bounded below by
the largest height of an associated prime (depth M <= dim S/p for p in
Ass M) and above by the length of the Taylor resolution, min(#vars,
#gens I), and by #vars - 1 unless the maximal ideal is associated (depth
0); where the two meet, `depth_module` answers without a scan.
Otherwise, as H_j vanishes at b for j > |supp b|, both scans read one list
of the lattice in descending order of support size (`_lattice`), and
`depth_module` starts at the lower bound and stops once no degree left can
raise the largest nonzero index it has seen, or once that reaches the upper
bound.
Every Koszul and Cech differential is the boundary map of sorted index
tuples, built by one routine, and each complex in a fine degree is built
once and read at every index.

Every Koszul and Cech term, every corner of `ass_subquotient` and every
fiber class of `invariants.fibers` is decided by one rule on bitsets over
the generators of J and J' (`_corner_row`).

Membership, colons and Cech pieces only change where an exponent crosses a
generator exponent, so the walks that need one degree per class visit
exponent cells (`exponent_cells`) instead of the whole exponent box.
`ass_subquotient` visits one corner exponent per bounded cell of J' and the
box on each coordinate, depth first, and skips every subtree whose corners
all lie outside J or all inside J'.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from . import kernels
from .errors import DimensionMismatch, InternalCheckFailed, PreconditionFailed, ZeroModule
from .io_formats import render_ideal
from .rings import (
    MonomialIdeal,
    RingSpec,
    _check_same_ring,
    _integer,
    associated_primes,
    colon_ideal,
    dim_quotient,
    lcm,
    minimal_generators,
    unit_ideal,
)

@dataclass(frozen=True)
class Subquotient:
    """The module J/J' for monomial ideals J' <= J; S/I is the pair (S, I).

    A subquotient is its two ideals, in one ring (`rings._check_same_ring`),
    and `ring` reads it off J.  A memo key: its hash (that of (J, J')) is
    computed once, at construction, and `is_zero` once, on first use.  J' is
    checked to lie in J by a generator scan unless J is the unit ideal.
    """

    J: MonomialIdeal
    Jp: MonomialIdeal

    def __post_init__(self):
        _check_same_ring(self.J, self.Jp)
        if not self.J.is_unit and not self.J.contains_ideal(self.Jp):
            raise ValueError("J' must be contained in J")
        object.__setattr__(self, "_hash", hash((self.J, self.Jp)))

    @property
    def ring(self) -> RingSpec:
        return self.J.ring

    def __hash__(self):
        return self._hash

    @classmethod
    def cyclic(cls, I: MonomialIdeal) -> "Subquotient":
        """S/I as the pair (S, I): one object per ideal, kept in the bounded
        memo `_cyclic`, so every memo keyed on the module hashes it once."""
        return _cyclic(I)

    @cached_property
    def is_zero(self) -> bool:
        return all(self.Jp.contains(g) for g in self.J.gens)

    def box(self) -> tuple:
        """Componentwise max generator exponent of J and J' (the lcm box)."""
        bj = self.J.max_exponents()
        bp = self.Jp.max_exponents()
        return tuple(max(a, b) for a, b in zip(bj, bp))


@lru_cache(maxsize=1024)
def _cyclic(I: MonomialIdeal) -> Subquotient:
    """The memo behind `Subquotient.cyclic`."""
    return Subquotient(unit_ideal(I.ring), I)


def _corner_row(J: MonomialIdeal, Jp: MonomialIdeal, k: int, e: int) -> tuple:
    """Bitsets (jin, miss, one) over the generators at exponent e of coordinate k.

    Bit i of `jin` is set when generator i of J has g_k <= e; bit j of `miss`
    when generator j of J' has g_k > e, and of `one` when g_k == e + 1.  A
    monomial lies in J \\ J' iff the AND of the `jin` rows of its coordinates
    is nonzero and the OR of their `miss` rows holds every generator of J'.
    `_term_dims` (Koszul and Cech terms) and `ass_subquotient` test by this,
    and `invariants._fibers` reads the generators dividing a slice off the
    same AND and OR.
    """
    jin = 0
    for i, g in enumerate(J.gens):
        if g[k] <= e:
            jin |= 1 << i
    miss = one = 0
    for j, g in enumerate(Jp.gens):
        if g[k] > e:
            miss |= 1 << j
            if g[k] == e + 1:
                one |= 1 << j
    return jin, miss, one


def _boundary_rank(upper, lower_index, char) -> int:
    """Rank of sigma -> sum over pos of (-1)^pos (sigma without its pos-th entry).

    `upper` lists the sorted tuples sigma (the columns) and `lower_index`
    maps each tuple one entry shorter to its row; a face missing from it is
    a zero term and gets no entry.
    """
    if not upper or not lower_index:
        return 0
    mat = [[0] * len(upper) for _ in lower_index]
    for col, sigma in enumerate(upper):
        for pos in range(len(sigma)):
            row = lower_index.get(sigma[:pos] + sigma[pos + 1:])
            if row is not None:
                mat[row][col] = (-1) ** pos
    return kernels.rank(mat, char)


def _complex_dims(levels, char) -> list:
    """Homology dimensions of a complex whose level j has a basis of sorted j-tuples.

    `levels[j]` lists the tuples with a nonzero term, and adjacent levels are
    joined by the boundary map (Koszul) or its transpose (Cech), of equal rank.
    """
    ranks = [0] * (len(levels) + 1)  # ranks[j] = rank between levels j and j-1
    for j in range(1, len(levels)):
        lower = {s: n for n, s in enumerate(levels[j - 1])}
        ranks[j] = _boundary_rank(levels[j], lower, char)
    return [len(level) - ranks[j] - ranks[j + 1] for j, level in enumerate(levels)]


def _term_dims(N: Subquotient, deg, inside) -> list:
    """Homology dimensions of the complex on the variables `inside` in fine degree deg.

    The term of sigma is nonzero iff the `_corner_row` rule holds on the rows
    `inside[k]` for k in sigma and `_corner_row(J, J', k, deg_k)` for k not
    in sigma.  One depth-first walk over the coordinates of `inside`, in
    ascending order, takes each into sigma or leaves it out, with the `jin`
    rows ANDed and the `miss` rows ORed along the way.  The AND only shrinks,
    so a branch is dropped once it is 0, in a Koszul and a Cech degree alike:
    no term below it is nonzero.  A full-length sigma is kept iff its OR
    holds every generator of J'.  Level j lists the kept sigma of size j.
    """
    J, Jp = N.J, N.Jp
    jin, miss = (1 << len(J.gens)) - 1, 0
    steps = []  # (k, inside jin, inside miss, outside jin, outside miss)
    for k, e in enumerate(deg):
        row = _corner_row(J, Jp, k, e)
        if k in inside:
            steps.append((k, inside[k][0], inside[k][1], row[0], row[1]))
        else:
            jin &= row[0]
            miss |= row[1]
    full = (1 << len(Jp.gens)) - 1
    levels = [[] for _ in range(len(steps) + 1)]
    # a node (n, sigma, jin, miss) has taken or left out steps[:n]
    stack = [(0, (), jin, miss)] if jin else []
    while stack:
        n, sigma, jin, miss = stack.pop()
        if n == len(steps):
            if miss == full:
                levels[len(sigma)].append(sigma)
            continue
        k, in_jin, in_miss, out_jin, out_miss = steps[n]
        if jin & out_jin:
            stack.append((n + 1, sigma, jin & out_jin, miss | out_miss))
        if jin & in_jin:
            stack.append((n + 1, sigma + (k,), jin & in_jin, miss | in_miss))
    return _complex_dims(levels, N.ring.char)


def koszul_dims_at(N: Subquotient, zvars, b) -> list:
    """All Koszul homology dimensions [H_0 .. H_k] on the variables zvars in fine degree b.

    The term of sigma is the piece of N at b - e_sigma, so a coordinate z in
    sigma reads the row at b_z - 1.  Where b_z = 0 that row holds no
    generator of J, so the walk of `_term_dims` drops every sigma holding z
    at once, and a complex in a degree of small support stays small however
    many variables the ring has.  zvars is not checked: the Betti and depth
    scans call this per lattice degree after `_refuse_scan` has required all
    variables of N's ring.
    """
    return _term_dims(N, b, {z: _corner_row(N.J, N.Jp, z, b[z] - 1) for z in zvars})


def _refuse_scan(N: Subquotient, Z):
    """Refuse a proper Z (PreconditionFailed) and the zero module (ZeroModule).

    `betti_and_projdim` and `depth_module` call this before any other work.
    """
    if frozenset(Z) != N.ring.all_vars():
        raise PreconditionFailed(f"Betti numbers are taken over all variables, not {sorted(Z)}")
    if N.is_zero:
        raise ZeroModule("Betti numbers of the zero module")


def _lattice(N: Subquotient) -> list:
    """The lcm lattice of the generators of J and J' as (|supp b|, b).

    Listed by descending support size, then by b, the order in which the
    depth scan can stop early; `betti_and_projdim` and `depth_module` both
    read this list.
    """
    closure = set()
    for g in N.J.gens + N.Jp.gens:
        closure |= {lcm(g, c) for c in closure}
        closure.add(g)
    return sorted(((sum(1 for e in b if e), b) for b in closure), key=lambda sb: (-sb[0], sb[1]))


def betti_and_projdim(N: Subquotient, Z):
    """Graded Betti numbers over all variables of N's ring and the projective dimension.

    Betti numbers are read off Koszul homology at every degree of the lcm
    lattice of the generators of J and J' (`_lattice`).  Z must be all
    variables of N's ring; PreconditionFailed refuses any other Z before a
    degree is scanned.
    """
    _refuse_scan(N, Z)
    betti = {}
    projdim = 0
    for _, b in _lattice(N):
        for j, d in enumerate(koszul_dims_at(N, Z, b)):
            if d:
                betti[(j, b)] = d
                projdim = max(projdim, j)
    return betti, projdim


# depths of modules, oldest entry dropped when the dict is full
CACHE_SIZE = 4096
_depth_cache: dict = {}
_cache_lock = threading.Lock()


def _projdim_bounds(N: Subquotient) -> tuple:
    """(low, high) with low <= projdim N <= high, decided before any Koszul scan.

    For a cyclic module S/I (J = S), depth S/I <= dim S/p for every p in
    Ass(S/I) (Bruns-Herzog, Prop. 1.2.13), so by Auslander-Buchsbaum projdim
    is at least the largest height of an associated prime; and the Taylor
    resolution of S/I has length #gens(I), so projdim is at most that and
    at most the number of variables.  depth S/I = 0 iff the maximal ideal
    lies in Ass(S/I) (prime avoidance), so when the largest height is below
    the number of variables, projdim is at most one less.  Ass is read from
    the memoized decomposition that `cd`, `dim_module` and `mgrade` also
    read.  A general J/J' gets (0, number of variables).
    """
    nvars = N.ring.nvars
    if not N.J.is_unit:
        return 0, nvars
    I = N.Jp
    low = max(len(p) for p in associated_primes(I))
    high = min(nvars - (low < nvars), len(I.gens))
    if low > high:
        raise InternalCheckFailed(
            f"Ass height {low} exceeds the Taylor length {high}; input ideal:\n{render_ideal(I)}"
        )
    return low, high


def depth_module(N: Subquotient, Z) -> int:
    """depth over all variables Z of N's ring via Auslander-Buchsbaum: |Z| - projdim.

    projdim lies between the bounds of `_projdim_bounds`; where they meet
    (on x1*...*xk, on (x1, ..., xk), on every complete intersection) the
    depth is read off them without building the lcm lattice or any Koszul
    complex.  Otherwise projdim is the largest j with H_j(b) != 0 over the degrees b
    of the lcm lattice, read from the list `betti_and_projdim` reads too
    (`_lattice`).  The Koszul term of sigma at b is the piece of N at
    b - e_sigma, which is zero when sigma holds a coordinate k with b_k = 0,
    as b - e_sigma is then negative at k.  So every nonzero term at b has
    sigma inside supp b, and H_j(b) = 0 for j > |supp b|.  The scan starts
    with p at the lower bound, visits the list in its descending order of
    |supp b|, keeps the largest j seen with H_j(b) != 0 as p, and stops at
    the first b with |supp b| <= p, where no degree left has a nonzero H_j
    with j > p, or as soon as p reaches the upper bound.
    """
    key = (N, frozenset(Z))
    depth = _depth_cache.get(key)
    if depth is not None:
        return depth
    _refuse_scan(N, Z)
    projdim, high = _projdim_bounds(N)
    if projdim < high:
        for support, b in _lattice(N):
            if support <= projdim or projdim == high:
                break
            dims = koszul_dims_at(N, Z, b)
            projdim = max([projdim] + [j for j, d in enumerate(dims) if d])
    depth = len(Z) - projdim
    with _cache_lock:
        if len(_depth_cache) >= CACHE_SIZE:
            del _depth_cache[next(iter(_depth_cache))]
        _depth_cache[key] = depth
    return depth


def dim_module(N: Subquotient) -> int:
    """Krull dimension of J/J' via its annihilator (J' : J).

    For a cyclic S/J' (J = S) the annihilator is J' itself, so no colon is
    built.  No memo of its own: `invariants.cd` memoizes per module and
    axis, and `rings._decomposition` the annihilator's decomposition, whose
    radicals `dim_quotient` reads.
    """
    ann = N.Jp if N.J.is_unit else colon_ideal(N.Jp, N.J)
    if ann.is_unit:
        raise ZeroModule("dimension of the zero module")
    return dim_quotient(ann)


def cech_dims_at(N: Subquotient, Z, c) -> list:
    """All Cech cohomology dimensions [H^0 .. H^k] of N on the variables Z in fine degree c.

    Coordinates on Z may be negative.  The term of sigma is the piece of N
    localized at the variables of sigma, where every generator of J passes
    and none of J' misses, so a coordinate in sigma reads that constant row.
    Where c_z < 0 the row outside sigma holds no generator of J, so the walk
    of `_term_dims` drops every sigma without z at once.
    The answer is all zeros when c_z is at least the largest exponent of a
    generator at some z in Z (`_axis_cells`), so `_fiber_table` in
    local_cohomology never asks for such a degree; a direct call still
    builds its complex.  Z is not checked: `_fiber_table` calls this per
    cell with all variables of a fiber's ring, and `cech_piece_dim` checks
    its own Z.
    """
    every = ((1 << len(N.J.gens)) - 1, 0)
    return _term_dims(N, c, dict.fromkeys(Z, every))


def cech_piece_dim(N: Subquotient, Z, i: int, c) -> int:
    """dim_K of H^i_Z(N) in fine degree c (coordinates on Z may be negative).

    Z goes through `RingSpec.axis` first, so a variable outside the ring is
    a ValueError, then i is checked against |Z|.  A degree of the wrong
    length is a DimensionMismatch and a non-integer coordinate a ValueError;
    `cech_dims_at` takes c unchecked.
    """
    Z = N.ring.axis(Z)
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    c = tuple(_integer(e, "a degree coordinate") for e in c)
    if len(c) != N.ring.nvars:
        raise DimensionMismatch(f"degree {c} has wrong length for {N.ring}")
    return cech_dims_at(N, Z, c)[i]


def _axis_cells(gens, k, cech=False) -> list:
    """Exponent cells of coordinate k for the monomials gens, as (start, length).

    With d_0 = 0 < d_1 < ... < d_r the distinct exponents of gens at k, the
    cells are [d_j, d_{j+1} - 1] and the cap [d_r, inf) (length None).
    Whether g_k <= e holds for a generator g is constant on a cell.

    A Cech coordinate gets the class (-1, None) of all negative exponents
    first and no cap: the Cech cohomology of J/J' on any variables that
    include the k-th vanishes in every degree c with c_k >= d_r (for S/I
    this is Takayama's vanishing).  There the row
    `_corner_row(J, J', k, c_k)` holds all of J and none of J', the row of
    the localized coordinate, so the term of sigma without k equals the term
    of sigma with k and the Cech complex in degree c is the cone of an
    isomorphism: multiplication by the k-th variable is bijective on J/J'
    from d_r on.  The cone is acyclic.
    """
    d = sorted({0} | {g[k] for g in gens})
    cells = [(-1, None)] if cech else []
    cells += [(a, b - a) for a, b in zip(d, d[1:])]
    if not cech:
        cells.append((d[-1], None))
    return cells


def exponent_cells(N: Subquotient, coords, cech=frozenset()):
    """Products of the exponent cells of N over coords, in lex order of corners.

    Yields (corner, lengths): the smallest exponent of the cell on each of
    coords and the cell lengths (None for the cap and the -1 class, each of
    which stands for infinitely many exponents).  The cells come from the
    generators of J and J', so membership, colons and Cech pieces of N are
    constant on a cell.  Coordinates in `cech` get the -1 class and their
    bounded cells only: the Cech cohomology of N vanishes on their caps
    (`_axis_cells`), so a coordinate no generator uses adds one cell.
    """
    gens = N.J.gens + N.Jp.gens
    axes = [_axis_cells(gens, k, k in cech) for k in coords]
    for cell in product(*axes):
        yield tuple(s for s, _ in cell), tuple(n for _, n in cell)


def ass_subquotient(J: MonomialIdeal, Jp: MonomialIdeal) -> set:
    """Ass of the module J/J' by enumerating annihilators of corner monomials.

    If (J' : u) = P is prime for u in J \\ J', then raising u_k to the box on a
    variable k outside P keeps u in J and its annihilator P, and on a variable
    k of P some generator g of J' has g_k = u_k + 1.  So it suffices to try
    u_k in {g_k - 1 : g in gens(J'), g_k >= 1} (the last exponent of each
    bounded cell of J') together with box_k.

    The corners are walked depth first on an explicit stack, as a ring may
    have more variables than the interpreter's recursion limit, one
    coordinate at a time, on bitsets over the generators (`_corner_row`).
    The AND of the `jin` rows along the path holds the generators of J that
    divide every corner below it, and a subtree is skipped once it is 0.
    Bit-sliced counters `at1` and `at2` hold the generators of J' that miss
    the path (exceed it) in at least one and in at least two coordinates; a
    subtree is also skipped once some generator can no longer miss, as then
    it divides every corner below.  At a corner u outside J', (J' : u) is
    generated by the q_g = g / gcd(g, u) over g in gens(J'); q_g = x_k iff
    g misses u only at k and there g_k = u_k + 1.  With V the set of such k,
    (J' : u) is the prime (x_k : k in V) iff every g misses u at some k in
    V.  For J' = 0 it is the prime ().  For J' nonzero, V is empty below a
    path that every generator of J' misses twice (`at2` full), so that row
    is skipped too; the next row, a larger exponent, misses less and is
    still tried.
    """
    N = Subquotient(J, Jp)
    box = N.box()
    rows = [
        [_corner_row(J, Jp, k, e) for e in sorted({g[k] - 1 for g in Jp.gens if g[k]} | {box[k]})]
        for k in range(J.ring.nvars)
    ]
    nvars = len(rows)
    full = (1 << len(Jp.gens)) - 1
    # reach[k]: the generators of J' that some corner can miss at a coordinate >= k
    reach = [0] * (nvars + 1)
    for k in range(nvars - 1, -1, -1):
        reach[k] = reach[k + 1] | rows[k][0][1]
    path = [None] * nvars
    found = set()
    # a node (k, jin, at1, at2, row) took `row` at coordinate k - 1; popped
    # last in first out, it finds path[:k - 1] still holding its ancestors' rows
    stack = [(0, (1 << len(J.gens)) - 1, 0, 0, None)]
    while stack:
        k, jin, at1, at2, row = stack.pop()
        if k:
            path[k - 1] = row
        if k == nvars:
            once = at1 & ~at2  # the generators of J' that miss u at exactly one coordinate
            prime = [v for v in range(nvars) if path[v][2] & once]
            cover = 0
            for v in prime:
                cover |= path[v][1]
            if cover == full:
                found.add(frozenset(prime))
            continue
        for row in rows[k]:  # e ascending: jin grows, miss shrinks
            below = jin & row[0]
            if not below:
                continue  # no generator of J divides a corner below
            miss = row[1]
            if (at1 | miss | reach[k + 1]) != full:
                break  # some generator of J' divides every corner below
            twice = at2 | (at1 & miss)
            if full and twice == full:
                continue  # no corner below has a prime annihilator
            stack.append((k + 1, below, at1 | miss, twice, row))
    return found


def restrict_ideal(I: MonomialIdeal, Z) -> MonomialIdeal:
    """I intersected with K[Z], in the ring K[Z] built from I's (`sub_ring_for`)."""
    zvars = sorted(Z)
    gens = [
        tuple(g[z] for z in zvars)
        for g in I.gens
        if all(e == 0 for idx, e in enumerate(g) if idx not in Z)
    ]
    return minimal_generators(sub_ring_for(I.ring, Z), gens)


def sub_ring_for(ring: RingSpec, Z) -> RingSpec:
    """RingSpec of K[Z]; x-variables of Z first, preserving order."""
    m = sum(1 for z in Z if z < ring.m)
    n = len(Z) - m
    return RingSpec(m, n, ring.char)
