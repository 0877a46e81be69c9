"""Fine-degree Koszul and Cech homology of monomial subquotients.

A subquotient J/J' has a monomial K-basis (monomials in J but not J'), so in
each fine degree every term of a Koszul or Cech complex is 0- or 1-dimensional
and the differentials are 0/+-1 matrices.  All dimensions come out of exact
integer ranks over the ring's configured characteristic.

Betti numbers and depths are taken over all variables of the module's
ring.  There they live only in degrees of the lcm lattice of the generators
of J and J' (the Taylor resolution and the long exact Tor sequence of
0 -> J' -> J -> J/J' -> 0, Gasharov-Peeva-Welker 1999), so the Betti scan
visits those degrees and no others.  Every Koszul and Cech differential is
the boundary map of sorted index tuples, built by one routine, and each
complex in a fine degree is built once and read at every index.

Every Koszul and Cech term, and every corner of `ass_subquotient`, is
decided by one rule on bitsets over the generators of J and J' (`_corner_row`).

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
from itertools import combinations, product

from . import kernels
from .errors import PreconditionFailed, RingMismatch, ZeroModule
from .rings import (
    MonomialIdeal,
    RingSpec,
    colon_ideal,
    dim_quotient,
    lcm,
    minimal_generators,
    unit_ideal,
)

AxisIdeal = frozenset  # nonempty subset of variable indices


@dataclass(frozen=True)
class Subquotient:
    """The module J/J' for monomial ideals J' <= J; S/I is pair (S, I)."""

    ring: RingSpec
    J: MonomialIdeal
    Jp: MonomialIdeal

    def __post_init__(self):
        if self.J.ring != self.ring or self.Jp.ring != self.ring:
            raise RingMismatch("subquotient ideals must share the ambient ring")
        if not self.J.contains_ideal(self.Jp):
            raise ValueError("J' must be contained in J")

    @classmethod
    def cyclic(cls, I: MonomialIdeal) -> "Subquotient":
        return cls(I.ring, unit_ideal(I.ring), I)

    @property
    def is_zero(self) -> bool:
        return all(self.Jp.contains(g) for g in self.J.gens)

    def box(self) -> tuple:
        """Componentwise max generator exponent of J and J' (the lcm box)."""
        bj = self.J.max_exponents()
        bp = self.Jp.max_exponents()
        return tuple(max(a, b) for a, b in zip(bj, bp))


def fine_piece(N: Subquotient, c) -> int:
    """1 iff the monomial with exponent c >= 0 lies in J \\ J'."""
    c = tuple(c)
    if any(e < 0 for e in c):
        return 0
    return 1 if (N.J.contains(c) and not N.Jp.contains(c)) else 0


def _corner_row(J: MonomialIdeal, Jp: MonomialIdeal, k: int, e: int) -> tuple:
    """Bitsets (jin, miss, one) over the generators at exponent e of coordinate k.

    Bit i of `jin` is set when generator i of J has g_k <= e; bit j of `miss`
    when generator j of J' has g_k > e, and of `one` when g_k == e + 1.  A
    monomial lies in J \\ J' iff the AND of the `jin` rows of its coordinates
    is nonzero and the OR of their `miss` rows holds every generator of J'.
    `_term_dims` (Koszul and Cech terms) and `ass_subquotient` test by this.
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
    in sigma.  A coordinate whose inside row holds no generator of J is in no
    nonzero term (a Koszul coordinate with deg_k = 0), and one whose outside
    row holds none is in every nonzero term (a negative Cech coordinate), so
    only the sigma of those forced coordinates plus a subset of the free ones
    are tested.  Level j lists them in the order of `combinations(zvars, j)`.
    """
    J, Jp = N.J, N.Jp
    zvars = sorted(inside)
    jin0, miss0 = (1 << len(J.gens)) - 1, 0
    outside = {}
    for k, e in enumerate(deg):
        row = _corner_row(J, Jp, k, e)
        if k in inside:
            outside[k] = row
        else:
            jin0 &= row[0]
            miss0 |= row[1]
    forced = tuple(z for z in zvars if not outside[z][0])
    free = [z for z in zvars if z not in forced and inside[z][0]]
    full = (1 << len(Jp.gens)) - 1
    levels = [[] for _ in range(len(zvars) + 1)]
    for r in range(len(free) + 1):
        for subset in combinations(free, r):
            sigma = tuple(sorted(forced + subset))
            jin, miss = jin0, miss0
            for z in zvars:
                row = inside[z] if z in sigma else outside[z]
                jin &= row[0]
                miss |= row[1]
            if jin and miss == full:
                levels[len(sigma)].append(sigma)
    return _complex_dims(levels, N.ring.char)


def koszul_dims_at(N: Subquotient, zvars, b) -> list:
    """All Koszul homology dimensions [H_0 .. H_k] on the variables zvars in fine degree b.

    The term of sigma is the piece of N at b - e_sigma, so a coordinate z in
    sigma reads the row at b_z - 1.
    """
    return _term_dims(N, b, {z: _corner_row(N.J, N.Jp, z, b[z] - 1) for z in zvars})


def koszul_homology_dim(N: Subquotient, Z, j: int, b) -> int:
    if not (0 <= j <= len(Z)):
        raise PreconditionFailed(f"index {j} outside [0, {len(Z)}]")
    return koszul_dims_at(N, Z, b)[j]


def _lcm_closure(monomials) -> set:
    """The lcms of all nonempty subsets of `monomials` (their lcm lattice)."""
    closure = set()
    for g in monomials:
        closure |= {lcm(g, c) for c in closure}
        closure.add(g)
    return closure


def betti_and_projdim(N: Subquotient, Z):
    """Graded Betti numbers over all variables of N's ring and the projective dimension.

    Betti numbers are read off Koszul homology at the lcms of the generators
    of J and J', in sorted order.  Z must be all variables of N's ring;
    PreconditionFailed refuses any other Z before a degree is scanned.
    """
    if frozenset(Z) != N.ring.all_vars():
        raise PreconditionFailed(f"Betti numbers are taken over all variables, not {sorted(Z)}")
    if N.is_zero:
        raise ZeroModule("Betti numbers of the zero module")
    betti = {}
    projdim = 0
    for b in sorted(_lcm_closure(N.J.gens + N.Jp.gens)):
        for j, d in enumerate(koszul_dims_at(N, Z, b)):
            if d:
                betti[(j, b)] = d
                projdim = max(projdim, j)
    return betti, projdim


# depths and dimensions of modules, oldest entry dropped when a dict is full
CACHE_SIZE = 4096
_depth_cache: dict = {}
_dim_cache: dict = {}
_cache_lock = threading.Lock()


def _remember(cache: dict, key, value):
    with _cache_lock:
        if len(cache) >= CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = value
    return value


def depth_module(N: Subquotient, Z) -> int:
    """depth over all variables Z of N's ring via Auslander-Buchsbaum: |Z| - projdim."""
    key = (N, frozenset(Z))
    depth = _depth_cache.get(key)
    if depth is not None:
        return depth
    _, projdim = betti_and_projdim(N, Z)
    return _remember(_depth_cache, key, len(Z) - projdim)


def dim_module(N: Subquotient) -> int:
    """Krull dimension of J/J' via its annihilator (J' : J)."""
    dim = _dim_cache.get(N)
    if dim is not None:
        return dim
    ann = colon_ideal(N.Jp, N.J)
    if ann.is_unit:
        raise ZeroModule("dimension of the zero module")
    return _remember(_dim_cache, N, dim_quotient(ann))


def cech_dims_at(N: Subquotient, Z, c) -> list:
    """All Cech cohomology dimensions [H^0 .. H^k] of N on the variables Z in fine degree c.

    Coordinates on Z may be negative.  The term of sigma is the piece of N
    localized at the variables of sigma, where every generator of J passes
    and none of J' misses, so a coordinate in sigma reads that constant row.
    The answer is all zeros when c_z is at least the largest exponent of a
    generator at some z in Z (`_axis_cells`), so `_fiber_table` in
    local_cohomology never asks for such a degree; a direct call still
    builds its complex.
    """
    every = ((1 << len(N.J.gens)) - 1, 0)
    return _term_dims(N, c, dict.fromkeys(Z, every))


def cech_piece_dim(N: Subquotient, Z, i: int, c) -> int:
    """dim_K of H^i_Z(N) in fine degree c (coordinates on Z may be negative)."""
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
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

    The corners are walked depth first, one coordinate at a time, on bitsets
    over the generators (`_corner_row`).  The AND of the `jin` rows along the
    path holds the generators of J that divide every corner below it, and a
    subtree is skipped once it is 0.  Bit-sliced counters `at1` and `at2` hold
    the generators of J' that miss the path (exceed it) in at least one and in
    at least two coordinates; a subtree is also skipped once some generator
    can no longer miss, as then it divides every corner below.  At a corner u
    outside J', (J' : u) is generated by the q_g = g / gcd(g, u) over g in
    gens(J'); q_g = x_k iff g misses u only at k and there g_k = u_k + 1.
    With V the set of such k, (J' : u) is the prime (x_k : k in V) iff every g
    misses u at some k in V.  For J' = 0 it is the prime ().
    """
    N = Subquotient(J.ring, J, Jp)
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

    def walk(k, jin, at1, at2):
        for row in rows[k]:  # e ascending: jin grows, miss shrinks
            below = jin & row[0]
            if not below:
                continue  # no generator of J divides a corner below
            miss = row[1]
            if (at1 | miss | reach[k + 1]) != full:
                break  # some generator of J' divides every corner below
            path[k] = row
            a1, a2 = at1 | miss, at2 | (at1 & miss)
            if k + 1 < nvars:
                walk(k + 1, below, a1, a2)
                continue
            once = a1 & ~a2  # the generators of J' that miss u at exactly one coordinate
            prime = [v for v in range(nvars) if path[v][2] & once]
            cover = 0
            for v in prime:
                cover |= path[v][1]
            if cover == full:
                found.add(frozenset(prime))

    walk(0, (1 << len(J.gens)) - 1, 0, 0)
    return found


def restrict_ideal(I: MonomialIdeal, Z, sub_ring: RingSpec) -> MonomialIdeal:
    """I intersected with K[Z], re-indexed into sub_ring (variables of Z in order)."""
    zvars = sorted(Z)
    gens = [
        tuple(g[z] for z in zvars)
        for g in I.gens
        if all(e == 0 for idx, e in enumerate(g) if idx not in Z)
    ]
    return minimal_generators(sub_ring, gens)


def sub_ring_for(ring: RingSpec, Z) -> RingSpec:
    """RingSpec of K[Z]; x-variables of Z first, preserving order."""
    m = sum(1 for z in Z if z < ring.m)
    n = len(Z) - m
    return RingSpec(m, n, ring.char)
