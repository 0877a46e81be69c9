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

Every Koszul and Cech term, every corner of `ass_subquotients` and every
exponent cell is decided by one rule on bitsets over the generators of J
and J' (`_corner_row`): the AND of the `jin` rows and the OR of the `miss`
rows of the coordinates.

Membership, colons and Cech pieces only change where an exponent crosses a
generator exponent, so the walks that need one degree per class visit
exponent cells instead of the whole exponent box.  `exponent_cells` is the
one walk over their product, in one form: it yields each cell with the
`_corner_row` of each coordinate at its corner, taken once per cell of the
coordinate by `_axis_cells`.  The Cech tables of `local_cohomology` pass
those rows to `_term_dims`; the fiber classes of `invariants.fibers`, on
every axis the empty one included, fold them into the generators of J and J'
at or below the corner (`cell_bitsets`).  One bound, MAX_CELLS, refuses
every product past it before a cell is walked.
`ass_subquotients` visits one corner exponent per bounded cell of J' and the
box on each coordinate, depth first, and skips every subtree whose corners
all lie outside every J or all inside J'; one walk answers for several J
over one J', and `ass_subquotient` is the walk for one J.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import prod

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
    support,
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
        return self.Jp.contains_ideal(self.J)


@lru_cache(maxsize=1024)
def _cyclic(I: MonomialIdeal) -> Subquotient:
    """The memo behind `Subquotient.cyclic`."""
    return Subquotient(unit_ideal(I.ring), I)


def _module_text(N: Subquotient) -> str:
    """N named for an error message, its ideals in canonical `render` form.

    N may be a module the engine built, such as a fiber over K[Z], so it is
    not called the input ideal; the CLI adds that after it.
    """
    if N.J.is_unit:
        return f"module S/I, I =\n{render_ideal(N.Jp)}"
    return f"module J/J', J then J' =\n{render_ideal(N.J)}{render_ideal(N.Jp)}"


def _corner_row(gens, Jp: MonomialIdeal, k: int, e: int) -> tuple:
    """Bitsets (jin, miss, one) over the generators at exponent e of coordinate k.

    `gens` are the generators of J (or, for `ass_subquotients`, those of
    several ideals one block after another).  Bit i of `jin` is set when
    gens[i] has g_k <= e; bit j of `miss` when generator j of J' has
    g_k > e, and of `one` when g_k == e + 1.  A
    monomial lies in J \\ J' iff the AND of the `jin` rows of its coordinates
    is nonzero and the OR of their `miss` rows holds every generator of J'.
    `_term_dims` (Koszul and Cech terms) and `ass_subquotients` test by this,
    and `cell_bitsets` folds the rows of an exponent cell by the same AND
    and OR.
    """
    jin = 0
    for i, g in enumerate(gens):
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
    a zero term and gets no entry.  Both are nonempty: `_complex_dims`
    gives rank 0 to a map from or to a zero level without building it.
    """
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
        if levels[j] and levels[j - 1]:
            lower = {s: n for n, s in enumerate(levels[j - 1])}
            ranks[j] = _boundary_rank(levels[j], lower, char)
    return [len(level) - ranks[j] - ranks[j + 1] for j, level in enumerate(levels)]


def _term_dims(N: Subquotient, rows, inside) -> list:
    """Homology dimensions of the complex on the variables `inside` in one fine degree.

    `rows[k]` is the `_corner_row` of coordinate k at the degree, which the
    term of sigma reads for k not in sigma, and `inside[k]` the row it reads
    for k in sigma; the term is nonzero iff the AND of the `jin` rows is
    nonzero and the OR of the `miss` rows holds every generator of J'.
    `koszul_dims_at` and `_cech_dims_at` build `rows` from their degree, and
    `local_cohomology._fiber_table` passes the rows `exponent_cells` gives
    with a cell.  One walk over the coordinates of `inside`, in ascending
    order, grows every node (a partial sigma with the AND of its `jin` rows
    and the OR of its `miss` rows) by leaving the coordinate out and by
    taking it in.  The AND only shrinks, so a branch is dropped once it is
    0, in a Koszul and a Cech degree alike: no term below it is nonzero.  A
    full-length sigma is kept iff its OR holds every generator of J'.
    Level j lists the kept sigma of size j.
    """
    jin, miss = (1 << len(N.J.gens)) - 1, 0
    steps = []  # (k, inside jin, inside miss, outside jin, outside miss)
    for k, row in enumerate(rows):
        if k in inside:
            steps.append((k, inside[k][0], inside[k][1], row[0], row[1]))
        else:
            jin &= row[0]
            miss |= row[1]
    full = (1 << len(N.Jp.gens)) - 1
    # a node (sigma, jin, miss) has taken or left out each coordinate walked so far
    nodes = [((), jin, miss)] if jin else []
    for k, in_jin, in_miss, out_jin, out_miss in steps:
        grown = []
        for sigma, jin, miss in nodes:
            if jin & out_jin:
                grown.append((sigma, jin & out_jin, miss | out_miss))
            if jin & in_jin:
                grown.append((sigma + (k,), jin & in_jin, miss | in_miss))
        nodes = grown
    levels = [[] for _ in range(len(steps) + 1)]
    for sigma, jin, miss in nodes:
        if miss == full:
            levels[len(sigma)].append(sigma)
    return _complex_dims(levels, N.ring.char)


def _degree_rows(N: Subquotient, b) -> tuple:
    """b read as a fine degree of N's ring, with the `_corner_row` of each coordinate at it.

    Each coordinate must be an integer (`_integer`, so a float or a string is
    a ValueError), and b must have one per variable of N's ring
    (DimensionMismatch).  The one degree rule of `koszul_dims_at` and
    `_cech_dims_at`, and so of `cech_piece_dim`; returns the checked degree
    and its rows.
    """
    b = tuple(_integer(e, "a degree coordinate") for e in b)
    if len(b) != N.ring.nvars:
        raise DimensionMismatch(f"degree {b} has wrong length for {N.ring}")
    return b, [_corner_row(N.J.gens, N.Jp, k, e) for k, e in enumerate(b)]


def koszul_dims_at(N: Subquotient, Z, b) -> list:
    """All Koszul homology dimensions [H_0 .. H_k] on the variables Z in fine degree b.

    The term of sigma is the piece of N at b - e_sigma, so a coordinate z in
    sigma reads the row at b_z - 1.  Where b_z = 0 that row holds no
    generator of J, so the walk of `_term_dims` drops every sigma holding z
    at once, and a complex in a degree of small support stays small however
    many variables the ring has.  Z is read by `RingSpec.axis` (ValueError
    for an entry that is no variable of N's ring) and b by `_degree_rows`.
    The scans call it with their checked axis, so the benchmark's tracer
    counts every Koszul degree, and each call reads Z again.
    """
    Z = N.ring.axis(Z)
    b, rows = _degree_rows(N, b)
    return _term_dims(N, rows, {z: _corner_row(N.J.gens, N.Jp, z, b[z] - 1) for z in Z})


def _refuse_scan(N: Subquotient, Z) -> frozenset:
    """Z read by `RingSpec.axis` (ValueError for an entry that is no variable
    of N's ring), then a proper axis refused (PreconditionFailed) and the
    zero module (ZeroModule); returns the checked axis, every variable.

    `betti_and_projdim` and `depth_module` call this before any other work,
    `depth_module` before it looks up its memo, and scan over the axis it
    returns, never over the Z they were given.
    """
    Z = N.ring.axis(Z)
    if Z != N.ring.all_vars():
        raise PreconditionFailed(f"Betti numbers are taken over all variables, not {sorted(Z)}")
    if N.is_zero:
        raise ZeroModule("Betti numbers of the zero module")
    return Z


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
    lattice of the generators of J and J' (`_lattice`).  Z is read by
    `_refuse_scan` and must be all variables of N's ring: an entry that is
    no variable is a ValueError, and any other axis is refused with
    PreconditionFailed before a degree is scanned.
    """
    Z = _refuse_scan(N, Z)
    betti = {}
    projdim = 0
    for _, b in _lattice(N):
        for j, d in enumerate(koszul_dims_at(N, Z, b)):
            if d:
                betti[(j, b)] = d
                projdim = max(projdim, j)
    return betti, projdim


# the depth of each module over all its variables, keyed by the module;
# the oldest entry is dropped when the dict is full
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
        raise InternalCheckFailed(f"Ass height {low} exceeds the Taylor length {high}; {_module_text(N)}")
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

    Z is read by `_refuse_scan`, the rule of `betti_and_projdim`, before
    the memo is looked up, so a call refused cold is refused warm.  The
    one legal axis is every variable, so the memo is keyed on N alone.
    """
    Z = _refuse_scan(N, Z)
    depth = _depth_cache.get(N)
    if depth is not None:
        return depth
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
        _depth_cache[N] = depth
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


def _cech_dims_at(N: Subquotient, Z: frozenset, c) -> list:
    """All Cech cohomology dimensions [H^0 .. H^k] of N on the variables Z in fine degree c.

    Coordinates on Z may be negative.  The term of sigma is the piece of N
    localized at the variables of sigma, where every generator of J passes
    and none of J' misses, so a coordinate in sigma reads that constant row.
    Where c_z < 0 the row outside sigma holds no generator of J, so the walk
    of `_term_dims` drops every sigma without z at once.
    The answer is all zeros when c_z is at least the largest exponent of a
    generator at some z in Z (`_axis_cells`), so the tables of
    local_cohomology have no such cell; a direct call still builds its
    complex.  Z must be an axis already checked, as `cech_piece_dim` passes
    it; c is read by `_degree_rows`, the rule of `koszul_dims_at`.  The
    tables build the same complex per cell from the rows `exponent_cells`
    gives with it.
    """
    _, rows = _degree_rows(N, c)
    return _term_dims(N, rows, dict.fromkeys(Z, _localized_row(N)))


def _localized_row(N: Subquotient) -> tuple:
    """The row of a coordinate in sigma of a Cech term: every generator of J
    passes and no generator of J' misses once its variable is inverted."""
    return (1 << len(N.J.gens)) - 1, 0


def _lc_index(i, Z: frozenset) -> int:
    """i as an index of H^i_Z: an integer (`_integer`, so a float or a
    string is a ValueError) in 0..|Z|, or PreconditionFailed.  The one index
    rule of `cech_piece_dim`, `local_cohomology.lc_report` and
    `local_cohomology.growth_scan`, each of which reads Z first."""
    i = _integer(i, "the local cohomology index")
    if not 0 <= i <= len(Z):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    return i


def cech_piece_dim(N: Subquotient, Z, i: int, c) -> int:
    """dim_K of H^i_Z(N) in fine degree c (coordinates on Z may be negative).

    Z goes through `RingSpec.axis` first, so a variable outside the ring is
    a ValueError, then i through `_lc_index`, then c through `_cech_dims_at`'s
    degree rule (`_degree_rows`): a degree of the wrong length is a
    DimensionMismatch and a non-integer coordinate a ValueError.
    """
    Z = N.ring.axis(Z)
    i = _lc_index(i, Z)
    return _cech_dims_at(N, Z, c)[i]


def _axis_cells(N: Subquotient, k: int, cech=False) -> list:
    """Exponent cells of coordinate k for the generators of J and J', as (start, length, row).

    With d_0 = 0 < d_1 < ... < d_r the distinct exponents of the generators
    at k, the cells are [d_j, d_{j+1} - 1] and the cap [d_r, inf) (length
    None).  Whether g_k <= e holds for a generator g is constant on a cell,
    so its `row` is the (jin, miss) pair of `_corner_row(J.gens, J', k,
    start)`, the rule every Koszul and Cech term reads.

    A Cech coordinate gets the class (-1, None) of all negative exponents
    first, with the row (0, every generator of J'), and no cap: the Cech
    cohomology of J/J' on any variables that include the k-th vanishes in
    every degree c with c_k >= d_r (for S/I this is Takayama's vanishing).
    There the row `_corner_row(J.gens, J', k, c_k)` holds all of J and none of
    J', the row of the localized coordinate, so the term of sigma without k
    equals the term of sigma with k and the Cech complex in degree c is the
    cone of an isomorphism: multiplication by the k-th variable is bijective
    on J/J' from d_r on.  The cone is acyclic.
    """
    d = sorted({0, *(g[k] for g in N.J.gens + N.Jp.gens)})
    cells = [(-1, None, (0, (1 << len(N.Jp.gens)) - 1))] if cech else []
    # d_r starts the cap, which a Cech coordinate does not have
    for e, end in zip(d, d[1:] if cech else d[1:] + [None]):
        cells.append((e, end - e if end else None, _corner_row(N.J.gens, N.Jp, k, e)[:2]))
    return cells


def cell_bitsets(N: Subquotient, rows) -> tuple:
    """(jin, jpin): the generators of J and of J' dividing a cell's corner on its coordinates.

    `rows` are the cell's `_corner_row` pairs from `exponent_cells`, and the
    fold is the rule of `_corner_row`: `jin` is the AND of the `jin` rows and
    `jpin` the complement of the OR of the `miss` rows.  Both are empty on a
    -1 class, whose row holds no generator of J and misses every one of J'.
    """
    jin, miss = (1 << len(N.J.gens)) - 1, 0
    for j, m in rows:
        jin &= j
        miss |= m
    return jin, ((1 << len(N.Jp.gens)) - 1) ^ miss


# the most cells `exponent_cells` walks: 8x the largest fiber product (2^14)
# and 512x the largest Cech table (2^8) that any golden command line, Tier-1
# input or benchmark query reaches; at 2^17 `seqcm` on x1*...*x17 peaks at
# about 100 MB
MAX_CELLS = 2 ** 17


def exponent_cells(N: Subquotient, coords, cech=frozenset()):
    """The products of the exponent cells of N over coords, in lex order of corners.

    An iterator of (corner, lengths, rows), one per cell: the smallest
    exponent of the cell on each of coords, the cell lengths (None for the
    cap and the -1 class, each of which stands for infinitely many
    exponents), and the (jin, miss) `_corner_row` of each of coords at the
    corner.  The cells come from the generators of J and J', so membership,
    colons and Cech pieces of N are constant on a cell.  Coordinates in
    `cech` get the -1 class and their bounded cells only: the Cech
    cohomology of N vanishes on their caps (`_axis_cells`), so a coordinate
    no generator uses adds one cell.  Each coordinate's cells and rows are
    built once, by `_axis_cells`, and the iterator holds one cell at a time.

    This is the package's one walk over exponent cells, with one row rule:
    `local_cohomology._fiber_table` passes each cell's rows to `_term_dims`
    as the outside rows of its Cech complex, and `invariants._fibers` folds
    them with `cell_bitsets`.  A product of more than MAX_CELLS cells is
    refused (PreconditionFailed) for every caller, before the first cell is
    walked.
    """
    axes = [_axis_cells(N, k, k in cech) for k in coords]
    cells = prod(len(axis) for axis in axes)
    if cells > MAX_CELLS:
        raise PreconditionFailed(
            f"homology.exponent_cells: {cells} exponent cells exceed the bound {MAX_CELLS}; {_module_text(N)}"
        )
    # the corners, the lengths and the rows of the cells, one product each
    return zip(*(product(*([cell[i] for cell in axis] for axis in axes)) for i in range(3)))


def ass_subquotient(J: MonomialIdeal, Jp: MonomialIdeal) -> set:
    """Ass of the module J/J': the walk of `ass_subquotients` for J alone."""
    return ass_subquotients([J], Jp)[0]


def ass_subquotients(Js, Jp: MonomialIdeal) -> list:
    """Ass(J/J') for each J of Js, by one walk over the corner monomials of J'.

    Each J must contain J' (ValueError otherwise, as for `Subquotient`).
    If (J' : u) = P is prime for u in J \\ J', then raising u_k to the box on a
    variable k outside P keeps u in J and its annihilator P, and on a variable
    k of P some generator g of J' has g_k = u_k + 1.  So it suffices to try
    u_k in {g_k - 1 : g in gens(J'), g_k >= 1} (the last exponent of each
    bounded cell of J') together with box_k.  The box is the lcm box of J'
    and every J of Js, so the candidates are complete for each J at once,
    and the annihilator found at a corner is exact whichever J holds it.

    The corners are walked depth first on an explicit stack, as a ring may
    have more variables than the interpreter's recursion limit, one
    coordinate at a time, on bitsets over the generators (`_corner_row`):
    those of J_1, J_2, ... one block after another.  The AND of the `jin`
    rows along the path holds the generators of the Js that divide every
    corner below it, and a subtree is skipped once it is 0; a prime found
    at a leaf goes to each J whose block of the AND is nonzero.
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
    still tried.  `filtration` checks the Ass of every step of a ladder over
    I by one such walk.
    """
    gens, blocks, box = [], [], Jp.max_exponents()
    for J in Js:
        Subquotient(J, Jp)  # one ring, and J' inside J
        blocks.append(((1 << len(J.gens)) - 1) << len(gens))
        gens += J.gens
        box = lcm(box, J.max_exponents())
    rows = [
        [_corner_row(gens, Jp, k, e) for e in sorted({g[k] - 1 for g in Jp.gens if g[k]} | {box[k]})]
        for k in range(Jp.ring.nvars)
    ]
    nvars = len(rows)
    full = (1 << len(Jp.gens)) - 1
    # reach[k]: the generators of J' that some corner can miss at a coordinate >= k
    reach = [0] * (nvars + 1)
    for k in range(nvars - 1, -1, -1):
        reach[k] = reach[k + 1] | rows[k][0][1]
    path = [None] * nvars
    found = [set() for _ in blocks]
    # a node (k, jin, at1, at2, row) took `row` at coordinate k - 1; popped
    # last in first out, it finds path[:k - 1] still holding its ancestors' rows
    stack = [(0, (1 << len(gens)) - 1, 0, 0, None)]
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
                prime = frozenset(prime)
                for block, primes in zip(blocks, found):
                    if jin & block:
                        primes.add(prime)
            continue
        for row in rows[k]:  # e ascending: jin grows, miss shrinks
            below = jin & row[0]
            if not below:
                continue  # no generator of any J divides a corner below
            miss = row[1]
            if (at1 | miss | reach[k + 1]) != full:
                break  # some generator of J' divides every corner below
            twice = at2 | (at1 & miss)
            if full and twice == full:
                continue  # no corner below has a prime annihilator
            stack.append((k + 1, below, at1 | miss, twice, row))
    return found


def restrict_ideal(I: MonomialIdeal, Z) -> MonomialIdeal:
    """I intersected with K[Z], in the ring K[Z] built from I's.

    Z is read by `RingSpec.axis`, so an entry that is no variable of I's
    ring is a ValueError and a list answers as its set.
    """
    return _restrict_ideal(I, I.ring.axis(Z))


def _restrict_ideal(I: MonomialIdeal, Z: frozenset) -> MonomialIdeal:
    """The core of `restrict_ideal`, for an axis already checked.

    I cap K[Z] is generated by the generators of I whose `support` lies in
    Z, read in the variables of K[Z] (`_sub_ring_for`).
    """
    zvars = sorted(Z)
    gens = [tuple(g[z] for z in zvars) for g in I.gens if support(g) <= Z]
    return minimal_generators(_sub_ring_for(I.ring, Z), gens)


def _sub_ring_for(ring: RingSpec, Z: frozenset) -> RingSpec:
    """RingSpec of K[Z]; x-variables of Z first, preserving order.

    Z must be an axis already checked: it takes no other reading here.
    """
    m = sum(1 for z in Z if z < ring.m)
    n = len(Z) - m
    return RingSpec(m, n, ring.char)
