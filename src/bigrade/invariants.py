"""grade, cohomological dimension, mgrade and the maximal-depth verdicts.

Everything is driven by the fiber decomposition: slicing a subquotient along
the exponents of the variables outside the chosen axis Z leaves a finite list
of K[Z]-module classes (colon ideals stabilize at the generator caps), and
H^i_Z of the module is the direct sum of the fibers' local cohomologies.
A slice's class is read off the rows `homology.exponent_cells` gives with
each cell, folded by `homology.cell_bitsets` into the generators dividing
the slice, whose minimal Z-parts generate its restricted colons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional

from .errors import InternalCheckFailed, UnitIdeal, WrongBlock, ZeroModule
from .homology import (
    Subquotient,
    _restrict_ideal,
    _sub_ring_for,
    cell_bitsets,
    depth_module,
    dim_module,
    exponent_cells,
)
from .rings import (
    MonomialIdeal,
    _check_same_ring,
    _minimal,
    associated_primes,
    dim_quotient,
    sum_ideal,
    support,
)


@dataclass(frozen=True)
class FiberClass:
    """A class of x-slices with a common capped colon pattern and a nonzero fiber.

    `patterns` holds the smallest pattern (over the complement of Z, in
    complement order) of each exponent cell whose colon pair is the class's,
    in lex order, so `patterns[0]` is the smallest slice of the class;
    `lengths` holds each of those cells' lengths per coordinate, in the same
    order (None for a cap, which stands for infinitely many exponents).
    """

    patterns: tuple
    lengths: tuple
    fiber: Subquotient

    @property
    def infinite_family(self) -> bool:
        """True when the class stands for infinitely many slices (a capped cell)."""
        return any(None in ns for ns in self.lengths)

    @property
    def n_single(self) -> int:
        """The number of slices in the class's bounded cells."""
        return sum(prod(ns) for ns in self.lengths if None not in ns)


@dataclass(frozen=True)
class InvariantReport:
    grade: int
    cd: int
    mgrade: int
    dim: int
    maximal_depth: bool
    witness_prime: Optional[frozenset]
    cm_wrt_Z: bool
    cm_ordinary: bool

    def __post_init__(self):
        if not (self.grade <= self.mgrade <= self.cd <= self.dim):
            raise InternalCheckFailed(
                f"invariant chain violated: grade={self.grade} mgrade={self.mgrade} "
                f"cd={self.cd} dim={self.dim}"
            )
        if self.maximal_depth != (self.grade == self.mgrade):
            raise InternalCheckFailed("maximal_depth flag inconsistent with grade/mgrade")


def fibers(N: Subquotient, Z) -> list:
    """Fiber decomposition of N along the complement of Z, merged by colon pair.

    The restricted colons (J : u), (J' : u) only change where u crosses a
    generator exponent, so one slice per exponent cell of the complement
    stands for the whole cell.  Only the classes whose fiber is nonzero are
    listed, as only they contribute to H^i_Z(N); a nonzero N has at least
    one.  The decomposition is computed once per (N, Z) and kept in a
    bounded memo; each call returns a fresh list.  The engine's cores call
    `fibers`, not `_fibers`, so the benchmark's tracer counts every fiber
    decomposition, and each call reads Z again.
    """
    return list(_fibers(N, N.ring.axis(Z)))


@lru_cache(maxsize=256)
def _fibers(N: Subquotient, Z: frozenset) -> tuple:
    """The memo behind `fibers`, for an axis already checked.

    A slice u is supported off Z, so (J : u) cap K[Z] is generated by the
    Z-parts of the generators g of J with g_k <= u_k for every k off Z.
    `homology.exponent_cells` over the complement gives each cell with its
    corner rows, `homology.cell_bitsets` folds them into the bitsets of
    those generators of J and of J' at its corner, and the cells are
    grouped by that pair first; a complement of more than
    `homology.MAX_CELLS` cells is refused before its first cell.  Then
    each distinct bitset of each ideal is turned into its restricted colon
    once, as the minimal generators of the selected Z-parts
    (`_restricted_colons`), and groups with equal colon pairs merge into
    one class.

    The restricted colon of J' lies in that of J, so a class's fiber is zero
    iff the two have the same minimal generators, and such a class is
    dropped.  A nonzero N keeps at least one class: a generator g of J
    outside J' has its complement part as the corner of a cell, and there
    g's Z-part lies in the restricted colon of J but not in that of J', as a
    generator of J' dividing both parts of g would divide g.

    Classes come in order of first cell, and each keeps the corners and the
    lengths of its cells in lex order of corners, so its readers
    (`n_single`, `infinite_family` and `local_cohomology.growth_scan`) walk
    no cell again.

    An empty axis takes the same route.  The complement is every
    coordinate, each restricted colon is (1) or (0) in the point ring K[],
    and the one class, of the cells whose corner lies in J and not in J',
    has the fiber K = K[]/(0): along no variable, H^0 of N is N itself.
    """
    if N.is_zero:
        raise ZeroModule("fiber decomposition of the zero module")
    ring = N.ring
    comp = tuple(k for k in range(ring.nvars) if k not in Z)
    groups = {}  # (jin, jpin) -> its cells, in lex order
    for corner, lengths, rows in exponent_cells(N, comp):
        groups.setdefault(cell_bitsets(N, rows), []).append((corner, lengths))

    zvars = sorted(Z)
    J_colons = _restricted_colons(N.J.gens, zvars, {jin for jin, _ in groups})
    Jp_colons = _restricted_colons(N.Jp.gens, zvars, {jpin for _, jpin in groups})
    classes = {}  # in order of first cell
    for (jin, jpin), cells in groups.items():
        key = (J_colons[jin], Jp_colons[jpin])
        if key[0] != key[1]:
            classes.setdefault(key, []).extend(cells)

    sub = _sub_ring_for(ring, Z)
    out = []
    for (J_gens, Jp_gens), cells in classes.items():
        patterns, lengths = zip(*sorted(cells))  # corners are distinct: only they are compared
        fiber = Subquotient(MonomialIdeal(sub, J_gens), MonomialIdeal(sub, Jp_gens))
        out.append(FiberClass(patterns, lengths, fiber))
    return tuple(out)


def _restricted_colons(gens, zvars, sels) -> dict:
    """Each bitset in sels -> the minimal generators, lex-sorted, of the
    Z-parts of the generators it selects.

    The parts are sorted once, and the selected ones, still in lex order,
    go through `rings._minimal`, the one pass `minimal_generators` also
    reads.  Two generators may share a Z-part, and the pass keeps it once.
    """
    parts = sorted((tuple(map(g.__getitem__, zvars)), i) for i, g in enumerate(gens))
    return {sel: _minimal([u for u, i in parts if sel >> i & 1]) for sel in sels}


def grade(N: Subquotient, Z) -> int:
    """min{i : H^i_Z(N) != 0} = min depth over the fibers."""
    return _grade(N, N.ring.axis(Z))


def _grade(N: Subquotient, Z: frozenset) -> int:
    """The core of `grade`, for an axis already checked.

    It reads the fibers and their depths through `fibers` and
    `depth_module`, the entry points whose calls the benchmark's tracer
    counts, so each of those reads its axis again.
    """
    return min(depth_module(fc.fiber, fc.fiber.ring.all_vars()) for fc in fibers(N, Z))


def cd(N: Subquotient, Z) -> int:
    """max{i : H^i_Z(N) != 0} = max Krull dimension over the fibers.

    The value and its cross-check are computed once per (N, Z) and kept in
    a bounded memo.
    """
    return _cd(N, N.ring.axis(Z))


@lru_cache(maxsize=256)
def _cd(N: Subquotient, Z: frozenset) -> int:
    """The memo behind `cd`, for an axis already checked.

    A raised InternalCheckFailed is not cached, so every reader sees it.
    """
    value = max(dim_module(fc.fiber) for fc in fibers(N, Z))
    if N.J.is_unit:
        # cyclic case cross-check: cd(Z, S/I) = dim S/(I + P') for the ideal
        # P' of the variables off Z, and S/(I + P') is K[Z]/(I cap K[Z])
        expected = dim_quotient(_restrict_ideal(N.Jp, Z))
        if expected != value:
            raise InternalCheckFailed(
                f"cd mismatch: fibers give {value}, dim S/(I+P') gives {expected}"
            )
    return value


def _cd_prime(p: frozenset, Z: frozenset) -> int:
    """cd(Z, S/p) for a variable prime p: the Z-variables avoiding p.

    Z must be an axis already checked: it has no ring to be read against.
    """
    return len(Z - p)


@lru_cache(maxsize=256)
def _ass_by_cd(I: MonomialIdeal, Z: frozenset) -> tuple:
    """Ass(S/I) grouped by cd(Z, S/p) = |Z \\ p|: ((gamma, primes), ...), ascending in gamma.

    The package's one reading of that grouping: the least gamma is mgrade,
    and the gammas and their classes are the thresholds gamma_1 < ... <
    gamma_r of the dimension filtration and the primes of its steps.  It is
    read off `associated_primes` (the decomposition memo) once per (I, Z)
    and kept in a bounded memo; the value is a tuple of frozensets, so its
    readers share it.  Z must be an axis already checked: it is the memo's
    key, so one axis keys one entry.
    """
    classes = {}
    for p in associated_primes(I):
        classes.setdefault(_cd_prime(p, Z), set()).add(p)
    return tuple((gamma, frozenset(classes[gamma])) for gamma in sorted(classes))


def _quotient_axis(I: MonomialIdeal, Z, what: str) -> frozenset:
    """Z read by `RingSpec.axis`, after refusing the zero module S/S with
    UnitIdeal("<what> of the zero module").

    The boundary rule of each public function that takes (S/I, Z): it reads
    them here once and hands the checked frozenset to its core, and the
    engine calls the cores.  `ordinary_depth`, which takes no axis, words
    its own refusal."""
    if I.is_unit:
        raise UnitIdeal(f"{what} of the zero module")
    return I.ring.axis(Z)


def mgrade(I: MonomialIdeal, Z) -> int:
    """min of cd over the associated primes of S/I."""
    return _mgrade(I, _quotient_axis(I, Z, "mgrade"))


def _mgrade(I: MonomialIdeal, Z: frozenset) -> int:
    """The core of `mgrade`, for an axis already checked: the first gamma of `_ass_by_cd`."""
    return _ass_by_cd(I, Z)[0][0]


def analyze(I: MonomialIdeal, Z) -> InvariantReport:
    """Full invariant report of S/I with respect to the axis Z.

    (S/I, Z) is read once, by `_quotient_axis`: S/S is refused with
    UnitIdeal("analyze of the zero module"), and `_analyze` reads the
    checked axis, so an iterator is read once too.
    """
    return _analyze(I, _quotient_axis(I, Z, "analyze"))


def _analyze(I: MonomialIdeal, Z: frozenset) -> InvariantReport:
    """The core of `analyze`, for a proper I and an axis already checked."""
    N = Subquotient.cyclic(I)
    g = _grade(N, Z)
    c = _cd(N, Z)
    mg = _mgrade(I, Z)
    d = dim_quotient(I)
    depth = ordinary_depth(I)
    # grade(Z, M) <= grade(m, M) = depth M as Z lies in m, and depth M <= dim S/p
    # for every p in Ass(M): the fiber scans checked against the full-ring scan
    if not (g <= depth <= d):
        raise InternalCheckFailed(f"depth out of range: grade={g} depth={depth} dim={d}")
    maximal = g == mg
    witness = None
    if maximal:
        # the least prime of the first class, whose cd is mgrade = grade
        witness = min(_ass_by_cd(I, Z)[0][1], key=sorted)
    return InvariantReport(
        grade=g,
        cd=c,
        mgrade=mg,
        dim=d,
        maximal_depth=maximal,
        witness_prime=witness,
        cm_wrt_Z=(g == c),
        cm_ordinary=(depth == d),
    )


def ordinary_depth(I: MonomialIdeal) -> int:
    """depth of S/I over the full ring."""
    if I.is_unit:
        raise UnitIdeal("depth of the zero module")
    return depth_module(Subquotient.cyclic(I), I.ring.all_vars())


def _check_block(I: MonomialIdeal, block: frozenset, label: str):
    for g in I.gens:
        if not support(g) <= block:
            raise WrongBlock(f"generator {g} of the {label}-ideal leaves its block")


def tensor_verdict(Ix: MonomialIdeal, Iy: MonomialIdeal) -> dict:
    """Maximal depth w.r.t. Q of S/(Ix + Iy) for block ideals Ix in K[x], Iy in K[y].

    Runs the product-module assertions alongside: Ass is the set of prime sums
    and grade and mgrade agree with depth and mgrade over all variables of K[y]/Iy.
    """
    _check_same_ring(Ix, Iy)
    ring = Ix.ring
    _check_block(Ix, ring.x_block(), "x")
    _check_block(Iy, ring.y_block(), "y")
    if Ix.is_unit or Iy.is_unit:
        raise UnitIdeal("block ideal must be proper")

    I = sum_ideal(Ix, Iy)
    rep = _analyze(I, ring.y_block())

    Iy_small = _restrict_ideal(Iy, ring.y_block())
    depth_y = ordinary_depth(Iy_small)
    mdepth_y = _mgrade(Iy_small, Iy_small.ring.all_vars())
    verdict = depth_y == mdepth_y

    if rep.maximal_depth != verdict or rep.grade != depth_y or rep.mgrade != mdepth_y:
        raise InternalCheckFailed(
            f"tensor invariants disagree: grade={rep.grade} vs depth={depth_y}, "
            f"mgrade={rep.mgrade} vs mdepth={mdepth_y}"
        )

    # Ass of the product module is the set of sums of block primes
    expected = {
        frozenset(px) | frozenset(ring.m + i for i in py)
        for px in associated_primes(_restrict_ideal(Ix, ring.x_block()))
        for py in associated_primes(Iy_small)
    }
    if associated_primes(I) != expected:
        raise InternalCheckFailed("Ass of the product module is not the set of prime sums")

    return {"verdict": verdict}
