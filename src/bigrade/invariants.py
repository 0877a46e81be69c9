"""grade, cohomological dimension, mgrade and the maximal-depth verdicts.

Everything is driven by the fiber decomposition: slicing a subquotient along
the exponents of the variables outside the chosen axis Z leaves a finite list
of K[Z]-module classes (colon ideals stabilize at the generator caps), and
H^i_Z of the module is the direct sum of the fibers' local cohomologies.
A slice's class is read off the bitsets of `homology._corner_row`: the
generators dividing the slice, and of those the ones whose Z-part no other
selected Z-part divides (of equal ones the lower index), which are exactly
the minimal generators of its restricted colons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Optional

from .errors import InternalCheckFailed, PreconditionFailed, UnitIdeal, WrongBlock, ZeroModule
from .homology import (
    Subquotient,
    _axis_cells,
    _corner_row,
    depth_module,
    dim_module,
    restrict_ideal,
    sub_ring_for,
)
from .rings import (
    MonomialIdeal,
    _check_same_ring,
    associated_primes,
    dim_quotient,
    divides,
    sum_ideal,
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
    bounded memo; each call returns a fresh list.
    """
    return list(_fibers(N, N.ring.axis(Z)))


@lru_cache(maxsize=256)
def _fibers(N: Subquotient, Z: frozenset) -> tuple:
    """The memo behind `fibers`.

    A slice u is supported off Z, so (J : u) cap K[Z] is generated by the
    Z-parts of the generators g of J with g_k <= u_k for every k off Z.
    Those generators are the AND of the `jin` rows of `homology._corner_row`
    over the complement coordinates at u, and those of J' are the ones
    outside the OR of the `miss` rows, the rule `_term_dims` reads.  Each
    distinct pair of bitsets is turned into its restricted colons once: a
    selected generator is kept iff no other selected generator has a Z-part
    dividing its own, where of equal Z-parts the lower index is kept
    (`_divisor_bits`).  The kept Z-parts divide no other kept one and every
    dropped one has a kept divisor (divisibility is transitive and the
    index breaks ties), so they are exactly the minimal generators, and
    sorted they are the canonical generator tuple.

    The restricted colon of J' lies in that of J, so a class's fiber is zero
    iff the two have the same minimal generators, and such a class is
    dropped.  A nonzero N keeps at least one class: a generator g of J
    outside J' has its complement part as the corner of a cell, and there
    g's Z-part lies in the restricted colon of J but not in that of J', as a
    generator of J' dividing both parts of g would divide g.

    Each class keeps the corners and the lengths of its cells as the walk
    meets them, so its readers (`n_single`, `infinite_family` and
    `local_cohomology.growth_scan`) walk no cell again.
    """
    if N.is_zero:
        raise ZeroModule("fiber decomposition of the zero module")
    if not Z:
        raise PreconditionFailed("the axis has no variables")
    ring = N.ring
    J, Jp = N.J, N.Jp
    comp = tuple(sorted(set(range(ring.nvars)) - Z))
    zvars = sorted(Z)
    sub = sub_ring_for(ring, Z)
    J_z = [tuple(g[z] for z in zvars) for g in J.gens]
    Jp_z = [tuple(g[z] for z in zvars) for g in Jp.gens]
    J_below = _divisor_bits(J_z)
    Jp_below = _divisor_bits(Jp_z)
    every, full = (1 << len(J.gens)) - 1, (1 << len(Jp.gens)) - 1
    # one pass per complement coordinate: its cells as (start, length, jin,
    # miss), walked as a product in lex order of corners, as `exponent_cells`
    gens = J.gens + Jp.gens
    axes = [
        [(e, n) + _corner_row(J, Jp, k, e)[:2] for e, n in _axis_cells(gens, k)] for k in comp
    ]
    keys = {}
    classes = {}
    for cell in product(*axes):
        jin, miss = every, 0
        for _, _, j, m in cell:
            jin &= j
            miss |= m
        pair = (jin, full & ~miss)
        key = keys.get(pair)
        if key is None:
            key = keys[pair] = (_kept(J_z, J_below, jin), _kept(Jp_z, Jp_below, pair[1]))
        classes.setdefault(key, []).append(cell)

    # classes in order of first cell, each with its cells in lex order of corners
    return tuple(
        FiberClass(
            patterns=tuple(tuple(c[0] for c in cell) for cell in cells),
            lengths=tuple(tuple(c[1] for c in cell) for cell in cells),
            fiber=Subquotient(MonomialIdeal(sub, key[0]), MonomialIdeal(sub, key[1])),
        )
        for key, cells in classes.items()
        if key[0] != key[1]
    )


def _divisor_bits(parts) -> list:
    """Bit j of entry i is set when parts[j] divides parts[i] and is unequal
    to it or has the lower index: the parts that make part i redundant."""
    return [
        sum(1 << j for j, v in enumerate(parts) if divides(v, u) and (v != u or j < i))
        for i, u in enumerate(parts)
    ]


def _kept(parts, below, sel: int) -> tuple:
    """The minimal generators of the parts selected by the bitset sel, lex-sorted."""
    return tuple(sorted(u for i, u in enumerate(parts) if sel >> i & 1 and not below[i] & sel))


def grade(N: Subquotient, Z) -> int:
    """min{i : H^i_Z(N) != 0} = min depth over the fibers."""
    return min(depth_module(fc.fiber, fc.fiber.ring.all_vars()) for fc in fibers(N, Z))


def cd(N: Subquotient, Z) -> int:
    """max{i : H^i_Z(N) != 0} = max Krull dimension over the fibers.

    The value and its cross-check are computed once per (N, Z) and kept in
    a bounded memo.
    """
    return _cd(N, N.ring.axis(Z))


@lru_cache(maxsize=256)
def _cd(N: Subquotient, Z: frozenset) -> int:
    """The memo behind `cd`.

    A raised InternalCheckFailed is not cached, so every reader sees it.
    """
    value = max(dim_module(fc.fiber) for fc in fibers(N, Z))
    if N.J.is_unit:
        # cyclic case cross-check: cd(Z, S/I) = dim S/(I + P') for the ideal
        # P' of the variables off Z, and S/(I + P') is K[Z]/(I cap K[Z])
        expected = dim_quotient(restrict_ideal(N.Jp, Z))
        if expected != value:
            raise InternalCheckFailed(
                f"cd mismatch: fibers give {value}, dim S/(I+P') gives {expected}"
            )
    return value


def cd_prime(p: frozenset, Z) -> int:
    """cd(Z, S/p) for a variable prime p: the Z-variables avoiding p.

    It takes no ring, so Z must be an axis already checked by `RingSpec.axis`,
    as every caller in the package passes; not exported from `bigrade`.
    """
    return len(frozenset(Z) - p)


def mgrade(I: MonomialIdeal, Z) -> int:
    """min of cd over the associated primes of S/I."""
    if I.is_unit:
        raise UnitIdeal("mgrade of the zero module")
    Z = I.ring.axis(Z)
    return min(cd_prime(p, Z) for p in associated_primes(I))


def analyze(I: MonomialIdeal, Z) -> InvariantReport:
    """Full invariant report of S/I with respect to the axis Z."""
    if I.is_unit:
        raise UnitIdeal("analyze(S) is the zero module")
    N = Subquotient.cyclic(I)
    g = grade(N, Z)
    c = cd(N, Z)
    mg = mgrade(I, Z)
    d = dim_quotient(I)
    depth = ordinary_depth(I)
    # grade(Z, M) <= grade(m, M) = depth M as Z lies in m, and depth M <= dim S/p
    # for every p in Ass(M): the fiber scans checked against the full-ring scan
    if not (g <= depth <= d):
        raise InternalCheckFailed(f"depth out of range: grade={g} depth={depth} dim={d}")
    maximal = g == mg
    witness = None
    if maximal:
        witness = min(
            (p for p in associated_primes(I) if cd_prime(p, Z) == g),
            key=sorted,
        )
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
        if any(e > 0 and i not in block for i, e in enumerate(g)):
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
    rep = analyze(I, ring.y_block())

    Iy_small = restrict_ideal(Iy, ring.y_block())
    depth_y = ordinary_depth(Iy_small)
    mdepth_y = mgrade(Iy_small, Iy_small.ring.all_vars())
    verdict = depth_y == mdepth_y

    if rep.maximal_depth != verdict or rep.grade != depth_y or rep.mgrade != mdepth_y:
        raise InternalCheckFailed(
            f"tensor invariants disagree: grade={rep.grade} vs depth={depth_y}, "
            f"mgrade={rep.mgrade} vs mdepth={mdepth_y}"
        )

    # Ass of the product module is the set of sums of block primes
    expected = {
        frozenset(px) | frozenset(ring.m + i for i in py)
        for px in associated_primes(restrict_ideal(Ix, ring.x_block()))
        for py in associated_primes(Iy_small)
    }
    if associated_primes(I) != expected:
        raise InternalCheckFailed("Ass of the product module is not the set of prime sums")

    return {"verdict": verdict}
