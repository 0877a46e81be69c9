"""grade, cohomological dimension, mgrade and the maximal-depth verdicts.

Everything is driven by the fiber decomposition: slicing a subquotient along
the exponents of the variables outside the chosen axis Z leaves a finite list
of K[Z]-module classes (colon ideals stabilize at the generator caps), and
H^i_Z of the module is the direct sum of the fibers' local cohomologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional

from .errors import (
    EmptyList,
    InternalCheckFailed,
    PreconditionFailed,
    RingMismatch,
    UnitIdeal,
    WrongBlock,
    ZeroModule,
)
from .homology import (
    Subquotient,
    depth_module,
    dim_module,
    exponent_cells,
    restrict_ideal,
    sub_ring_for,
)
from .rings import (
    MonomialIdeal,
    associated_primes,
    colon,
    dim_quotient,
    prime_ideal,
    sum_ideal,
)


@dataclass(frozen=True)
class FiberClass:
    """A class of x-slices with a common capped colon pattern.

    `patterns` holds the smallest pattern (over the complement of Z, in
    complement order) of each exponent cell whose colon pair is the class's,
    in lex order, so `patterns[0]` is the smallest slice of the class;
    `n_single` counts the slices in bounded cells, `infinite_family` flags
    classes standing for infinitely many slices (a capped cell).
    """

    complement: tuple
    patterns: tuple
    fiber: Subquotient
    infinite_family: bool
    n_single: int


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
    char: int

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
    stands for the whole cell.  The decomposition is computed once per
    (N, Z) and kept in a bounded memo; each call returns a fresh list.
    """
    return list(_fibers(N, frozenset(Z)))


@lru_cache(maxsize=256)
def _fibers(N: Subquotient, Z: frozenset) -> tuple:
    """The memo behind `fibers`."""
    if N.is_zero:
        raise ZeroModule("fiber decomposition of the zero module")
    if not Z:
        raise PreconditionFailed("the axis has no variables")
    ring = N.ring
    comp = tuple(sorted(set(range(ring.nvars)) - Z))
    sub = sub_ring_for(ring, Z)

    classes = {}
    order = []
    for a, lengths in exponent_cells(N, comp):
        u = [0] * ring.nvars
        for idx, i in enumerate(comp):
            u[i] = a[idx]
        Ja = restrict_ideal(colon(N.J, tuple(u)), Z, sub)
        Jpa = restrict_ideal(colon(N.Jp, tuple(u)), Z, sub)
        key = (Ja.gens, Jpa.gens)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append((a, lengths))

    out = []
    for key in order:
        cells = classes[key]  # in lex order of corners
        Ja = MonomialIdeal(sub, key[0])
        Jpa = MonomialIdeal(sub, key[1])
        out.append(
            FiberClass(
                complement=comp,
                patterns=tuple(a for a, _ in cells),
                fiber=Subquotient(sub, Ja, Jpa),
                infinite_family=any(None in lengths for _, lengths in cells) and bool(comp),
                n_single=sum(prod(lengths) for _, lengths in cells if None not in lengths),
            )
        )
    return tuple(out)


def grade(N: Subquotient, Z) -> int:
    """min{i : H^i_Z(N) != 0} = min depth over nonzero fibers."""
    depths = [
        depth_module(fc.fiber, fc.fiber.ring.all_vars())
        for fc in fibers(N, Z)
        if not fc.fiber.is_zero
    ]
    if not depths:
        raise ZeroModule("grade of the zero module")
    return min(depths)


def cd(N: Subquotient, Z) -> int:
    """max{i : H^i_Z(N) != 0} = max Krull dimension over nonzero fibers."""
    dims = [
        dim_module(fc.fiber)
        for fc in fibers(N, Z)
        if not fc.fiber.is_zero
    ]
    if not dims:
        raise ZeroModule("cd of the zero module")
    value = max(dims)
    if N.J.is_unit:
        # cyclic case cross-check: cd(Z, S/I) = dim S/(I + complement ideal)
        comp = frozenset(range(N.ring.nvars)) - frozenset(Z)
        check = sum_ideal(N.Jp, prime_ideal(N.ring, comp)) if comp else N.Jp
        if check.is_unit:
            expected = 0 if not N.is_zero else None
        else:
            expected = dim_quotient(check)
        if expected != value:
            raise InternalCheckFailed(
                f"cd mismatch: fibers give {value}, dim S/(I+P') gives {expected}"
            )
    return value


def cd_prime(p: frozenset, Z) -> int:
    """cd(Z, S/p) for a variable prime p: the Z-variables avoiding p."""
    return len(frozenset(Z) - p)


def mgrade(I: MonomialIdeal, Z) -> int:
    """min of cd over the associated primes of S/I."""
    if I.is_unit:
        raise UnitIdeal("mgrade of the zero module")
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
    maximal = g == mg
    witness = None
    if maximal:
        witness = min(
            (p for p in associated_primes(I) if cd_prime(p, Z) == g),
            key=sorted,
        )
    ordinary_depth = depth_module(N, I.ring.all_vars())
    return InvariantReport(
        grade=g,
        cd=c,
        mgrade=mg,
        dim=d,
        maximal_depth=maximal,
        witness_prime=witness,
        cm_wrt_Z=(g == c),
        cm_ordinary=(ordinary_depth == d),
        char=I.ring.char,
    )


def ordinary_depth(I: MonomialIdeal) -> int:
    """depth of S/I over the full ring."""
    if I.is_unit:
        raise UnitIdeal("depth of the zero module")
    return depth_module(Subquotient.cyclic(I), I.ring.all_vars())


def direct_sum_verdict(ideals, Z) -> dict:
    """Maximal depth of the direct sum of the S/I_j, per the summand criterion."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyList("direct sum of no summands")
    ring = ideals[0].ring
    for I in ideals:
        if I.ring != ring:
            raise RingMismatch("summands live in different rings")
        if I.is_unit:
            raise UnitIdeal("zero-module summand")
    reports = [analyze(I, Z) for I in ideals]
    gmin = min(r.grade for r in reports)
    achiever = next(
        (j for j, r in enumerate(reports) if r.grade == gmin and r.maximal_depth),
        None,
    )
    verdict = achiever is not None
    # definitional check: the sum has Ass = union and grade = min of grades
    direct = gmin == min(r.mgrade for r in reports)
    if direct != verdict:
        raise InternalCheckFailed("direct-sum criterion disagrees with min-grade/min-mgrade")
    return {"verdict": verdict, "achiever": achiever}


def _check_block(I: MonomialIdeal, block: frozenset, label: str):
    for g in I.gens:
        if any(e > 0 and i not in block for i, e in enumerate(g)):
            raise WrongBlock(f"generator {g} of the {label}-ideal leaves its block")


def mdepth_ordinary(I: MonomialIdeal) -> int:
    """min{dim S/p : p in Ass(S/I)} over the ideal's own ring."""
    if I.is_unit:
        raise UnitIdeal("mdepth of the zero module")
    return I.ring.nvars - max(len(p) for p in associated_primes(I))


def tensor_verdict(Ix: MonomialIdeal, Iy: MonomialIdeal) -> dict:
    """Maximal depth w.r.t. Q of S/(Ix + Iy) for block ideals Ix in K[x], Iy in K[y].

    Runs the product-module assertions alongside: Ass is the set of prime sums
    and both grade and mgrade agree with depth / mdepth of K[y]/Iy.
    """
    ring = Ix.ring
    if Iy.ring != ring:
        raise RingMismatch("block ideals must be given in the common ring")
    _check_block(Ix, ring.x_block(), "x")
    _check_block(Iy, ring.y_block(), "y")
    if Ix.is_unit or Iy.is_unit:
        raise UnitIdeal("block ideal must be proper")

    I = sum_ideal(Ix, Iy)
    rep = analyze(I, ring.y_block())

    sub_y = sub_ring_for(ring, ring.y_block())
    Iy_small = restrict_ideal(Iy, ring.y_block(), sub_y)
    depth_y = depth_module(Subquotient.cyclic(Iy_small), sub_y.all_vars())
    mdepth_y = mdepth_ordinary(Iy_small)
    verdict = depth_y == mdepth_y

    if rep.maximal_depth != verdict or rep.grade != depth_y or rep.mgrade != mdepth_y:
        raise InternalCheckFailed(
            f"tensor invariants disagree: grade={rep.grade} vs depth={depth_y}, "
            f"mgrade={rep.mgrade} vs mdepth={mdepth_y}"
        )

    # Ass of the product module is the set of sums of block primes
    sub_x = sub_ring_for(ring, ring.x_block())
    Ix_small = restrict_ideal(Ix, ring.x_block(), sub_x)
    ass_x = associated_primes(Ix_small)
    ass_y = associated_primes(Iy_small)
    expected = {
        frozenset(px) | frozenset(ring.m + i for i in py)
        for px in ass_x
        for py in ass_y
    }
    if associated_primes(I) != expected:
        raise InternalCheckFailed("Ass of the product module is not the set of prime sums")

    return {"verdict": verdict}
