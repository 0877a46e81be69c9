"""Degreewise local cohomology H^i_Z(S/I) and its finiteness decisions.

H^i_Z splits over the fiber decomposition; a fiber contributes finite length
iff its cohomology vanishes on every degree class with a negative coordinate
(and on the capped classes, each of which stands for infinitely many degrees).
The module is finitely generated iff every fiber contributes finite length:
beyond the caps the complementary variables act as isomorphisms, so the capped
box generates; a nonvanishing negative-degree family can never be generated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import InternalCheckFailed, PreconditionFailed, UnitIdeal
from .filtration import sequentially_cm
from .homology import Subquotient, cech_piece_dim
from .invariants import analyze, cd, fibers
from .rings import MonomialIdeal, associated_primes

logger = logging.getLogger("bigrade")


@dataclass(frozen=True)
class FiberLC:
    """Local cohomology data of one fiber class at a fixed index."""

    pattern: tuple  # representative capped pattern over the complement
    patterns: tuple
    infinite_family: bool
    n_single: int
    finite_length: bool
    total_dim: Optional[int]  # None when not of finite length
    witness_degree: Optional[tuple]


@dataclass(frozen=True)
class LCReport:
    i: int
    axis: tuple
    per_fiber: tuple
    finitely_generated: bool
    total_dim: Optional[int]  # K-dimension of the whole module, None if infinite
    char: int


def _rep_classes(box):
    """Degree classes {-1} u [0, box_z] per coordinate; -1 stands for all negatives."""
    return product(*([-1] + list(range(b + 1)) for b in box))


def _fiber_lc(fc, i: int) -> FiberLC:
    fiber = fc.fiber
    box = fiber.box()
    allvars = fiber.ring.all_vars()
    finite = True
    witness = None
    total = 0
    for c in _rep_classes(box):
        d = cech_piece_dim(fiber, allvars, i, c)
        if d == 0:
            continue
        if any(e < 0 for e in c) or any(e == box[k] for k, e in enumerate(c)):
            # the class stands for infinitely many fine degrees
            finite = False
            if witness is None:
                witness = c
        else:
            total += d
    return FiberLC(
        pattern=fc.patterns[0],
        patterns=fc.patterns,
        infinite_family=fc.infinite_family,
        n_single=fc.n_single,
        finite_length=finite,
        total_dim=total if finite else None,
        witness_degree=witness,
    )


def lc_report(I: MonomialIdeal, i: int, Z=None) -> LCReport:
    """Per-fiber report on H^i_Z(S/I); Z defaults to the y-block."""
    if I.is_unit:
        raise UnitIdeal("local cohomology of the zero module")
    if Z is None:
        Z = I.ring.y_block()
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    N = Subquotient.cyclic(I)

    entries = []
    for fc in fibers(N, Z):
        if fc.fiber.is_zero:
            continue
        entries.append(_fiber_lc(fc, i))

    fin_gen = all(e.finite_length for e in entries)
    total = None
    if fin_gen and all(
        e.total_dim == 0 for e in entries if e.infinite_family
    ):
        total = sum(e.n_single * e.total_dim for e in entries)
    return LCReport(
        i=i,
        axis=tuple(sorted(Z)),
        per_fiber=tuple(entries),
        finitely_generated=fin_gen,
        total_dim=total,
        char=I.ring.char,
    )


def generalized_cm(I: MonomialIdeal, Z=None) -> bool:
    """H^i_Z(S/I) finitely generated for every i below cd."""
    if I.is_unit:
        raise UnitIdeal("generalized CM of the zero module")
    if Z is None:
        Z = I.ring.y_block()
    top = cd(Subquotient.cyclic(I), Z)
    return all(lc_report(I, i, Z).finitely_generated for i in range(top))


def growth_scan(I: MonomialIdeal, i: int, box_radii, Z=None) -> list:
    """Cumulative piece dimensions of H^i_Z(S/I) over growing degree boxes.

    Radius r covers fine degrees with Z-coordinates in [-r, r] and the rest in
    [0, r].  A strictly increasing tail witnesses non-finite-generation.
    Degrees are aggregated by stabilized class, so cost is radius-independent.
    Radii must be nonnegative.
    """
    box_radii = list(box_radii)
    if any(r < 0 for r in box_radii):
        raise ValueError(f"growth radii must be nonnegative, got {box_radii}")
    if I.is_unit:
        raise UnitIdeal("growth scan of the zero module")
    if Z is None:
        Z = I.ring.y_block()
    Z = frozenset(Z)
    N = Subquotient.cyclic(I)
    box = N.box()
    nv = I.ring.nvars

    classes = []  # (class degree, dim)
    for c in product(*(
        ([-1] + list(range(box[v] + 1))) if v in Z else list(range(box[v] + 1))
        for v in range(nv)
    )):
        d = cech_piece_dim(N, Z, i, c)
        if d:
            classes.append((c, d))

    sums = []
    for r in box_radii:
        total = 0
        for c, d in classes:
            mult = 1
            for v in range(nv):
                e = c[v]
                if e == -1:
                    count = r  # degrees -r..-1
                elif e == box[v]:
                    count = max(0, r - e + 1)  # degrees e..r
                else:
                    count = 1 if e <= r else 0
                mult *= count
                if mult == 0:
                    break
            total += d * mult
        sums.append(total)
    return sums


def corollary_check(I: MonomialIdeal, Z=None) -> dict:
    """The three equivalent statements for generalized-CM modules of positive grade."""
    if Z is None:
        Z = I.ring.y_block()
    rep = analyze(I, Z)
    if rep.grade <= 0:
        raise PreconditionFailed("corollary requires grade > 0")
    if not generalized_cm(I, Z):
        raise PreconditionFailed("corollary requires the generalized CM hypothesis")
    if I.is_zero:
        triple = {"max_depth": True, "seq_cm": True, "cm_wrt_Q": True}
    else:
        triple = {
            "max_depth": rep.maximal_depth,
            "seq_cm": sequentially_cm(I, Z)["verdict"],
            "cm_wrt_Q": rep.cm_wrt_Z,
        }
    if len(set(triple.values())) != 1:
        raise InternalCheckFailed(f"corollary equivalence violated: {triple}")
    return triple


def question_counterexample_scan(I: MonomialIdeal, Z=None) -> list:
    """Indices j = cd(Z, S/p) > 0 of Ass primes where H^j is nonetheless f.g.

    It is unknown whether such instances exist; hits are logged and returned,
    never asserted absent.
    """
    if I.is_unit:
        raise UnitIdeal("scan of the zero module")
    if Z is None:
        Z = I.ring.y_block()
    from .invariants import cd_prime

    hits = []
    for j in sorted({cd_prime(p, Z) for p in associated_primes(I)}):
        if j > 0 and lc_report(I, j, Z).finitely_generated:
            hits.append(j)
    if hits:
        logger.warning(
            "potential counterexample to the open question: I=%s, finitely "
            "generated H^j at j=%s", I, hits,
        )
    return hits
