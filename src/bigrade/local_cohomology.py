"""Degreewise local cohomology H^i_Z(S/I) and its finiteness decisions.

Cech pieces only change where a degree crosses a generator exponent, so every
scan here visits one degree per exponent cell (the intervals between
consecutive distinct generator exponents, the class of all negative
exponents, and off the axis the cap from the largest one on) and weights it
by the cell's length, the interval structure of Takayama's formula.  Each
fiber's cells are scanned once, with every index of a cell read off one Cech
complex, into a table that every local cohomology question on that fiber
reads.  The table has no capped cell: past the largest generator exponent
of a coordinate its variable acts bijectively, so the Cech complex there is
acyclic (`homology._axis_cells`).

H^i_Z splits over the fiber decomposition; a fiber contributes finite length
iff its cohomology vanishes on every cell with a negative coordinate, the
only cells of its table that stand for infinitely many degrees.
The module is finitely generated iff every fiber contributes finite length:
beyond the caps the complementary variables act as isomorphisms, so the capped
box generates; a nonvanishing negative-degree family can never be generated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional

from .errors import InternalCheckFailed, PreconditionFailed, UnitIdeal
from .filtration import sequentially_cm
from .homology import Subquotient, cech_dims_at, exponent_cells, fine_piece
from .invariants import analyze, cd, cd_prime, fibers
from .rings import MonomialIdeal, associated_primes

logger = logging.getLogger("bigrade")


@dataclass(frozen=True)
class FiberLC:
    """H^i of one nonzero fiber class; the first three fields come from the class."""

    pattern: tuple  # the class's smallest slice, patterns[0]
    infinite_family: bool
    n_single: int
    finite_length: bool
    total_dim: Optional[int]  # None when not of finite length
    witness_degree: Optional[tuple]  # first cell with a negative coordinate and H^i != 0


@dataclass(frozen=True)
class LCReport:
    """H^i_Z(S/I) as one `FiberLC` per nonzero fiber class, in `fibers` order."""

    i: int
    per_fiber: tuple
    finitely_generated: bool
    total_dim: Optional[int]  # K-dimension of the whole module, None if infinite


@lru_cache(maxsize=1024)
def _fiber_table(fiber: Subquotient) -> tuple:
    """The nonzero Cech cells of one fiber over its full sub-ring.

    Holds (corner, lengths, dims) per exponent cell in lex order of corners,
    with dims = [H^0 .. H^k] of the cell, so every index is read off one
    complex per cell.  Only the -1 class and the bounded cells of each
    coordinate are scanned: the cohomology vanishes on every capped cell
    (`homology._axis_cells`).  Kept in a bounded memo per fiber, which every
    index, report and growth scan on that fiber shares.
    """
    allvars = fiber.ring.all_vars()
    table = []
    for c, lengths in exponent_cells(fiber, range(fiber.ring.nvars), cech=allvars):
        dims = cech_dims_at(fiber, allvars, c)
        if any(dims):
            table.append((c, lengths, tuple(dims)))
    return tuple(table)


def _fiber_lc(fc, i: int) -> FiberLC:
    """H^i of one fiber class, read from column i of its fiber's Cech table."""
    finite = True
    witness = None
    total = 0
    for c, lengths, dims in _fiber_table(fc.fiber):
        d = dims[i]
        if d == 0:
            continue
        if None in lengths:
            # a -1 class: the cell stands for infinitely many fine degrees
            finite = False
            if witness is None:
                witness = c
        else:
            total += d * prod(lengths)
    return FiberLC(
        pattern=fc.patterns[0],
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
    return LCReport(i=i, per_fiber=tuple(entries), finitely_generated=fin_gen, total_dim=total)


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
    H^i_Z(S/I) is the direct sum over the slices of its fibers, so its nonzero
    cells are the complement cells of each fiber class times the nonzero
    cells of the class's fiber table.  Each cell's degrees within radius r are
    counted, not visited, so the cost depends on neither the radius nor the
    size of the exponents.  Radii must be nonnegative.
    """
    box_radii = list(box_radii)
    if any(r < 0 for r in box_radii):
        raise ValueError(f"growth radii must be nonnegative, got {box_radii}")
    if I.is_unit:
        raise UnitIdeal("growth scan of the zero module")
    if Z is None:
        Z = I.ring.y_block()
    Z = frozenset(Z)
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    N = Subquotient.cyclic(I)

    # (corner, lengths, dim) of the nonzero cells; the count below reads each
    # coordinate on its own, so a cell may list its coordinates in any order
    cells = []
    if Z:
        comp = sorted(set(range(I.ring.nvars)) - Z)
        comp_lengths = dict(exponent_cells(N, comp))
        for fc in fibers(N, Z):
            for zc, zlen, dims in _fiber_table(fc.fiber):
                if dims[i]:
                    cells += [(a + zc, comp_lengths[a] + zlen, dims[i]) for a in fc.patterns]
    else:
        # `fibers` refuses an empty axis; H^0 on no variables is S/I itself
        cells = [
            (c, lengths, 1)
            for c, lengths in exponent_cells(N, range(I.ring.nvars))
            if fine_piece(N, c)
        ]

    sums = []
    for r in box_radii:
        total = 0
        for c, lengths, d in cells:
            mult = 1
            for e, n in zip(c, lengths):
                if e == -1:
                    count = r  # degrees -r..-1
                elif n is None:
                    count = max(0, r - e + 1)  # degrees e..r
                else:
                    count = max(0, min(e + n - 1, r) - e + 1)  # degrees e..e+n-1 up to r
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
