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
from .homology import Subquotient, cech_dims_at, exponent_cells
from .invariants import analyze, cd, cd_prime, fibers
from .rings import MonomialIdeal, _integer, associated_primes

logger = logging.getLogger("bigrade")


@dataclass(frozen=True)
class FiberLC:
    """H^i of one fiber class; the first three fields come from the class."""

    pattern: tuple  # the class's smallest slice, patterns[0]
    infinite_family: bool
    n_single: int
    finite_length: bool
    total_dim: Optional[int]  # None when not of finite length
    witness_degree: Optional[tuple]  # first cell with a negative coordinate and H^i != 0


@dataclass(frozen=True)
class LCReport:
    """H^i_Z(S/I) as one `FiberLC` per fiber class, in `fibers` order."""

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


def _axis_of(I: MonomialIdeal, Z, what: str) -> frozenset:
    """Z, the y-block by default, after refusing the zero module S/S; a
    given Z is checked by `RingSpec.axis`."""
    if I.is_unit:
        raise UnitIdeal(f"{what} of the zero module")
    return I.ring.y_block() if Z is None else I.ring.axis(Z)


def lc_report(I: MonomialIdeal, i: int, Z=None) -> LCReport:
    """Per-fiber report on H^i_Z(S/I); Z defaults to the y-block.

    The report is computed once per (I, i, Z) and kept in a bounded memo;
    it is immutable, so every caller shares it.
    """
    i = _integer(i, "the local cohomology index")
    Z = _axis_of(I, Z, "local cohomology")
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    return _lc_report(I, i, Z)


@lru_cache(maxsize=1024)
def _lc_report(I: MonomialIdeal, i: int, Z: frozenset) -> LCReport:
    """The memo behind `lc_report`."""
    entries = [_fiber_lc(fc, i) for fc in fibers(Subquotient.cyclic(I), Z)]

    fin_gen = all(e.finite_length for e in entries)
    total = None
    if fin_gen and all(
        e.total_dim == 0 for e in entries if e.infinite_family
    ):
        total = sum(e.n_single * e.total_dim for e in entries)
    return LCReport(i=i, per_fiber=tuple(entries), finitely_generated=fin_gen, total_dim=total)


def generalized_cm(I: MonomialIdeal, Z=None) -> bool:
    """H^i_Z(S/I) finitely generated for every i below cd."""
    Z = _axis_of(I, Z, "generalized CM")
    top = cd(Subquotient.cyclic(I), Z)
    return all(lc_report(I, i, Z).finitely_generated for i in range(top))


def _degrees(corner, lengths, r: int) -> int:
    """The fine degrees of one cell within radius r, counted per coordinate.

    The -1 class holds the r degrees -r..-1, a cap (length None) from e on
    the degrees e..r, and a bounded cell from e the degrees e..e+n-1 up to r.
    """
    count = 1
    for e, n in zip(corner, lengths):
        if e == -1:
            count *= r
        elif n is None:
            count *= max(0, r - e + 1)
        else:
            count *= max(0, min(e + n - 1, r) - e + 1)
    return count


def growth_scan(I: MonomialIdeal, i: int, box_radii, Z=None) -> list:
    """Cumulative piece dimensions of H^i_Z(S/I) over growing degree boxes.

    Radius r covers fine degrees with Z-coordinates in [-r, r] and the rest in
    [0, r].  A strictly increasing tail witnesses non-finite-generation.
    H^i_Z(S/I) is the direct sum over the slices of its fibers, so a fiber
    class's nonzero cells are its complement cells (`FiberClass.patterns`
    and `lengths`) times the nonzero cells of its fiber table, and the class
    counts (degrees of its complement cells) x (d times the degrees of each
    nonzero fiber cell within r), each by `_degrees`.  The degrees are
    counted, not visited, so the cost depends on neither the radius nor the
    size of the exponents.  Radii must be nonnegative integers.
    """
    i = _integer(i, "the local cohomology index")
    box_radii = [_integer(r, "a growth radius") for r in box_radii]
    if any(r < 0 for r in box_radii):
        raise ValueError(f"growth radii must be nonnegative, got {box_radii}")
    Z = _axis_of(I, Z, "growth scan")
    if not (0 <= i <= len(Z)):
        raise PreconditionFailed(f"index {i} outside [0, {len(Z)}]")
    N = Subquotient.cyclic(I)

    # (complement cells, nonzero fiber cells with their dimension) per class
    if Z:
        classes = [
            (
                list(zip(fc.patterns, fc.lengths)),
                [(c, lengths, dims[i]) for c, lengths, dims in _fiber_table(fc.fiber) if dims[i]],
            )
            for fc in fibers(N, Z)
        ]
    else:
        # `fibers` refuses an empty axis; H^0 on no variables is S/I itself,
        # whose piece at c is the one term of the Cech complex on no
        # variables, one class over the point of K[]
        cells = [
            (c, lengths)
            for c, lengths in exponent_cells(N, range(I.ring.nvars))
            if cech_dims_at(N, frozenset(), c)[0]
        ]
        classes = [(cells, [((), (), 1)])]

    return [
        sum(
            sum(_degrees(a, n, r) for a, n in cells)
            * sum(d * _degrees(c, n, r) for c, n, d in table)
            for cells, table in classes
        )
        for r in box_radii
    ]


def corollary_check(I: MonomialIdeal, Z=None) -> dict:
    """The three equivalent statements for generalized-CM modules of positive grade."""
    Z = _axis_of(I, Z, "corollary check")
    rep = analyze(I, Z)
    if rep.grade <= 0:
        raise PreconditionFailed("corollary requires grade > 0")
    if not generalized_cm(I, Z):
        raise PreconditionFailed("corollary requires the generalized CM hypothesis")
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
    Z = _axis_of(I, Z, "scan")

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
