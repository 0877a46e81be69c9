"""Degreewise local cohomology H^i_Z(S/I) and its finiteness decisions.

Cech pieces only change where a degree crosses a generator exponent, so every
scan here visits one degree per exponent cell (the intervals between
consecutive distinct generator exponents, the class of all negative
exponents, and off the axis the cap from the largest one on) and weights it
by the cell's length, the interval structure of Takayama's formula.  Each
fiber's cells are scanned once, with every index of a cell read off one Cech
complex, into a table of one column per index: column i lists the cells
where H^i is nonzero, with its dimension there.  Totals, witnesses and
growth of H^i on that fiber all read column i.  The table has no capped
cell: past the largest generator exponent of a coordinate its variable acts
bijectively, so the Cech complex there is acyclic (`homology._axis_cells`).

H^i_Z splits over the fiber decomposition; a fiber contributes finite length
iff its cohomology vanishes on every cell with a negative coordinate, the
only cells of its table that stand for infinitely many degrees.
The module is finitely generated iff every fiber contributes finite length:
beyond the caps the complementary variables act as isomorphisms, so the capped
box generates; a nonvanishing negative-degree family can never be generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional

from .errors import InternalCheckFailed, PreconditionFailed
from .filtration import _ladder, _sequentially_cm
from .homology import Subquotient, _lc_index, _localized_row, _term_dims, exponent_cells
from .invariants import _analyze, _cd, _quotient_axis, fibers
from .rings import MonomialIdeal, _integer


@dataclass(frozen=True)
class FiberLC:
    """H^i of one fiber class.

    The first three fields come from the class, read once per (I, Z); the
    last three from column i of the class's fiber table (`_lc_reports`).
    """

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
    """The nonzero Cech cells of one fiber over its full sub-ring, by index.

    One column per index 0..k, k the number of variables of the fiber's
    ring: column i holds (corner, lengths, d) for each exponent cell where
    d = dim H^i is nonzero, in lex order of corners.  Every index of a cell
    is read off one complex.  Only the -1 class and the bounded cells of
    each coordinate are scanned: the cohomology vanishes on every capped cell
    (`homology._axis_cells`), so a length is None only on a -1 class.
    `exponent_cells` gives each cell with the `_corner_row` of every
    coordinate at its corner, taken once per cell of that coordinate, and
    those rows go to `_term_dims` as the outside rows of the cell's
    complex, the rows `homology._cech_dims_at` would build at the corner.
    A table of more than `homology.MAX_CELLS` cells is refused before its
    first cell.
    Kept in a bounded memo per fiber, which every index, report and growth
    scan on that fiber shares.
    """
    allvars = fiber.ring.all_vars()
    inside = dict.fromkeys(allvars, _localized_row(fiber))
    columns = [[] for _ in range(fiber.ring.nvars + 1)]
    for c, lengths, rows in exponent_cells(fiber, range(fiber.ring.nvars), allvars):
        for column, d in zip(columns, _term_dims(fiber, rows, inside)):
            if d:
                column.append((c, lengths, d))
    return tuple(map(tuple, columns))


def lc_report(I: MonomialIdeal, i: int, Z) -> LCReport:
    """Per-fiber report on H^i_Z(S/I).

    (I, Z) is read by `invariants._quotient_axis`, as in `generalized_cm`,
    `growth_scan` and `corollary_check`, and i by `homology._lc_index`.
    The reports of every index 0..|Z| are computed together, once per
    (I, Z), and kept in one bounded memo (`_lc_reports`); they are
    immutable, so every caller shares them, and a repeated call returns the
    same object.
    """
    Z = _quotient_axis(I, Z, "local cohomology")
    return _lc_reports(I, Z)[_lc_index(i, Z)]


@lru_cache(maxsize=1024)
def _lc_reports(I: MonomialIdeal, Z: frozenset) -> tuple:
    """The memo behind `lc_report`, for an axis already checked: the
    `LCReport` of every index 0..|Z|.

    One walk over `fibers` reads each class's `_fiber_table` once, and
    column i of it gives the class's entry of index i.  H^i of the class has
    finite length unless the column holds a -1 class, a cell that stands
    for infinitely many fine degrees, and the first such cell is its
    witness; otherwise its total is the sum of d * prod(lengths) over the
    column.  The class's own fields are read once and shared by the entries
    of every index.
    """
    entries = [[] for _ in range(len(Z) + 1)]
    for fc in fibers(Subquotient.cyclic(I), Z):
        head = (fc.patterns[0], fc.infinite_family, fc.n_single)
        for i, column in enumerate(_fiber_table(fc.fiber)):
            w = next((c for c, lengths, _ in column if None in lengths), None)
            total = sum(d * prod(lengths) for _, lengths, d in column) if w is None else None
            entries[i].append(FiberLC(*head, w is None, total, w))

    reports = []
    for i, per_fiber in enumerate(entries):
        fin_gen = all(e.finite_length for e in per_fiber)
        total = None
        if fin_gen and all(e.total_dim == 0 for e in per_fiber if e.infinite_family):
            total = sum(e.n_single * e.total_dim for e in per_fiber)
        reports.append(LCReport(i=i, per_fiber=tuple(per_fiber), finitely_generated=fin_gen, total_dim=total))
    return tuple(reports)


def generalized_cm(I: MonomialIdeal, Z) -> bool:
    """H^i_Z(S/I) finitely generated for every i below cd."""
    return _generalized_cm(I, _quotient_axis(I, Z, "generalized CM"))


def _generalized_cm(I: MonomialIdeal, Z: frozenset) -> bool:
    """The core of `generalized_cm`, for a proper I and an axis already checked."""
    top = _cd(Subquotient.cyclic(I), Z)
    return all(_lc_reports(I, Z)[i].finitely_generated for i in range(top))


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


def growth_scan(I: MonomialIdeal, i: int, box_radii, Z) -> list:
    """Cumulative piece dimensions of H^i_Z(S/I) over growing degree boxes.

    Radius r covers fine degrees with Z-coordinates in [-r, r] and the rest in
    [0, r].  A strictly increasing tail witnesses non-finite-generation.
    H^i_Z(S/I) is the direct sum over the slices of its fibers, so a fiber
    class's nonzero cells are its complement cells (`FiberClass.patterns`
    and `lengths`) times column i of its fiber table, and the class counts
    (degrees of its complement cells) x (d times the degrees of each cell
    of that column within r), each by `_degrees`.  On an empty axis the
    one class holds the cells whose corner lies outside I, and its table
    the one cell of the point ring K[] with d = 1, so H^0 is S/I itself.
    The degrees are counted, not visited, so the cost depends on neither
    the radius nor the size of the exponents.  Radii must be nonnegative
    integers.
    """
    box_radii = [_integer(r, "a growth radius") for r in box_radii]
    if any(r < 0 for r in box_radii):
        raise ValueError(f"growth radii must be nonnegative, got {box_radii}")
    Z = _quotient_axis(I, Z, "growth scan")
    i = _lc_index(i, Z)
    N = Subquotient.cyclic(I)
    # (complement cells, nonzero fiber cells with their dimension) per class
    classes = [(list(zip(fc.patterns, fc.lengths)), _fiber_table(fc.fiber)[i]) for fc in fibers(N, Z)]
    return [
        sum(
            sum(_degrees(a, n, r) for a, n in cells)
            * sum(d * _degrees(c, n, r) for c, n, d in table)
            for cells, table in classes
        )
        for r in box_radii
    ]


def corollary_check(I: MonomialIdeal, Z) -> dict:
    """The three equivalent statements for generalized-CM modules of positive grade.

    Keyed as `analyze` prints them: CM along the axis Z is `cm_wrt_axis`,
    whichever axis Z is."""
    Z = _quotient_axis(I, Z, "corollary check")
    rep = _analyze(I, Z)
    if rep.grade <= 0:
        raise PreconditionFailed("corollary requires grade > 0")
    if not _generalized_cm(I, Z):
        raise PreconditionFailed("corollary requires the generalized CM hypothesis")
    triple = {
        "max_depth": rep.maximal_depth,
        "seq_cm": _sequentially_cm(_ladder(I, Z))["verdict"],
        "cm_wrt_axis": rep.cm_wrt_Z,
    }
    if len(set(triple.values())) != 1:
        raise InternalCheckFailed(f"corollary equivalence violated: {triple}")
    return triple

