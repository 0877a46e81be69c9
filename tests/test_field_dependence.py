"""Answers that depend on the field: Reisner's projective plane as frozen values.

The Stanley-Reisner ring of the 6-vertex triangulation of RP^2 (facets 012,
023, 034, 045, 051, 124, 235, 341, 452, 513) is Cohen-Macaulay iff
char K != 2, as H~_1(RP^2; K) is nonzero exactly in characteristic 2
(Reisner's criterion; Bruns-Herzog, Sec. 5.3).  Every answer of the package
depends on K only through exact ranks, so these values pin the GF(p) and
rational rank paths where they part.

Placed in `ring 1 6` (the vertices as y1..y6, x1 free) the ideal shows the
paper's corollary both ways: in char 0 and 3 maximal depth, sequential CM
and CM w.r.t. Q all hold, in char 2 all three fail, while the module stays
generalized CM.  With the vertices split 3 + 3 in `ring 3 3`, the ordinary
depth drops from 3 to 2 in char 2 and maximal depth holds in both.
"""

import json

import pytest

from bigrade.cli import main
from bigrade.filtration import sequentially_cm
from bigrade.invariants import analyze, ordinary_depth
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import corollary_check, generalized_cm

RP2_16 = """ring 1 6
gens: y4*y5*y6, y3*y4*y5, y2*y5*y6, y2*y3*y6, y2*y3*y4, y1*y4*y6, y1*y3*y6, y1*y3*y5, y1*y2*y5, y1*y2*y4
"""

RP2_33 = """ring 3 3
gens: y1*y2*y3, x3*y1*y2, x2*y2*y3, x2*x3*y3, x2*x3*y1, x1*y1*y3, x1*x3*y3, x1*x3*y2, x1*x2*y2, x1*x2*y1
"""

# analyze over Q (grade, cd, mgrade, dim, maximal_depth, cm_wrt_axis,
# cm_ordinary), then depth, seqcm and gencm over Q, and corollary_check's
# common value (None where its grade > 0 precondition refuses)
FROZEN = {
    ("16", 0): ((3, 3, 3, 4, True, True, True), 4, True, True, True),
    ("16", 2): ((2, 3, 3, 4, False, False, False), 3, False, True, False),
    ("16", 3): ((3, 3, 3, 4, True, True, True), 4, True, True, True),
    ("33", 0): ((0, 2, 0, 3, True, False, True), 3, True, False, None),
    ("33", 2): ((0, 2, 0, 3, True, False, False), 2, True, False, None),
    ("33", 3): ((0, 2, 0, 3, True, False, True), 3, True, False, None),
}
TEXTS = {"16": RP2_16, "33": RP2_33}


@pytest.mark.parametrize("split, char", sorted(FROZEN))
def test_projective_plane_through_the_library(split, char):
    ring, I = parse_ideal_text(TEXTS[split], char=char)
    Q = ring.y_block()
    rep = analyze(I, Q)
    got = (
        (rep.grade, rep.cd, rep.mgrade, rep.dim, rep.maximal_depth, rep.cm_wrt_Z, rep.cm_ordinary),
        ordinary_depth(I),
        sequentially_cm(I, Q)["verdict"],
        generalized_cm(I, Q),
    )
    assert got == FROZEN[split, char][:4]
    expected = FROZEN[split, char][4]
    if expected is None:
        assert rep.grade == 0
    else:
        assert corollary_check(I, Q) == dict.fromkeys(("max_depth", "seq_cm", "cm_wrt_axis"), expected)


@pytest.mark.parametrize("split, char", sorted(FROZEN))
def test_projective_plane_through_the_cli(tmp_path, capsys, split, char):
    path = tmp_path / "rp2.ideal"
    path.write_text(TEXTS[split])

    def run(*argv):
        assert main([argv[0], str(path), "--char", str(char), *argv[1:]]) == 0
        return json.loads(capsys.readouterr().out)

    out = run("analyze")
    keys = ("grade", "cd", "mgrade", "dim", "maximal_depth", "cm_wrt_axis", "cm_ordinary")
    assert (tuple(out[k] for k in keys), out["char"]) == (FROZEN[split, char][0], char)
    assert run("seqcm")["verdict"] is FROZEN[split, char][2]
    assert run("gencm")["verdict"] is FROZEN[split, char][3]
