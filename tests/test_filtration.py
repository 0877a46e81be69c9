import contextlib
import io
from collections import Counter

import pytest

import bigrade
from bigrade import filtration
from bigrade.cli import main
from bigrade.errors import UnitIdeal
from bigrade.filtration import (
    ass_quotients,
    dimension_filtration,
    mgrade_constancy,
    sequentially_cm,
)
from bigrade.io_formats import parse_ideal_text
from bigrade.rings import RingSpec, minimal_generators, unit_ideal, zero_ideal

EIGHT_GEN = """
ring 2 4
gens: x1*x2, x1*y3, x1*y4, x2*y1, y1*y3, y1*y4, y2*y4, y2*y3
"""


def test_ladder_shape_two_component_ideal():
    ring, I = parse_ideal_text(EIGHT_GEN)
    ladder = dimension_filtration(I, ring.y_block())
    assert ladder.cd_values == (1, 2)
    assert ladder.base == I
    assert ladder.ideals[-1].is_unit
    # strictly increasing
    for lo, hi in zip(ladder.ideals, ladder.ideals[1:]):
        assert hi.contains_ideal(lo) and hi != lo


def test_ass_quotients_partition():
    ring, I = parse_ideal_text(EIGHT_GEN)
    ladder = dimension_filtration(I, ring.y_block())
    blocks = ass_quotients(ladder)
    names = [
        sorted(sorted(ring.var_name(i) for i in p) for p in block)
        for block in blocks
    ]
    assert names == [
        [["x1", "y1", "y3", "y4"]],
        [["x1", "y1", "y2"], ["x2", "y3", "y4"]],
    ]


def test_filtration_command_enumerates_each_ass_once(tmp_path, monkeypatch):
    # building the ladder compared Ass(J_1/I), so ass_quotients does not enumerate it again
    ring, I = parse_ideal_text(EIGHT_GEN)
    steps = len(dimension_filtration(I, ring.y_block()).steps)
    bigrade.clear_caches()
    calls = []
    body = filtration.ass_subquotient

    def counted(J, Jp):
        calls.append((J, Jp))
        return body(J, Jp)

    monkeypatch.setattr(filtration, "ass_subquotient", counted)
    p = tmp_path / "i.ideal"
    p.write_text(EIGHT_GEN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filtration", str(p)]) == 0
    assert len(calls) == 2 * steps - 1
    assert len(set(calls)) == len(calls)


def test_filtration_then_seqcm_builds_one_ladder(tmp_path, monkeypatch):
    # the second command in the same process reads the memoized ladder
    counts = Counter()
    for name in ("_verify_ass_facts", "ass_subquotient"):
        body = getattr(filtration, name)

        def counted(*args, name=name, body=body):
            counts[name] += 1
            return body(*args)

        monkeypatch.setattr(filtration, name, counted)
    p = tmp_path / "i.ideal"
    p.write_text(EIGHT_GEN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filtration", str(p)]) == 0
        assert main(["seqcm", str(p)]) == 0
    assert counts == {"_verify_ass_facts": 1, "ass_subquotient": 3}


def test_single_step_ladder():
    r = RingSpec(1, 2)
    I = minimal_generators(r, [(1, 1, 0)])
    ladder = dimension_filtration(I, r.y_block())
    assert ladder.cd_values == (1, 2)


def test_filtration_errors():
    r = RingSpec(1, 1)
    with pytest.raises(UnitIdeal):
        dimension_filtration(unit_ideal(r), r.y_block())
    # S = S/(0) has the one-step ladder 0 < S with cd(Z, S) = |Z|, and is CM
    ladder = dimension_filtration(zero_ideal(r), r.y_block())
    assert ladder.ideals == (zero_ideal(r), unit_ideal(r))
    assert ladder.cd_values == (1,)
    assert sequentially_cm(zero_ideal(r), r.y_block())["verdict"] is True


def test_sequentially_cm_positive():
    r = RingSpec(1, 2)
    I = minimal_generators(r, [(1, 1, 0)])  # (x1*y1)
    out = sequentially_cm(I, r.y_block())
    assert out["verdict"] is True
    assert [s["is_cm"] for s in out["per_step"]] == [True, True]
    assert [s["cd"] for s in out["per_step"]] == [1, 2]


def test_sequentially_cm_negative():
    ring, I = parse_ideal_text(EIGHT_GEN)
    out = sequentially_cm(I, ring.y_block())
    assert out["verdict"] is False
    assert any(not s["is_cm"] for s in out["per_step"])


def test_mgrade_constancy():
    ring, I = parse_ideal_text(EIGHT_GEN)
    assert mgrade_constancy(I, ring.y_block())
    r = RingSpec(1, 2)
    assert mgrade_constancy(minimal_generators(r, [(1, 1, 0)]), r.y_block())
