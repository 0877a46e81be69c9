import contextlib
import io
import random
from collections import Counter

import pytest

import bigrade
from bigrade import filtration, homology, rings
from bigrade.invariants import analyze
from bigrade.cli import main
from bigrade.errors import InternalCheckFailed, UnitIdeal
from bigrade.filtration import (
    ass_quotients,
    dimension_filtration,
    mgrade_constancy,
    sequentially_cm,
)
from bigrade.invariants import cd_prime
from bigrade.io_formats import parse_ideal_text
from bigrade.rings import (
    RingSpec,
    intersect_all,
    irreducible_decomposition,
    minimal_generators,
    unit_ideal,
    zero_ideal,
)
from bigrade.suite import random_ideal
from bruteforce import bf_grade_cd, bf_subquotient_grade_cd
from test_acceptance import EIGHT_GEN


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


def test_filtration_command_enumerates_each_ass_once(tmp_path, record):
    # one walk over the corners of I gives Ass(J_i/I) of every step, and
    # ass_quotients walks over J_(i-1) for each step but the first, as
    # building the ladder compared Ass(J_1/I) already
    calls = record((filtration, homology), "ass_subquotients")
    ring, I = parse_ideal_text(EIGHT_GEN)
    ladder = dimension_filtration(I, ring.y_block())
    steps = len(ladder.steps)
    bigrade.clear_caches()
    calls.clear()
    p = tmp_path / "i.ideal"
    p.write_text(EIGHT_GEN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filtration", str(p)]) == 0
    walks = [(tuple(call["Js"]), call["Jp"]) for call in calls]
    assert len(walks) == steps
    assert len(set(walks)) == len(walks)
    assert walks[0] == (ladder.ideals[1:], I)


def test_filtration_then_seqcm_builds_one_ladder(tmp_path, record):
    # the second command in the same process reads the memoized ladder
    verified = record(filtration, "_verify_ass_facts")
    walks = record((filtration, homology), "ass_subquotients")
    p = tmp_path / "i.ideal"
    p.write_text(EIGHT_GEN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filtration", str(p)]) == 0
        assert main(["seqcm", str(p)]) == 0
    # two steps: one walk for the ladder, one in ass_quotients, none in seqcm
    assert len(verified) == 1
    assert len(walks) == 2


def test_the_chain_of_meets_gives_the_intersection_of_the_higher_components(record):
    # J_i is the intersection of the irreducible components with cd above
    # gamma_i, and the chain meets each component above gamma_1 once; the
    # reference components are built first, as they too are met in rings
    meets = record(rings, "intersect_pure_powers")
    ring, I = parse_ideal_text(EIGHT_GEN)
    cases = [(I, ring.x_block()), (I, ring.y_block()), (I, ring.all_vars())]
    rnd = random.Random(20261028)
    for _ in range(80):
        ring = RingSpec(rnd.randint(1, 3), rnd.randint(1, 3))
        gens = [tuple(rnd.choice((0, 0, 1, 2)) for _ in range(ring.nvars)) for _ in range(rnd.randint(1, 5))]
        I = minimal_generators(ring, [g for g in gens if any(g)] or [(1,) * ring.nvars])
        cases += [(I, Z) for Z in (ring.x_block(), ring.y_block(), ring.all_vars())]
    levels = Counter()
    for I, Z in cases:
        bigrade.clear_caches()
        comps = irreducible_decomposition(I)
        meets.clear()
        ladder = dimension_filtration(I, Z)
        for J, gamma in ladder.steps:
            higher = [pc.component for pc in comps if cd_prime(pc.radical, Z) > gamma]
            assert J == (intersect_all(higher) if higher else unit_ideal(I.ring)), (str(I), sorted(Z))
        above = [pc for pc in comps if cd_prime(pc.radical, Z) > ladder.cd_values[0]]
        assert len(meets) == len(above), (str(I), sorted(Z))
        levels[min(len(ladder.steps), 3)] += 1
    # ladders of one, two and three or more steps all occur
    assert sorted(levels) == [1, 2, 3], levels


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


# ideals with a ladder step that is not CM below a last step that is, which
# the property suite's draws do not reach: maximal depth holds on the first
# two and fails on the third, and none is sequentially CM
NOT_SEQCM = [
    ("ring 2 5\ngens: y4, y2*y5, y2*y3, x2*y1*y5, x2*y1*y3, x1*y3*y5\n", True, [(1, 1), (1, 2), (3, 3)]),
    ("ring 2 5\ngens: y3*y5, y1*y4*y5, x2*y3*y4, x1*y4*y5, x1*y2*y4, x1*y2*y3\n", True, [(2, 2), (2, 3), (4, 4)]),
    ("ring 2 4\ngens: y3*y4, y1*y4, x2*y2*y3, x1*x2*y1*y2\n", False, [(1, 2), (3, 3)]),
]


@pytest.mark.parametrize("text, maximal_depth, steps", NOT_SEQCM, ids=["2-5a", "2-5b", "2-4"])
def test_a_step_that_is_not_cm_makes_the_seqcm_verdict_false(text, maximal_depth, steps):
    # every step's (grade, cd) is also read off a Cech complex of J_i/J_(i-1)
    # in every degree of a box, by the brute-force oracle
    ring, I = parse_ideal_text(text)
    Z = ring.y_block()
    out = sequentially_cm(I, Z)
    assert out["verdict"] is False
    assert [(s["grade"], s["cd"]) for s in out["per_step"]] == steps
    assert analyze(I, Z).maximal_depth is maximal_depth
    below, oracle = I, []
    for J, _ in dimension_filtration(I, Z).steps:
        oracle.append(bf_subquotient_grade_cd(ring.nvars, J.gens, below.gens, sorted(Z)))
        below = J
    assert oracle == steps


def test_the_subquotient_oracle_matches_the_cyclic_oracle_on_seeded_draws():
    # on S/I, as the quotient of the unit ideal by I, over Q
    rng = random.Random(17)
    for _ in range(20):
        ring, I = random_ideal(rng, max_m=2, max_n=2, max_exp=2, max_gens=4)
        Z = sorted(ring.y_block())
        unit = [(0,) * ring.nvars]
        assert bf_subquotient_grade_cd(ring.nvars, unit, I.gens, Z) == bf_grade_cd(ring.nvars, I.gens, Z), I


def test_mgrade_constancy():
    ring, I = parse_ideal_text(EIGHT_GEN)
    assert mgrade_constancy(I, ring.y_block())
    r = RingSpec(1, 2)
    assert mgrade_constancy(minimal_generators(r, [(1, 1, 0)]), r.y_block())


def _drop_least(primes):
    return set(primes) - {min(primes, key=sorted)}


# each theorem check of the filtration on EIGHT_GEN along Q (cd classes 1:
# {x1, y1, y3, y4} and 2: {x2, y3, y4}, {x1, y1, y2}), made to fire by a
# fault in the one reader it compares against: (binding in `filtration`,
# fault given the reader and I, query, message)
THEOREM_CHECKS = {
    "ladder": (
        "meet_components", lambda real, I: lambda J, *_: J, "ladder",
        "filtration ladder is not strictly increasing",
    ),
    "ass_of_d": (
        "ass_subquotients", lambda real, I: lambda Js, Jp: [_drop_least(p) for p in real(Js, Jp)], "ladder",
        "Ass(D_i) mismatch at cd 1: computed [], expected [[0, 2, 4, 5]]",
    ),
    "ass_of_m_over_d": (
        "associated_primes", lambda real, I: lambda J: real(J) if J == I else _drop_least(real(J)), "ladder",
        "Ass(M/D_i) mismatch at cd 1",
    ),
    "ass_of_step": (
        "ass_subquotient", lambda real, I: lambda J, Jp: _drop_least(real(J, Jp)), "quotients",
        "Ass(D_i/D_(i-1)) mismatch at cd 2",
    ),
    "partition": (
        "associated_primes", lambda real, I: lambda J: real(J) | {frozenset()}, "quotients",
        "step primes do not partition Ass(M)",
    ),
    "step_cd": ("cd", lambda real, I: lambda N, Z: real(N, Z) + 1, "seqcm", "step cd 2 differs from ladder value 1"),
}


@pytest.mark.parametrize("reader, fault, query, message", THEOREM_CHECKS.values(), ids=THEOREM_CHECKS)
def test_each_theorem_check_of_the_filtration_fires_on_its_fault(monkeypatch, reader, fault, query, message):
    ring, I = parse_ideal_text(EIGHT_GEN)
    Q = ring.y_block()
    # a query after the ladder reads it, built before the fault, off its memo
    ladder = None if query == "ladder" else dimension_filtration(I, Q)
    monkeypatch.setattr(filtration, reader, fault(getattr(filtration, reader), I))
    with pytest.raises(InternalCheckFailed) as ei:
        if query == "ladder":
            dimension_filtration(I, Q)
        elif query == "quotients":
            ass_quotients(ladder)
        else:
            sequentially_cm(I, Q)
    assert str(ei.value) == message
