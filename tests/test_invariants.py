import sys

import pytest

import bigrade
from bigrade import homology, invariants, rings
from bigrade.errors import InternalCheckFailed, UnitIdeal, WrongBlock, ZeroModule
from bigrade.homology import Subquotient, exponent_cells
from bigrade.invariants import (
    _cd_prime,
    analyze,
    cd,
    fibers,
    grade,
    mgrade,
    ordinary_depth,
    tensor_verdict,
)
from bigrade.local_cohomology import growth_scan, lc_report
from bigrade.rings import RingSpec, minimal_generators, unit_ideal, var_power, zero_ideal
from test_acceptance import ideal, two_prime_ideal


def test_fibers_merge_and_flag_families():
    r = RingSpec(1, 1)
    N = Subquotient.cyclic(ideal(r, (1, 1)))  # S/(x1*y1)
    fcs = fibers(N, r.y_block())
    # slice a=0 gives K[y1]; slice a=1 (capped) gives K[y1]/(y1)
    assert len(fcs) == 2
    assert {fc.fiber.Jp.gens for fc in fcs} == {(), ((1,),)}
    capped = next(fc for fc in fcs if fc.fiber.Jp.gens)
    assert capped.infinite_family
    assert capped.n_single == 0
    free = next(fc for fc in fcs if not fc.fiber.Jp.gens)
    assert free.n_single == 1
    # each class keeps its cells' corners and lengths, a cap's as None
    assert (capped.patterns, capped.lengths) == (((1,),), ((None,),))
    assert (free.patterns, free.lengths) == (((0,),), ((1,),))


def test_fibers_list_only_nonzero_classes():
    r = RingSpec(1, 1)
    I = ideal(r, (1, 0))  # S/(x1)
    N = Subquotient.cyclic(I)
    Q = r.y_block()
    # slice a=0 gives K[y1]; the capped slices a >= 1 give K[y1]/(1) = 0
    (fc,) = fibers(N, Q)
    assert fc.fiber == Subquotient.cyclic(zero_ideal(RingSpec(0, 1)))
    assert (fc.patterns, fc.n_single, fc.infinite_family) == (((0,),), 1, False)
    assert (grade(N, Q), cd(N, Q)) == (1, 1)
    h0, h1 = lc_report(I, 0, Q), lc_report(I, 1, Q)
    assert (h0.finitely_generated, h0.total_dim, len(h0.per_fiber)) == (True, 0, 1)
    assert (h1.finitely_generated, h1.total_dim) == (False, None)
    assert h1.per_fiber[0].witness_degree == (-1,)
    assert growth_scan(I, 0, [0, 1, 2, 3], Q) == [0, 0, 0, 0]
    assert growth_scan(I, 1, [0, 1, 2, 3], Q) == [0, 1, 2, 3]


def test_fibers_classify_cells_by_generator_bitsets(record):
    # (x1, ..., x12) in ring 12 1 over Q: 2^12 complement cells, and only the
    # cell at 0 has a nonzero fiber, K[y1].  The cells are classified by the
    # bitsets of their corner rows, so no restricted colon is minimized per
    # cell (the cell walk used to make two minimal_generators calls per cell).
    ring = RingSpec(12, 1)
    I = minimal_generators(ring, [var_power(ring, i) for i in range(12)])
    N = Subquotient.cyclic(I)
    Q = ring.y_block()
    assert len(list(exponent_cells(N, sorted(ring.x_block())))) == 4096
    binders = tuple(
        module for name, module in sys.modules.items()
        if name.startswith("bigrade") and getattr(module, "minimal_generators", None) is rings.minimal_generators
    )
    calls = record(binders, "minimal_generators")
    (fc,) = fibers(N, Q)
    assert calls == []
    assert fc.fiber == Subquotient.cyclic(zero_ideal(RingSpec(0, 1)))
    assert (fc.patterns, fc.n_single, fc.infinite_family) == (((0,) * 12,), 1, False)


def test_fibers_walk_each_complement_coordinate_once(record):
    # one _axis_cells pass per complement coordinate gives both the cells and
    # their corner rows (the walk used to make a second pass for the cells);
    # the fibers walk the cells through `homology.exponent_cells`, so the
    # count is taken in homology
    ring = RingSpec(12, 1)
    I = minimal_generators(ring, [var_power(ring, i) for i in range(12)])
    calls = record(homology, "_axis_cells")
    bigrade.clear_caches()
    (fc,) = fibers(Subquotient.cyclic(I), ring.y_block())
    assert sorted(call["k"] for call in calls) == list(range(12))
    assert (fc.patterns, fc.n_single, fc.infinite_family) == (((0,) * 12,), 1, False)


def test_fibers_reject_zero_module():
    r = RingSpec(1, 1)
    I = ideal(r, (1, 1))
    with pytest.raises(ZeroModule):
        fibers(Subquotient(I, I), r.y_block())


def test_grade_cd_simple():
    r = RingSpec(1, 2)
    N = Subquotient.cyclic(ideal(r, (1, 1, 0)))  # S/(x1*y1)
    assert grade(N, r.y_block()) == 1
    assert cd(N, r.y_block()) == 2
    assert mgrade(ideal(r, (1, 1, 0)), r.y_block()) == 1


def test_cd_prime():
    assert _cd_prime(frozenset({0, 2}), frozenset({2, 3})) == 1
    assert _cd_prime(frozenset(), frozenset({2, 3})) == 2


def test_analyze_two_prime():
    r, I = two_prime_ideal()
    rep = analyze(I, r.y_block())
    assert (rep.grade, rep.mgrade, rep.cd, rep.dim) == (1, 2, 2, 3)
    assert not rep.maximal_depth
    assert rep.witness_prime is None
    assert not rep.cm_wrt_Z


def test_analyze_free_direction():
    r = RingSpec(1, 2)
    I = ideal(r, (1, 0, 0))  # S/(x1) = K[y1,y2]
    rep = analyze(I, r.y_block())
    assert (rep.grade, rep.mgrade, rep.cd) == (2, 2, 2)
    assert rep.maximal_depth and rep.cm_wrt_Z and rep.cm_ordinary
    assert rep.witness_prime == frozenset({0})


def test_analyze_errors():
    r = RingSpec(1, 1)
    with pytest.raises(UnitIdeal):
        analyze(unit_ideal(r), r.y_block())
    with pytest.raises(UnitIdeal):
        mgrade(unit_ideal(r), r.y_block())


def test_ordinary_depth_and_mdepth():
    r = RingSpec(1, 1)
    I = ideal(r, (1, 1))
    assert ordinary_depth(I) == 1
    assert mgrade(I, r.all_vars()) == 1


def test_tensor_maximal_depth():
    r = RingSpec(1, 2)
    Ix = ideal(r, (1, 0, 0))
    Iy = ideal(r, (0, 1, 1))
    assert tensor_verdict(Ix, Iy) == {"verdict": True}


def test_tensor_without_maximal_depth():
    # K[y1..y4]/((y1,y2) cap (y3,y4)) has depth 1 < mdepth 2
    r = RingSpec(1, 4)
    Ix = ideal(r, (1, 0, 0, 0, 0))
    Iy = ideal(
        r,
        (0, 1, 0, 1, 0),
        (0, 1, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1),
    )
    assert tensor_verdict(Ix, Iy) == {"verdict": False}


@pytest.mark.parametrize(
    "reader, fault, message",
    [
        (
            "ordinary_depth", lambda real: lambda J: real(J) + (J.ring == RingSpec(0, 2)),
            "tensor invariants disagree: grade=1 vs depth=2, mgrade=1 vs mdepth=1",
        ),
        (
            "associated_primes", lambda real: lambda J: set() if J.ring == RingSpec(1, 0) else real(J),
            "Ass of the product module is not the set of prime sums",
        ),
    ],
    ids=["invariants", "ass"],
)
def test_each_theorem_check_of_tensor_verdict_fires_on_its_fault(monkeypatch, reader, fault, message):
    # (x1) + (y1*y2) in ring 1 2, with maximal depth: the depth of K[y]/Iy
    # raised by one, or Ass of K[x]/Ix emptied, on the block rings only, so
    # the product module's own invariants stay right
    r = RingSpec(1, 2)
    monkeypatch.setattr(invariants, reader, fault(getattr(invariants, reader)))
    with pytest.raises(InternalCheckFailed) as ei:
        tensor_verdict(ideal(r, (1, 0, 0)), ideal(r, (0, 1, 1)))
    assert str(ei.value) == message


def test_tensor_block_checks():
    r = RingSpec(1, 2)
    mixed = ideal(r, (1, 1, 0))
    with pytest.raises(WrongBlock):
        tensor_verdict(mixed, ideal(r, (0, 1, 0)))
    with pytest.raises(UnitIdeal):
        tensor_verdict(unit_ideal(r), ideal(r, (0, 1, 0)))
