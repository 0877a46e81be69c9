"""check_instance: one dimension filtration per ideal, and failures reported, not raised."""

import pytest

import bigrade
from bigrade import filtration, homology, suite
from bigrade.errors import InternalCheckFailed
from bigrade.filtration import (
    ass_quotients,
    dimension_filtration,
    mgrade_constancy,
    sequentially_cm,
)
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import corollary_check
from bigrade.rings import RingSpec, minimal_generators, zero_ideal
from bigrade.suite import check_instance, run_property_suite
# grade 1 and not generalized CM, so the gencm triple does not run
from test_acceptance import EIGHT_GEN


def test_check_instance_builds_the_ladder_once(record):
    walks = record((filtration, homology), "ass_subquotients")
    ring, I = parse_ideal_text(EIGHT_GEN)
    steps = len(dimension_filtration(I, ring.y_block()).steps)
    bigrade.clear_caches()
    walks.clear()
    verified = record(filtration, "_verify_ass_facts")
    assert check_instance(ring, I) == []
    assert len(verified) == 1
    # one walk gives Ass(J_i/I) of every step for the ladder, then one walk
    # gives Ass(J_i/J_(i-1)) for each step but the first
    assert len(walks) == steps


def test_corollary_check_reuses_the_ladder(record):
    # (x1*x2) has grade 2 and is generalized CM, so corollary_check runs
    ring = RingSpec(2, 2)
    I = minimal_generators(ring, [(1, 1, 0, 0)])
    verified = record(filtration, "_verify_ass_facts")
    assert check_instance(ring, I) == []
    assert len(verified) == 1


def test_failing_ladder_is_reported_not_raised(monkeypatch):
    def broken(*args):
        raise InternalCheckFailed("forced")

    monkeypatch.setattr(filtration, "_verify_ass_facts", broken)
    ring, I = parse_ideal_text(EIGHT_GEN)
    # the checks that need the ladder are skipped; the others all pass
    assert check_instance(ring, I) == ["ladder_ass_identities"]


def test_one_ladder_per_ideal_and_axis(record):
    ring = RingSpec(2, 2)
    I = minimal_generators(ring, [(1, 1, 0, 0)])
    Z = ring.y_block()
    verified = record(filtration, "_verify_ass_facts")
    ladder = dimension_filtration(I, Z)
    assert dimension_filtration(I, Z) is ladder
    assert ass_quotients(ladder)
    assert sequentially_cm(I, Z)["verdict"]
    assert mgrade_constancy(I, Z)
    assert corollary_check(I, Z)["seq_cm"]
    assert len(verified) == 1
    # another axis builds its own ladder, once
    assert dimension_filtration(I, ring.x_block()) is not ladder
    sequentially_cm(I, ring.x_block())
    assert len(verified) == 2


def test_a_failed_ladder_is_not_memoized(monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise InternalCheckFailed("forced")

    monkeypatch.setattr(filtration, "_verify_ass_facts", broken)
    ring, I = parse_ideal_text(EIGHT_GEN)
    Z = ring.y_block()
    # every reader of the ladder sees the failure, not a cached value
    for reader in (dimension_filtration, sequentially_cm, mgrade_constancy):
        with pytest.raises(InternalCheckFailed):
            reader(I, Z)
    assert len(calls) == 3


@pytest.mark.parametrize("name, check", [("cd", "cd_P"), ("analyze", "analyze_Q")])
def test_a_failing_invariant_is_reported_not_raised(monkeypatch, name, check):
    def broken(*args):
        raise InternalCheckFailed("forced")

    monkeypatch.setattr(suite, name, broken)
    out = run_property_suite(5)
    # only the checks that read the broken invariant are skipped
    assert set(out["violations"]) == {check}
    assert len(out["violations"][check]) == out["count"]
    assert not out["ok"]


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 3), (3, 3)])
def test_every_check_holds_on_the_zero_ideal(m, n):
    # S = S/(0) is Cohen-Macaulay, and its ladder is 0 < S
    ring = RingSpec(m, n)
    assert check_instance(ring, zero_ideal(ring)) == []
