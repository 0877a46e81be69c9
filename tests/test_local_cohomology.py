import pytest

from bigrade.errors import PreconditionFailed, UnitIdeal
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
    lc_report,
    question_counterexample_scan,
)
from bigrade.rings import RingSpec, intersect, minimal_generators, unit_ideal

EIGHT_GEN = """
ring 2 4
gens: x1*x2, x1*y3, x1*y4, x2*y1, y1*y3, y1*y4, y2*y4, y2*y3
"""


def two_prime_ideal():
    r = RingSpec(2, 4)
    i1 = minimal_generators(
        r, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    )
    i2 = minimal_generators(
        r, [(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    )
    return r, intersect(i1, i2)


def test_two_prime_reports():
    r, I = two_prime_ideal()
    h0 = lc_report(I, 0)
    assert h0.finitely_generated and h0.total_dim == 0

    h1 = lc_report(I, 1)
    assert h1.finitely_generated and h1.total_dim == 1

    h2 = lc_report(I, 2)
    assert not h2.finitely_generated and h2.total_dim is None
    assert any(e.witness_degree is not None for e in h2.per_fiber)


def test_fg_with_infinite_k_dimension():
    # S/(y1) = K[x1]: H^0 is the whole module, finitely generated but of
    # infinite K-dimension, so total_dim must be None while fg stays True
    r = RingSpec(1, 1)
    I = minimal_generators(r, [(0, 1)])
    rep = lc_report(I, 0)
    assert rep.finitely_generated
    assert rep.total_dim is None


def test_lc_errors():
    r = RingSpec(1, 1)
    with pytest.raises(UnitIdeal):
        lc_report(unit_ideal(r), 0)
    I = minimal_generators(r, [(0, 1)])
    with pytest.raises(PreconditionFailed):
        lc_report(I, 5)


def test_generalized_cm():
    r, I = two_prime_ideal()
    assert generalized_cm(I)
    ring, J = parse_ideal_text(EIGHT_GEN)
    assert not generalized_cm(J)


def test_growth_two_prime():
    r, I = two_prime_ideal()
    assert growth_scan(I, 1, [1, 2, 3, 4]) == [1, 1, 1, 1]
    assert growth_scan(I, 0, [1, 2, 3, 4]) == [0, 0, 0, 0]


def test_growth_eight_gen_strictly_increasing():
    ring, I = parse_ideal_text(EIGHT_GEN)
    sums = growth_scan(I, 1, [1, 2, 3, 4])
    assert sums == [3, 7, 13, 21]
    assert all(a < b for a, b in zip(sums, sums[1:]))


def test_growth_rejects_negative_radius():
    r, I = two_prime_ideal()
    with pytest.raises(ValueError):
        growth_scan(I, 1, [-3, 0, 3])


def test_corollary_check_two_prime():
    r, I = two_prime_ideal()
    triple = corollary_check(I)
    assert triple == {"max_depth": False, "seq_cm": False, "cm_wrt_Q": False}


def test_corollary_preconditions():
    r = RingSpec(1, 1)
    grade0 = minimal_generators(r, [(0, 1)])  # grade(Q, S/(y1)) = 0
    with pytest.raises(PreconditionFailed):
        corollary_check(grade0)
    ring, J = parse_ideal_text(EIGHT_GEN)  # not generalized CM
    with pytest.raises(PreconditionFailed):
        corollary_check(J)


def test_corollary_all_true_case():
    # S/(x1) = K[y1,y2] is CM w.r.t. Q, hence all three statements hold
    r = RingSpec(1, 2)
    I = minimal_generators(r, [(1, 0, 0)])
    triple = corollary_check(I)
    assert triple == {"max_depth": True, "seq_cm": True, "cm_wrt_Q": True}


def test_question_scan_returns_list():
    r, I = two_prime_ideal()
    assert question_counterexample_scan(I) == []
