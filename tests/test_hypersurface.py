from itertools import combinations_with_replacement, product as iproduct

import pytest

from bigrade.errors import BadProfile, BadRing, InternalCheckFailed, ParseError
from bigrade.hypersurface import (
    FactorProfile,
    HypersurfaceVerdict,
    classify,
    monomial_crosscheck,
    parse_profile,
    profile_of_monomial,
)
from bigrade.rings import RingSpec

R22 = RingSpec(2, 2)


def test_profile_totals():
    p = FactorProfile(((2, 0), (1, 1), (0, 3)))
    assert (p.alpha1, p.alpha2, p.beta1, p.beta2) == (2, 1, 1, 3)
    assert (p.a, p.b) == (3, 4)


def test_profile_validation():
    with pytest.raises(BadProfile):
        FactorProfile(())
    with pytest.raises(BadProfile):
        FactorProfile(((0, 0),))
    with pytest.raises(BadProfile):
        FactorProfile(((-1, 2),))


def test_inconsistent_verdict_is_an_internal_failure():
    # grade = mgrade means maximal depth, which needs one of the cases a, b, c
    with pytest.raises(InternalCheckFailed):
        HypersurfaceVerdict(True, "none", 1, 1, "case5")


def test_classify_cases():
    # all four sums positive
    v = classify(FactorProfile(((1, 0), (1, 1), (0, 1))), R22)
    assert (v.case_label, v.maximal_depth) == ("a", True)
    assert (v.grade_Q, v.mgrade_Q) == (1, 1)

    # mixed + pure-y, no pure-x
    v = classify(FactorProfile(((1, 1), (0, 2))), R22)
    assert (v.case_label, v.case_trace) == ("b", "case2")
    assert v.maximal_depth

    # split into pure blocks
    v = classify(FactorProfile(((1, 0), (0, 1))), R22)
    assert (v.case_label, v.case_trace) == ("c", "case3")
    assert (v.grade_Q, v.mgrade_Q) == (1, 1)

    # purely x: b = 0 forces grade = mgrade = n
    v = classify(FactorProfile(((2, 0),)), R22)
    assert (v.case_label, v.case_trace) == ("c", "pure-block")
    assert (v.grade_Q, v.mgrade_Q) == (2, 2)

    # mixed + pure-x, no pure-y
    v = classify(FactorProfile(((1, 0), (1, 1))), R22)
    assert (v.case_label, v.case_trace) == ("none", "case4")
    assert (v.grade_Q, v.mgrade_Q) == (1, 2)

    # single mixed factor
    v = classify(FactorProfile(((1, 1),)), R22)
    assert (v.case_label, v.case_trace) == ("none", "case5")
    assert (v.grade_Q, v.mgrade_Q) == (1, 2)
    assert not v.maximal_depth


def _paper_case(p):
    """(case_label, case_trace) of the hypersurface theorem, stated in its
    alpha/beta sums; exactly one case holds."""
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    cases = {
        ("a", "case1"): a1 > 0 and a2 > 0 and b1 > 0 and b2 > 0,
        ("b", "case2"): a1 == 0 and a2 > 0 and b1 > 0 and b2 > 0,
        ("c", "case3"): a1 > 0 and a2 == b1 == 0 and b2 > 0,
        ("c", "pure-block"): a2 == b1 == 0 and (a1 == 0 or b2 == 0),
        ("none", "case4"): a1 > 0 and a2 > 0 and b1 > 0 and b2 == 0,
        ("none", "case5"): a1 == 0 and a2 > 0 and b1 > 0 and b2 == 0,
    }
    (case,) = [case for case, holds in cases.items() if holds]
    return case


def test_classify_matches_the_paper_cases_exhaustively():
    # every profile of at most 4 factors with bidegrees in 0..3, in every
    # ring 1..3 x 1..3: grade_Q drops iff b > 0, mgrade_Q iff beta2 > 0
    bidegs = [(a, b) for a, b in iproduct(range(4), repeat=2) if a + b >= 1]
    rings = [RingSpec(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    for k in range(1, 5):
        for factors in combinations_with_replacement(bidegs, k):
            p = FactorProfile(factors)
            label, trace = _paper_case(p)
            for ring in rings:
                v = classify(p, ring)
                expected = (
                    label != "none",
                    label,
                    trace,
                    ring.n - (p.b > 0),
                    ring.n - (p.beta2 > 0),
                )
                got = (v.maximal_depth, v.case_label, v.case_trace, v.grade_Q, v.mgrade_Q)
                assert got == expected, (factors, ring)


def test_classify_needs_both_blocks():
    with pytest.raises(BadRing):
        classify(FactorProfile(((1, 1),)), RingSpec(0, 2))


def test_condensed_criterion_small():
    bidegs = [
        (a, b) for a, b in iproduct(range(3), repeat=2) if a + b >= 1
    ]
    for k in (1, 2):
        for factors in iproduct(bidegs, repeat=k):
            p = FactorProfile(factors)
            v = classify(p, R22)
            assert v.maximal_depth == (p.b == 0 or p.beta2 > 0)


def test_profile_of_monomial():
    p = profile_of_monomial(R22, (2, 0, 1, 0))
    assert p.factors == ((2, 0), (0, 1))
    with pytest.raises(BadProfile):
        profile_of_monomial(R22, (0, 0, 0, 0))
    with pytest.raises(BadProfile):
        profile_of_monomial(R22, (1, 0))


def test_monomial_crosscheck_spots():
    assert monomial_crosscheck((1, 0, 1, 0), R22)  # x1*y1: split blocks
    assert monomial_crosscheck((1, 1, 0, 0), R22)  # x1*x2: pure x
    assert monomial_crosscheck((0, 0, 1, 1), R22)  # y1*y2: pure y
    r12 = RingSpec(1, 2)
    assert monomial_crosscheck((1, 1, 0), r12)  # would-be mixed factor? x1, y1 powers


def test_parse_profile():
    p = parse_profile("factors: (1,1) (0,2)", R22)
    assert p.factors == ((1, 1), (0, 2))
    p = parse_profile("x1 y2 (2,1)", R22)
    assert p.factors == ((1, 0), (0, 1), (2, 1))
    # every error names the profile's line, the inline text being line 1;
    # a variable token names a variable of the ring, as in an ideal file
    for text, message, line in [
        ("", "empty factor profile", None),
        ("# c\nfactors:\n", "empty factor profile", 2),
        ("# c\nfactors: (1;2)", "bad bidegree '(1;2)'", 2),
        ("factors: z3", "bad factor token 'z3'", 1),
        ("(1,1) (1_0,2)", "bad bidegree '(1_0,2)'", 1),
        ("x9 y1", "x9 out of range (m=2)", 1),
        ("# c\nfactors: x1 y0", "y0 out of range (n=2)", 2),
        ("y3", "y3 out of range (n=2)", 1),
        ("x1^2", "bad factor token 'x1^2'", 1),
    ]:
        with pytest.raises(ParseError) as ei:
            parse_profile(text, R22)
        assert (str(ei.value), ei.value.line) == (message, line)
