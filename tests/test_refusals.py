"""Each documented refusal raises its class with its message."""

import pytest

from bigrade import kernels
from bigrade.errors import DimensionMismatch, RingMismatch, UnitIdeal
from bigrade.filtration import mgrade_constancy
from bigrade.homology import Subquotient, cech_piece_dim
from bigrade.invariants import ordinary_depth, tensor_verdict
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
    question_counterexample_scan,
)
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    colon,
    dim_quotient,
    intersect,
    intersect_all,
    unit_ideal,
    zero_ideal,
)

R11 = RingSpec(1, 1)
R21 = RingSpec(2, 1)
S = unit_ideal(R11)

REFUSALS = {
    "ordinary_depth": (lambda: ordinary_depth(S), UnitIdeal, "depth of the zero module"),
    "generalized_cm": (lambda: generalized_cm(S), UnitIdeal, "generalized CM of the zero module"),
    "growth_scan": (lambda: growth_scan(S, 0, [1]), UnitIdeal, "growth scan of the zero module"),
    "corollary_check": (
        lambda: corollary_check(S),
        UnitIdeal,
        "corollary check of the zero module",
    ),
    "question_counterexample_scan": (
        lambda: question_counterexample_scan(S),
        UnitIdeal,
        "scan of the zero module",
    ),
    "mgrade_constancy": (
        lambda: mgrade_constancy(S, R11.y_block()),
        UnitIdeal,
        "filtration of the zero module",
    ),
    "dim_quotient": (lambda: dim_quotient(S), UnitIdeal, "S/S is the zero module"),
    "check_same_ring": (
        lambda: intersect(zero_ideal(R11), zero_ideal(R21)),
        RingMismatch,
        f"rings differ: {R11} vs {R21}",
    ),
    "tensor_verdict": (
        lambda: tensor_verdict(zero_ideal(R11), zero_ideal(R21)),
        RingMismatch,
        f"rings differ: {R11} vs {R21}",
    ),
    "intersect_all": (lambda: intersect_all([]), ValueError, "intersect_all needs at least one ideal"),
    "MonomialIdeal": (
        lambda: MonomialIdeal(R11, ((1,),)),
        DimensionMismatch,
        "generator (1,) has length 1, ring has 2 variables",
    ),
    "colon": (
        lambda: colon(zero_ideal(R11), (1,)),
        DimensionMismatch,
        f"monomial (1,) has wrong length for {R11}",
    ),
    "rank": (lambda: kernels.rank([[1, 0], [1]]), ValueError, "rank_char0 expects a rectangular matrix"),
    "rank_mod_p": (
        lambda: kernels.rank([[1, 0], [1]], 3),
        ValueError,
        "rank_mod_p expects a rectangular matrix",
    ),
    # the modulus is read by RingSpec's characteristic rule, with its messages
    "rank_mod_p_composite": (
        lambda: kernels.rank_mod_p([[1, 1], [1, 1]], 4),
        ValueError,
        "characteristic must be 0 or prime, got 4",
    ),
    "rank_mod_p_float": (
        lambda: kernels.rank_mod_p([[1, 1], [1, 1]], 3.5),
        ValueError,
        "the characteristic must be an integer, got 3.5",
    ),
    "rank_mod_p_string": (
        lambda: kernels.rank_mod_p([[1, 1], [1, 1]], "3"),
        ValueError,
        "the characteristic must be an integer, got '3'",
    ),
    "rank_composite": (
        lambda: kernels.rank([[2, 0], [0, 2]], 4),
        ValueError,
        "characteristic must be 0 or prime, got 4",
    ),
    # rank reads char by the same rule before it picks Q: 0.0 is refused as 3.0 is
    "rank_float_zero": (
        lambda: kernels.rank([[1, 0], [0, 1]], 0.0),
        ValueError,
        "the characteristic must be an integer, got 0.0",
    ),
    "cech_piece_dim_float_index": (
        lambda: cech_piece_dim(Subquotient.cyclic(zero_ideal(R11)), R11.y_block(), 1.0, (0, -1)),
        ValueError,
        "the local cohomology index must be an integer, got 1.0",
    ),
    "cech_piece_dim_string_index": (
        lambda: cech_piece_dim(Subquotient.cyclic(zero_ideal(R11)), R11.y_block(), "1", (0, -1)),
        ValueError,
        "the local cohomology index must be an integer, got '1'",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_its_class_and_message(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls) as info:
        call()
    assert str(info.value) == message
