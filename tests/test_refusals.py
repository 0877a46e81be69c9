"""Each documented refusal raises its class with its message."""

import json
import os
import resource
import subprocess
import sys
import time
from math import prod

import pytest

import bigrade
from bigrade import homology, kernels
from bigrade.errors import (
    BadProfile,
    DimensionMismatch,
    InternalCheckFailed,
    PreconditionFailed,
    RingMismatch,
    UnitIdeal,
)
from bigrade.filtration import mgrade_constancy, sequentially_cm
from bigrade.homology import Subquotient, cech_piece_dim
from bigrade.hypersurface import FactorProfile, profile_of_monomial
from bigrade.invariants import InvariantReport, analyze, fibers, ordinary_depth, tensor_verdict
from bigrade.io_formats import parse_ideal_text, render_ideal
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
)
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    colon,
    dim_quotient,
    intersect,
    intersect_all,
    minimal_generators,
    primary_decomposition,
    unit_ideal,
    zero_ideal,
)
from test_closed_forms import one_generator

R11 = RingSpec(1, 1)
R21 = RingSpec(2, 1)
R181 = RingSpec(18, 1)
S = unit_ideal(R11)
# J = (x1*...*x18) over J' = (x1*...*x18*y1): 2^18 cells off Q
J18 = minimal_generators(R181, [(1,) * 18 + (0,)])
J18p = minimal_generators(R181, [(1,) * 19])


def _report(**fields):
    """An InvariantReport of S/(x1) over Q in ring 1 1, with `fields` changed."""
    values = dict(grade=1, cd=1, mgrade=1, dim=1, maximal_depth=True,
                  witness_prime=frozenset({0}), cm_wrt_Z=True, cm_ordinary=True)
    return InvariantReport(**{**values, **fields})


REFUSALS = {
    "ordinary_depth": (lambda: ordinary_depth(S), UnitIdeal, "depth of the zero module"),
    "generalized_cm": (lambda: generalized_cm(S), UnitIdeal, "generalized CM of the zero module"),
    "growth_scan": (lambda: growth_scan(S, 0, [1]), UnitIdeal, "growth scan of the zero module"),
    "corollary_check": (
        lambda: corollary_check(S),
        UnitIdeal,
        "corollary check of the zero module",
    ),
    "mgrade_constancy": (
        lambda: mgrade_constancy(S, R11.y_block()),
        UnitIdeal,
        "filtration of the zero module",
    ),
    "dim_quotient": (lambda: dim_quotient(S), UnitIdeal, "S/S is the zero module"),
    "primary_decomposition": (
        lambda: primary_decomposition(S),
        UnitIdeal,
        "unit ideal has no decomposition",
    ),
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
    # colon reads u by the monomial rule of minimal_generators, with its messages
    "colon": (
        lambda: colon(zero_ideal(R11), (1,)),
        DimensionMismatch,
        "monomial (1,) has length 1, ring has 2 variables",
    ),
    "colon_negative": (
        lambda: colon(minimal_generators(R11, [(1, 1)]), (-1, 0)),
        ValueError,
        "negative exponent in (-1, 0)",
    ),
    "colon_float": (
        lambda: colon(minimal_generators(R11, [(1, 1)]), (1.0, 0)),
        ValueError,
        "exponents must be integers, got (1.0, 0)",
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
    "rank_mod_p_zero": (
        lambda: kernels.rank_mod_p([[1, 1], [1, 1]], 0),
        ValueError,
        "p must be prime, got 0",
    ),
    # parse_ideal_text reads char by the same rule before any line, so the
    # error names no line and comes before the one a line would give
    "parse_ideal_text_char_before_lines": (
        lambda: parse_ideal_text("gens: x1\n", 4),
        ValueError,
        "characteristic must be 0 or prime, got 4",
    ),
    # a module that is not cyclic is named by both its ideals
    "fibers_subquotient_past_the_bound": (
        lambda: fibers(Subquotient(J18, J18p), R181.y_block()),
        PreconditionFailed,
        f"homology.exponent_cells: {2 ** 18} exponent cells exceed the bound {homology.MAX_CELLS}; "
        f"module J/J', J then J' =\n{render_ideal(J18)}{render_ideal(J18p)}",
    ),
    "InvariantReport_chain": (
        lambda: _report(grade=2, maximal_depth=False),
        InternalCheckFailed,
        "invariant chain violated: grade=2 mgrade=1 cd=1 dim=1",
    ),
    "InvariantReport_flag": (
        lambda: _report(maximal_depth=False),
        InternalCheckFailed,
        "maximal_depth flag inconsistent with grade/mgrade",
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
    # a factor bidegree is a pair of integers, read by RingSpec's integer rule
    "FactorProfile_float": (
        lambda: FactorProfile(((0.5, 0.5),)),
        ValueError,
        "a factor degree must be an integer, got 0.5",
    ),
    "FactorProfile_string": (
        lambda: FactorProfile((("1", 0),)),
        ValueError,
        "a factor degree must be an integer, got '1'",
    ),
    # emptiness is read off the list the loop built: an iterator is truthy
    "FactorProfile_empty_iterator": (
        lambda: FactorProfile(iter([])),
        BadProfile,
        "need at least one factor",
    ),
    "FactorProfile_triple": (
        lambda: FactorProfile(((1, 0, 2),)),
        BadProfile,
        "factor (1, 0, 2) is not a bidegree pair (a, b)",
    ),
    "profile_of_monomial_float": (
        lambda: profile_of_monomial(R11, (1.0, 2)),
        ValueError,
        "a factor degree must be an integer, got 1.0",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_its_class_and_message(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls) as info:
        call()
    assert str(info.value) == message


def _cells_over_Q(I):
    """The number of exponent cells the fibers of S/I over Q list: the
    product over the x-coordinates of their cell counts."""
    N = Subquotient.cyclic(I)
    return prod(len(homology._axis_cells(N, x)) for x in sorted(I.ring.x_block()))


def test_a_cell_product_past_the_bound_exits_3_before_it_is_built(tmp_path):
    I, _ = one_generator(24)
    cells = _cells_over_Q(I)
    assert cells == 2 ** 24 > homology.MAX_CELLS
    path = tmp_path / "one24.ideal"
    path.write_text(render_ideal(I))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bigrade.__file__)))
    # 1 GiB of address space: a process that builds the product fails, as
    # the 2^24 cells need several
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bigrade.cli", "seqcm", str(path)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 3, done.stdout + done.stderr
    assert json.loads(done.stdout)["error"] == (
        f"precondition: homology.exponent_cells: {cells} exponent cells exceed the bound "
        f"{homology.MAX_CELLS}; module S/I, I =\n{render_ideal(I)}"
    )


def test_a_cell_product_at_the_bound_still_answers():
    # S/(x1*...*x17) is a hypersurface ring, so CM: y1 is regular on it
    I, _ = one_generator(17)
    assert _cells_over_Q(I) == homology.MAX_CELLS
    Q = I.ring.y_block()
    rep = analyze(I, Q)
    assert (rep.grade, rep.cd, rep.maximal_depth) == (1, 1, True)
    assert sequentially_cm(I, Q)["verdict"]


def _interleaved_powers():
    """y1^j*y2^(8-j)*y3^j*y4^(8-j)*y5^j*y6^(8-j) for j = 1..7 in ring 1 6:
    eight Cech cells on each y-coordinate, 8^6 = 262,144 in the Q-axis
    table of its one fiber."""
    ring = RingSpec(1, 6)
    return minimal_generators(ring, [(0,) + (j, 8 - j) * 3 for j in range(1, 8)])


@pytest.mark.parametrize("make, axis, argv", [
    (lambda: one_generator(18)[0], "x", ["lc", "--i", "1", "--axis", "P"]),
    (_interleaved_powers, "y", ["lc", "--i", "3"]),
], ids=["one18_P", "interleaved_Q"])
def test_a_cech_table_past_the_bound_exits_3_before_it_is_walked(tmp_path, make, axis, argv):
    # the table of the one fiber over the axis is the product of the -1
    # class and the bounded cells of every coordinate of the fiber ring
    I = make()
    Z = I.ring.x_block() if axis == "x" else I.ring.y_block()
    (fc,) = fibers(Subquotient.cyclic(I), Z)
    fiber = fc.fiber
    cells = prod(len(homology._axis_cells(fiber, k, True)) for k in range(fiber.ring.nvars))
    assert cells == 2 ** 18 > homology.MAX_CELLS
    path = tmp_path / "table.ideal"
    path.write_text(render_ideal(I))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bigrade.__file__)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bigrade.cli", argv[0], str(path), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 3, done.stdout + done.stderr
    assert json.loads(done.stdout)["error"] == (
        f"precondition: homology.exponent_cells: {cells} exponent cells exceed the bound "
        f"{homology.MAX_CELLS}; module S/I, I =\n{render_ideal(fiber.Jp)}"
    )


def test_a_cech_table_at_the_bound_is_not_refused():
    # K[x1..xk]/(x1*...*xk): the -1 class and [0, 0] on each coordinate, 2^k
    # cells.  At k = 17 the iterator walks none until it is read; one more
    # coordinate is refused at the call.
    def table(k):
        ring = RingSpec(k, 0)
        N = Subquotient.cyclic(minimal_generators(ring, [(1,) * k]))
        return homology.exponent_cells(N, range(k), ring.all_vars())

    assert next(table(17))[:2] == ((-1,) * 17, (None,) * 17)
    with pytest.raises(PreconditionFailed, match="homology.exponent_cells: 262144 exponent cells"):
        table(18)
