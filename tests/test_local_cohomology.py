import inspect
import random
import time
from itertools import combinations

import pytest

from bruteforce import bf_ass_subquotient, bf_fibers, bf_grade_cd, bf_growth_scan, bf_lc_report, fine_piece
import bigrade
from bigrade import homology, invariants, local_cohomology, rings
from bigrade.cli import main
from bigrade.errors import InternalCheckFailed, PreconditionFailed, UnitIdeal
from bigrade.filtration import dimension_filtration, mgrade_constancy, sequentially_cm
from bigrade.homology import (
    Subquotient,
    ass_subquotient,
    ass_subquotients,
    betti_and_projdim,
    cech_dims_at,
    cech_piece_dim,
    depth_module,
    exponent_cells,
)
from bigrade.invariants import analyze, cd, fibers, grade, mgrade, ordinary_depth
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
    lc_report,
)
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    associated_primes,
    colon,
    intersect,
    minimal_generators,
    prime_ideal,
    sum_ideal,
    unit_ideal,
    zero_ideal,
)
from bigrade.suite import random_ideal
from test_acceptance import EIGHT_GEN, two_prime_ideal
from test_closed_forms import FAMILIES, edge_ideal, one_generator
from test_field_dependence import RP2_16


def test_the_corollary_check_fires_when_its_statements_disagree(monkeypatch):
    # the two-prime intersection has grade 1 and is generalized CM, with all
    # three statements false; a sequential CM verdict faulted to true breaks
    # the equivalence the corollary proves
    r, I = two_prime_ideal()
    monkeypatch.setattr(local_cohomology, "sequentially_cm", lambda I, Z: {"verdict": True, "per_step": []})
    with pytest.raises(InternalCheckFailed) as ei:
        corollary_check(I)
    assert str(ei.value) == "corollary equivalence violated: {'max_depth': False, 'seq_cm': True, 'cm_wrt_Q': False}"


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


def test_a_non_integer_index_or_radius_is_refused_cold_and_warm():
    I = minimal_generators(RingSpec(1, 1), [(1, 1)])
    with pytest.raises(ValueError, match="integer"):
        lc_report(I, 1.0)
    rep = lc_report(I, 1)
    # 1.0 == 1 and hashes alike, so unrefused it would read the memo entry of 1
    with pytest.raises(ValueError, match="integer"):
        lc_report(I, 1.0)
    assert lc_report(I, True) is rep  # a bool is an integer, as in minimal_generators
    for radii in ([0.5, 2.5], ["3"]):
        with pytest.raises(ValueError, match="integer"):
            growth_scan(I, 1, radii)
    with pytest.raises(ValueError, match="integer"):
        growth_scan(I, 1.0, [1])


AXIS_CALLS = {
    "analyze": analyze,
    "betti_and_projdim": lambda I, Z: betti_and_projdim(Subquotient.cyclic(I), Z),
    "cd": lambda I, Z: cd(Subquotient.cyclic(I), Z),
    "cech_piece_dim": lambda I, Z: cech_piece_dim(Subquotient.cyclic(I), Z, 1, [0] * I.ring.m + [-1] * I.ring.n),
    "corollary_check": corollary_check,
    "depth_module": lambda I, Z: depth_module(Subquotient.cyclic(I), Z),
    "dimension_filtration": dimension_filtration,
    "fibers": lambda I, Z: fibers(Subquotient.cyclic(I), Z),
    "generalized_cm": generalized_cm,
    "grade": lambda I, Z: grade(Subquotient.cyclic(I), Z),
    "growth_scan": lambda I, Z: growth_scan(I, 1, [1], Z),
    "lc_report": lambda I, Z: lc_report(I, 1, Z),
    "mgrade": mgrade,
    "mgrade_constancy": mgrade_constancy,
    "sequentially_cm": sequentially_cm,
}
# the Betti and depth scans, whose one legal axis is every variable
SCANS = {"betti_and_projdim", "depth_module"}


def _axis(name, ring) -> list:
    """A legal axis of the entry point `name`: every variable for a scan, else Q."""
    return sorted(ring.all_vars() if name in SCANS else ring.y_block())


@pytest.mark.parametrize("name", sorted(AXIS_CALLS))
def test_an_axis_outside_the_ring_is_refused_cold_and_warm(name):
    # -1 would read y1 through negative indexing, 9 and 5 lie past the two
    # variables, and 1.0 == 1 would read the memo entry of the axis (y1);
    # [0, 1.0] is every variable as a set, and ["a", 1] cannot be sorted
    I = minimal_generators(RingSpec(1, 1), [(1, 1)])
    call = AXIS_CALLS[name]
    for Z in ([-1], [9], [7], {0, 5}, ["a"], ["a", 1], [1.0], [1, 1.0], [0, 1.0]):
        # depth_module reads Z as its memo key first, where 1.0 after 1 is
        # the same entry, so it refuses [1, 1.0] as the proper axis {1}
        proper = (name, Z) == ("depth_module", [1, 1.0])
        refused = (PreconditionFailed, "all variables") if proper else (ValueError, "axis variable")
        with pytest.raises(refused[0], match=refused[1]):
            call(I, Z)
    if name != "corollary_check":  # x1*y1 has grade 0 along y1
        call(I, _axis(name, I.ring))
    with pytest.raises(ValueError, match="axis variable"):
        call(I, [1.0])
    if name == "depth_module":
        # warm, [0, 1.0] hashes as every variable and reads that memo entry,
        # the all-variables depth; only that axis is ever stored
        assert call(I, [0, 1.0]) == 1
        assert [Z for _, Z in homology._depth_cache] == [I.ring.all_vars()]


def _outcome(call, I, Z):
    """call(I, Z), or the class and message of what it raised."""
    try:
        return call(I, Z)
    except Exception as error:
        return type(error), str(error)


def test_an_axis_is_read_once_as_a_set():
    # a second read of an iterator finds it spent, and |Z| of a list with a
    # repeated entry counts that entry twice; a depth taken from the raw list
    # would be stored as the depth over every variable, which ordinary_depth
    # reads.  S/(x1*y1, y1*y2) has depth 1 and projdim 2.
    I = minimal_generators(RingSpec(1, 2), [(1, 1, 0), (0, 1, 1)])
    for name, call in AXIS_CALLS.items():
        Z = _axis(name, I.ring)
        want = _outcome(call, I, frozenset(Z))
        for read in (iter(Z), Z + Z[-1:]):
            bigrade.clear_caches()
            assert _outcome(call, I, read) == want, name
    bigrade.clear_caches()
    depth_module(Subquotient.cyclic(I), [0, 1, 2, 2])
    assert ordinary_depth(I) == 1


def test_every_entry_point_that_takes_an_axis_is_tested_on_it():
    # a function exported by bigrade with a parameter Z is in AXIS_CALLS, so
    # both tests above read its axis
    takes_z = {
        name for name, value in vars(bigrade).items()
        if inspect.isfunction(value) and "Z" in inspect.signature(value).parameters
    }
    assert takes_z == set(AXIS_CALLS)


def test_growth_reads_slice_lengths_without_a_second_cell_walk(record):
    # (x1, ..., x12) in ring 12 1: S/I = K[y1], so H^1_Q is H^1_(y1)(K[y1]),
    # one degree at each of -1, ..., -r
    ring = RingSpec(12, 1)
    I = minimal_generators(ring, [tuple(int(k == i) for k in range(13)) for i in range(12)])
    Q = ring.y_block()
    assert growth_scan(I, 1, [0, 1, 2, 5], Q) == [0, 1, 2, 5]
    # with fibers and their Cech tables warm, the slices' cell lengths come
    # from the per-coordinate cells, not from walking the product again
    calls = record(local_cohomology, "exponent_cells")
    assert growth_scan(I, 1, [0, 1, 2, 5], Q) == [0, 1, 2, 5]
    assert calls == []


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


def test_corollary_holds_on_the_zero_ideal():
    triple = corollary_check(zero_ideal(RingSpec(1, 2)))
    assert triple == {"max_depth": True, "seq_cm": True, "cm_wrt_Q": True}


def test_each_associated_prime_gives_a_witness_family_on_both_axes():
    # suite._ass_lc_not_fg's proof, step by step: for each component (a, p)
    # of the decomposition, (I : x^w) = p for w = a - 1 on p and the lcm box
    # off p; for each axis Z with F = Z \ p nonempty, the Cech complex on Z
    # at a degree with a_F < 0 and w elsewhere is K at index |F| only; and
    # H^|F|_Z(S/I) is not finitely generated.  x1*...*xk stops at k = 8: its
    # P axis has 2^k Cech cells, each ranked (1.1 s at k = 10)
    ideals = [edge_ideal(n, cycle) for n in range(3, 11) for cycle in (False, True)]
    for family in FAMILIES:
        ideals += [family(k)[0] for k in range(1, 9 if family is one_generator else 11)]
    ideals += [parse_ideal_text(RP2_16, char=char)[1] for char in (0, 2)]
    rng = random.Random(20240813)
    ideals += [random_ideal(rng, max_m=3, max_n=4, max_exp=3)[1] for _ in range(200)]
    cases = 0
    for I in ideals:
        ring, N, box = I.ring, Subquotient.cyclic(I), I.max_exponents()
        for a, p in rings._decomposition(I):
            w = tuple(a[k] - 1 if k in p else box[k] for k in range(ring.nvars))
            assert colon(I, w) == prime_ideal(ring, p), (str(I), sorted(p))
            for Z in (ring.x_block(), ring.y_block()):
                F = Z - p
                if not F:
                    continue
                case = (str(I), sorted(p), sorted(Z))
                for low in (-1, -2):
                    d = tuple(low if k in F else w[k] for k in range(ring.nvars))
                    assert cech_dims_at(N, Z, d) == [int(i == len(F)) for i in range(len(Z) + 1)], case
                assert not lc_report(I, len(F), Z).finitely_generated, case
                cases += 1
    assert cases > 1500


def test_a_repeated_lc_report_is_read_from_its_memo(record):
    # check_instance asks for the same index about twice per query, and the
    # reports of every index of (I, Z) come from one read of each fiber table
    reads = record(local_cohomology, "_fiber_table")
    ring, I = parse_ideal_text(EIGHT_GEN)
    Q = ring.y_block()
    first = lc_report(I, 1, Q)
    assert len(reads) == len(fibers(Subquotient.cyclic(I), Q))
    reads.clear()
    assert lc_report(I, 1, list(Q)) is first
    assert lc_report(I, 1) is first  # Q is the default axis
    assert reads == []
    assert lc_report(I, 2, Q).i == 2  # a new index of the same (I, Z)
    assert reads == []


def _random_ideal(rnd, ring, max_exp, max_gens):
    gens = [
        tuple(rnd.randint(0, max_exp) for _ in range(ring.nvars))
        for _ in range(rnd.randint(1, max_gens))
    ]
    return minimal_generators(ring, [g for g in gens if any(g)] or [(max_exp,) * ring.nvars])


def _lc_fields(e):
    # every field of a FiberLC
    return (e.pattern, e.n_single, e.infinite_family, e.finite_length, e.total_dim, e.witness_degree)


def _classes(fcs):
    # every field but `patterns` past the first: here it lists cell corners,
    # in the reference every pattern of the box
    return [(fc.patterns[0], fc.fiber, fc.infinite_family, fc.n_single) for fc in fcs]


def _bf_classes(N, Z):
    # the reference also lists the classes whose fiber is zero; `fibers` does not
    return _classes(fc for fc in bf_fibers(N, Z) if not fc.fiber.is_zero)


def test_cell_walks_match_box_walk_reference():
    rnd = random.Random(20261018)
    for k in range(240):
        m = rnd.randint(1, 2)
        ring = RingSpec(m, rnd.randint(1, 3 - m), (0, 2)[k % 2])
        I = _random_ideal(rnd, ring, 4, 4)
        Z = (ring.x_block(), ring.y_block(), ring.all_vars())[(k // 2) % 3]
        N = Subquotient.cyclic(I)
        case = (str(I), ring.char, sorted(Z))
        assert _classes(fibers(N, Z)) == _bf_classes(N, Z), case

        radii = [0, 1, 2, 3, 4, 6, 9]
        for i in range(len(Z) + 1):
            rep = lc_report(I, i, Z)
            fin_gen, total, entries = bf_lc_report(I, i, Z)
            assert (rep.finitely_generated, rep.total_dim) == (fin_gen, total), (case, i)
            assert list(map(_lc_fields, rep.per_fiber)) == list(map(_lc_fields, entries)), (case, i)
            # H^i != 0, as the property suite reads it off the report's total
            nonzero = any(e.total_dim is None or e.total_dim > 0 for e in rep.per_fiber)
            assert nonzero == (rep.total_dim != 0), (case, i)
            assert growth_scan(I, i, radii, Z) == bf_growth_scan(I, i, radii, Z), (case, i)
        # no axis: the one fiber class over the point ring K[]
        assert growth_scan(I, 0, radii, frozenset()) == bf_growth_scan(I, 0, radii, frozenset()), case

        assert ass_subquotient(unit_ideal(ring), I) == bf_ass_subquotient(unit_ideal(ring), I), case
        J = sum_ideal(I, _random_ideal(rnd, ring, 3, 2))  # proper: no unit generator
        assert ass_subquotient(J, I) == bf_ass_subquotient(J, I), (case, str(J))


def test_an_empty_axis_matches_the_box_walk_references():
    # along no variable H^0 is S/I and nothing else: one fiber class over the
    # point ring K[], grade = cd = mgrade = 0, one ladder step, and the
    # corollary's grade > 0 refusal; rings up to 2+3 with m = 0, n = 0 and
    # ring 0 0, whose one proper ideal is (0), among the draws
    rnd = random.Random(20261021)
    radii = [0, 1, 2, 3, 5]
    Z = frozenset()
    shapes = set()
    for k in range(240):
        m, n = rnd.randint(0, 2), rnd.randint(0, 3)
        ring = RingSpec(m, n, (0, 2)[k % 2])
        raw = [tuple(rnd.randint(0, 3) for _ in range(ring.nvars)) for _ in range(rnd.randint(0, 4))]
        I = minimal_generators(ring, [g for g in raw if any(g)])
        shapes.add((m and 1, n and 1))
        N = Subquotient.cyclic(I)
        case = (str(I), ring)
        assert _classes(fibers(N, Z)) == _bf_classes(N, Z), case
        assert (grade(N, Z), cd(N, Z)) == bf_grade_cd(ring.nvars, I.gens, Z) == (0, 0), case
        rep = lc_report(I, 0, Z)
        fin_gen, total, entries = bf_lc_report(I, 0, Z)
        assert (rep.finitely_generated, rep.total_dim) == (fin_gen, total), case
        assert list(map(_lc_fields, rep.per_fiber)) == list(map(_lc_fields, entries)), case
        assert growth_scan(I, 0, radii, Z) == bf_growth_scan(I, 0, radii, Z), case

        rep = analyze(I, Z)
        assert (rep.grade, rep.cd, rep.mgrade, rep.maximal_depth, rep.cm_wrt_Z) == (0, 0, 0, True, True), case
        assert rep.witness_prime == min(associated_primes(I), key=sorted), case
        assert sequentially_cm(I, Z) == {"verdict": True, "per_step": [{"grade": 0, "cd": 0, "is_cm": True}]}, case
        assert generalized_cm(I, Z) is True, case
        with pytest.raises(PreconditionFailed, match="corollary requires grade > 0"):
            corollary_check(I, Z)
    assert shapes == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_a_cell_of_dimension_two_counts_twice_per_degree():
    # K[D] for D three disjoint edges on y1..y6 has H^1_m = H~^0(D) = K^2 in
    # degree 0 and nowhere else (Hochster); x1^2 gives the fiber two slices,
    # so H^1_Q(S/I) has length 2 * 2.  The draws of
    # `test_cell_walks_match_box_walk_reference` reach no cell of dimension
    # above 1; those of `test_stanley_reisner_draws_match_box_walk_reference` do.
    edges = {(1, 2), (3, 4), (5, 6)}
    gens = ["x1^2"] + [f"y{a}*y{b}" for a in range(1, 7) for b in range(a + 1, 7) if (a, b) not in edges]
    ring, I = parse_ideal_text(f"ring 1 6\ngens: {', '.join(gens)}\n")
    Q = ring.y_block()
    rep = lc_report(I, 1, Q)
    fin_gen, total, entries = bf_lc_report(I, 1, Q)
    assert (rep.finitely_generated, rep.total_dim) == (fin_gen, total) == (True, 4)
    assert [(e.n_single, e.total_dim, e.witness_degree) for e in rep.per_fiber] == [(2, 2, None)]
    assert list(map(_lc_fields, rep.per_fiber)) == list(map(_lc_fields, entries))


def _disconnected_complex(rnd, sizes):
    """The faces of a random simplicial complex on sum(sizes) vertices, one
    connected component of each size: a spanning tree, some more edges,
    and some of the triangles those edges bound, filled."""
    n = sum(sizes)
    verts = rnd.sample(range(n), n)
    ends = [sum(sizes[:j + 1]) for j in range(len(sizes))]
    faces = {frozenset()}
    for part in (verts[end - size:end] for size, end in zip(sizes, ends)):
        faces |= {frozenset([v]) for v in part}
        faces |= {frozenset([v, rnd.choice(part[:j])]) for j, v in enumerate(part) if j}
        faces |= {frozenset(e) for e in combinations(part, 2) if rnd.random() < 0.5}
        faces |= {
            frozenset(t)
            for t in combinations(part, 3)
            if all(frozenset(e) in faces for e in combinations(t, 2)) and rnd.random() < 0.5
        }
    return faces


def test_stanley_reisner_draws_match_box_walk_reference():
    # x1^a + I_D for D with c >= 3 components: each of the a slices below
    # x1^a has the fiber K[D], whose H^1_m in degree 0 is H~^0(D) = K^(c-1)
    # (Hochster), a bounded Cech cell of dimension at least 2.  An isolated
    # vertex v adds H~^-1(lk v) = K to H^1_m in each degree negative on v
    # only, so H^1_Q has finite length, and a total, only when D has none:
    # on 6 vertices, three disjoint edges, drawn on every fourth turn.  All
    # 36 draws are in ring 1 6: 9 of three disjoint edges, 27 of 3 to 6
    # components; the references walk each (I, Q) once for every index
    rnd = random.Random(20261020)
    radii = [0, 1, 2, 3]
    for k in range(36):
        if k % 4:
            cuts = sorted(rnd.sample(range(1, 6), rnd.randint(2, 5)))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, 6])]
        else:
            sizes = [2, 2, 2]
        n = sum(sizes)
        ring = RingSpec(1, n)
        faces = _disconnected_complex(rnd, sizes)
        nonfaces = [
            (0, *(int(v in S) for v in range(n)))
            for r in range(1, n + 1)
            for S in map(frozenset, combinations(range(n), r))
            if S not in faces
        ]
        I = minimal_generators(ring, [(rnd.randint(1, 3),) + (0,) * n, *nonfaces])
        Q = ring.y_block()
        tables = [local_cohomology._fiber_table(fc.fiber) for fc in fibers(Subquotient.cyclic(I), Q)]
        cells = [(lengths, d) for table in tables for column in table for _, lengths, d in column]
        assert any(None not in lengths and d >= 2 for lengths, d in cells), str(I)
        for i in range(n + 1):
            rep = lc_report(I, i, Q)
            fin_gen, total, entries = bf_lc_report(I, i, Q)
            assert (rep.finitely_generated, rep.total_dim) == (fin_gen, total), (str(I), i)
            assert list(map(_lc_fields, rep.per_fiber)) == list(map(_lc_fields, entries)), (str(I), i)
        assert lc_report(I, 1, Q).finitely_generated == (min(sizes) > 1), str(I)
        assert growth_scan(I, 1, radii, Q) == bf_growth_scan(I, 1, radii, Q), str(I)


def _k_family(k):
    xs = [f"x{j}" for j in range(1, k + 1)]
    text = f"ring {k} 2\ngens: {'*'.join(xs)}*y1^3, y1*y2^4, {'*'.join(xs[:k // 2])}*y1^2*y2^2\n"
    return parse_ideal_text(text)[1]


@pytest.mark.parametrize("k", [4, 8])
def test_growth_counts_each_class_as_complement_times_fiber(record, k):
    # A class with P complement cells and T nonzero fiber-table cells is
    # counted by P + T `_degrees` calls per radius, not by its P * T
    # product cells (at k = 8: 263 calls against 766 cells).  On no axis the
    # one class is the nonzero cells of S/I times the point of K[].
    calls = record(local_cohomology, "_degrees")
    I = _k_family(k)
    N = Subquotient.cyclic(I)
    radii = [1, 2, 3, 4]
    for i, Z in [(1, I.ring.y_block()), (2, I.ring.y_block()), (0, frozenset())]:
        if Z:
            tables = [(len(fc.patterns), len(local_cohomology._fiber_table(fc.fiber)[i])) for fc in fibers(N, Z)]
        else:
            cells = exponent_cells(N, range(I.ring.nvars))
            tables = [(sum(fine_piece(N, c) for c, *_ in cells), 1)]
        calls.clear()
        sums = growth_scan(I, i, radii, Z)
        assert len(calls) == len(radii) * sum(p + t for p, t in tables), (i, tables)
        if k == 4:
            assert sums == bf_growth_scan(I, i, radii, Z), i
        elif i == 1:
            assert (sum(p + t for p, t in tables), sum(p * t for p, t in tables)) == (263, 766)


def _tied_ideal(rnd, ring, Z, pool):
    # generators whose Z-parts come from a small pool, so several share one
    # and some divide others, over random complement parts
    gens = []
    for _ in range(rnd.randint(2, 5)):
        zpart = iter(rnd.choice(pool))
        gens.append(tuple(next(zpart) if v in Z else rnd.randint(0, 2) for v in range(ring.nvars)))
    return minimal_generators(ring, [g for g in gens if any(g)] or [(1,) * ring.nvars])


def test_fiber_tie_breaks_match_box_walk_reference():
    # the restricted colons are read off bitsets: of the selected generators
    # a Z-part is kept iff no other one divides it, and of equal Z-parts the
    # lower index is kept; the box-walk reference minimizes every colon
    ring = RingSpec(2, 2)
    # x1*y1 and x2*y1 share the Z-part y1 of the y-axis, which divides that
    # of y1*y2^2, as y2 does; the slice x1*x2 selects all of them
    I = minimal_generators(ring, [(1, 0, 1, 0), (0, 1, 1, 0), (2, 0, 0, 1), (0, 0, 1, 2)])
    # J/J': J has two generators over y1, J' two over y1*y2 and one over y1
    J = minimal_generators(ring, [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 2)])
    Jp = minimal_generators(
        ring, [(1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (1, 0, 0, 2), (0, 0, 1, 2)]
    )
    rnd = random.Random(20261019)
    for char in (0, 2):
        r = RingSpec(2, 2, char)
        modules = [
            Subquotient.cyclic(MonomialIdeal(r, I.gens)),
            Subquotient(MonomialIdeal(r, J.gens), MonomialIdeal(r, Jp.gens)),
        ]
        for N in modules:
            # Z = all variables leaves an empty complement: one cell, ()
            for Z in (r.x_block(), r.y_block(), r.all_vars()):
                assert _classes(fibers(N, Z)) == _bf_classes(N, Z), (str(N.J), str(N.Jp), char, sorted(Z))
        for case in range(150):
            r = RingSpec(rnd.randint(1, 2), rnd.randint(1, 2), char)
            Z = (r.x_block(), r.y_block(), r.all_vars())[case % 3]
            pool = [tuple(rnd.randint(0, 2) for _ in Z) for _ in range(rnd.randint(1, 3))]
            A = _tied_ideal(rnd, r, Z, pool)
            modules = [Subquotient.cyclic(A)]
            sub = Subquotient(A, intersect(A, _tied_ideal(rnd, r, Z, pool)))
            if not sub.is_zero:
                modules.append(sub)
            for N in modules:
                case_id = (str(N.J), str(N.Jp), char, sorted(Z))
                assert _classes(fibers(N, Z)) == _bf_classes(N, Z), case_id


def _decompose_shaped_ideal(rnd, ring):
    # squarefree products of 2 or 3 variables, now and then with a square
    gens = []
    for _ in range(rnd.randint(4, 7)):
        g = [0] * ring.nvars
        for v in rnd.sample(range(ring.nvars), rnd.choice((2, 2, 3))):
            g[v] = 1
        if rnd.random() < 0.15:
            g[rnd.randrange(ring.nvars)] = 2
        gens.append(g)
    return minimal_generators(ring, gens)


def test_six_variable_ass_and_fibers_match_box_walk_reference():
    rnd = random.Random(20261020)
    ring = RingSpec(3, 3)
    for _ in range(60):
        I = _decompose_shaped_ideal(rnd, ring)
        for Z in (ring.x_block(), ring.y_block()):
            ladder = dimension_filtration(I, Z)
            for prev, J_i in zip(ladder.ideals, ladder.ideals[1:]):
                case = (str(I), sorted(Z), str(J_i))
                assert ass_subquotient(J_i, I) == bf_ass_subquotient(J_i, I), case
                assert ass_subquotient(J_i, prev) == bf_ass_subquotient(J_i, prev), case
                step = Subquotient(J_i, prev)
                assert _classes(fibers(step, Z)) == _bf_classes(step, Z), case
            N = Subquotient.cyclic(I)
            assert _classes(fibers(N, Z)) == _bf_classes(N, Z), (str(I), sorted(Z))


# (m, n, largest exponent): rings of 1-6 variables, with one block empty in
# some; the exponents shrink as variables are added, so the box walk stays small
EDGE_RINGS = [
    (1, 0, 4), (0, 1, 4), (0, 2, 4), (1, 1, 4), (3, 0, 3), (1, 2, 3),
    (2, 2, 2), (0, 4, 2), (3, 2, 1), (0, 5, 1), (3, 3, 1), (2, 4, 1),
]


def test_ass_subquotient_matches_box_walk_on_edge_pairs():
    # J' = (0), J' = S and proper J next to the pairs the ladders make
    rnd = random.Random(20261025)
    for m, n, top in EDGE_RINGS:
        ring = RingSpec(m, n)
        S, zero = unit_ideal(ring), zero_ideal(ring)
        pairs = [(S, zero), (S, S)]
        for _ in range(25):
            I = _random_ideal(rnd, ring, top, 4)
            B = _random_ideal(rnd, ring, top, 3)
            pairs += [(B, zero), (S, I), (sum_ideal(I, B), I), (B, intersect(I, B))]
        for J, Jp in pairs:
            assert ass_subquotient(J, Jp) == bf_ass_subquotient(J, Jp), (m, n, str(J), str(Jp))


def test_one_walk_gives_the_ass_of_every_ladder_step():
    # the nested J_1 < ... < J_r = S of each ladder over I, in one walk over
    # the corners of I
    rnd = random.Random(20261026)
    for k in range(80):
        if k % 4:
            ring = RingSpec(rnd.randint(1, 2), rnd.randint(1, 2))
            I = _random_ideal(rnd, ring, 3, 4)
        else:
            ring = RingSpec(3, 3)
            I = _decompose_shaped_ideal(rnd, ring)
        for Z in (ring.x_block(), ring.y_block(), ring.all_vars()):
            Js = dimension_filtration(I, Z).ideals[1:]
            assert ass_subquotients(Js, I) == [bf_ass_subquotient(J, I) for J in Js], (str(I), sorted(Z))


def test_one_walk_gives_the_ass_of_unrelated_ideals_over_one_ideal():
    # J = J', J = S and J's that share nothing but J', in a random order,
    # and over J' = (0) the ideals (0), S and any others
    rnd = random.Random(20261027)
    for m, n, top in EDGE_RINGS:
        ring = RingSpec(m, n)
        S, zero = unit_ideal(ring), zero_ideal(ring)
        for _ in range(8):
            Jp = _random_ideal(rnd, ring, top, 4)
            Js = [Jp, S] + [sum_ideal(Jp, _random_ideal(rnd, ring, top, 3)) for _ in range(3)]
            rnd.shuffle(Js)
            assert ass_subquotients(Js, Jp) == [bf_ass_subquotient(J, Jp) for J in Js], (m, n, str(Jp))
            Js = [zero, S] + [_random_ideal(rnd, ring, top, 3) for _ in range(2)]
            rnd.shuffle(Js)
            assert ass_subquotients(Js, zero) == [bf_ass_subquotient(J, zero) for J in Js], (m, n)
        assert ass_subquotients([], zero) == []
        # one J without J' refuses the whole list
        with pytest.raises(ValueError):
            ass_subquotients([S, _random_ideal(rnd, ring, top, 3)], S)


def test_large_exponents_cost_follows_the_cells(monkeypatch):
    # x1^e*y1^e, x2^e*y2, x1*y2^e: counted as here, a box walk makes 93,636
    # Cech calls per growth index and 150,515 colons for seqcm at e = 16, and
    # 900 and 1,069 at e = 4; the cells do not depend on e.  The fibers and
    # ass_subquotient build no colon, so the generator sets minimized
    # elsewhere and the corner rows (one per coordinate of each Koszul and
    # Cech degree, one per cell start of each coordinate of `exponent_cells`,
    # and one per candidate exponent of ass_subquotient) are counted too, and
    # growth on no axis, whose one fiber class reads its cells off the
    # bitsets of `exponent_cells` and builds one Cech complex, on the one
    # cell of K[]: a box walk in any of them would make these grow with e.
    calls = {"cech": 0, "colon": 0, "mingens": 0, "corner_row": 0}
    # set after e = 16 to twice its counts, so a walk that grows with e fails
    # at e = 1000 as soon as it passes them instead of running for hours
    ceiling = {}

    # its own wrapper, not the `record` fixture: the ceilings are checked on
    # each call, while the run goes on, not once it has ended
    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            assert calls[name] <= ceiling.get(name, calls[name]), f"{name} calls grow with e"
            return inner(*args)
        return wrapper

    # every Cech complex of a fiber table is one `_term_dims` call
    monkeypatch.setattr(local_cohomology, "_term_dims", counted("cech", local_cohomology._term_dims))
    monkeypatch.setattr(rings, "colon", counted("colon", rings.colon))
    mingens = counted("mingens", rings.minimal_generators)
    for module in (rings, homology):
        monkeypatch.setattr(module, "minimal_generators", mingens)
    monkeypatch.setattr(homology, "_corner_row", counted("corner_row", homology._corner_row))

    def run(e):
        monkeypatch.setattr(homology, "_depth_cache", {})
        # fibers such as S/(y2) occur at every e, so a warm table would hide their cells
        local_cohomology._fiber_table.cache_clear()
        I = minimal_generators(RingSpec(2, 2), [(e, 0, e, 0), (0, e, 0, 1), (1, 0, 0, e)])
        Q = I.ring.y_block()
        answers, counts = [], []
        for label, query in [
            ("analyze", lambda: analyze(I, Q)),
            ("lc 1", lambda: lc_report(I, 1, Q)),
            ("lc 2", lambda: lc_report(I, 2, Q)),
            ("growth 1", lambda: growth_scan(I, 1, [1, 2, 3, 4], Q)),
            ("growth 2", lambda: growth_scan(I, 2, [1, 2, 3, 4], Q)),
            ("growth none", lambda: growth_scan(I, 0, [1, 2, 3, 4], frozenset())),
            ("seqcm", lambda: sequentially_cm(I, Q)),
        ]:
            before = dict(calls)
            out = query()
            if label.startswith("lc"):  # patterns and n_single scale with e
                out = (out.finitely_generated, out.total_dim, [
                    (f.infinite_family, f.finite_length, f.total_dim, f.witness_degree)
                    for f in out.per_fiber
                ])
            elif label == "seqcm":
                out = (out["verdict"], out["per_step"])
            answers.append((label, out))
            counts.append((label, {k: calls[k] - before[k] for k in calls}))
        return answers, counts

    answers_16, counts_16 = run(16)
    ceiling.update({k: 2 * v for k, v in calls.items()})
    answers_1000, counts_1000 = run(1000)
    assert answers_1000 == answers_16
    assert counts_1000 == counts_16
    # every index is read off the tables the first lc query built
    assert dict(counts_16)["lc 1"]["cech"] > 0
    assert [dict(counts_16)[label]["cech"] for label in ("lc 2", "growth 1", "growth 2")] == [0, 0, 0]
    assert dict(answers_16)["growth 1"] == [4, 36, 144, 400]
    # on no axis no generator lies within radius 4: (r + 1)^4 degrees each
    assert dict(answers_16)["growth none"] == [16, 81, 256, 625]
    assert dict(counts_16)["growth none"]["cech"] == 1
    assert dict(answers_16)["seqcm"][0] is True


def test_cech_cost_does_not_grow_with_the_free_variables(monkeypatch):
    # x1*y1 in ring n n: the fiber over Q is K[y1..yn] or a quotient of it, and
    # y2..yn hold no generator.  A table with caps has 2^n cells per such
    # fiber (10, 40, 160, 640 Cech calls at n = 2, 4, 6, 8); without them each
    # free variable adds its -1 class only.  The wrapper fails as soon as a
    # count passes the linear bound, instead of running on for minutes.
    counts = {}
    inner = local_cohomology._term_dims

    # its own wrapper, not the `record` fixture: the ratio is checked on each
    # call, while the run goes on, not once it has ended
    def counted(*args):
        counts[n] += 1
        assert n == 2 or counts[n] <= counts[2] * n // 2, f"Cech calls grow faster than n: {counts}"
        return inner(*args)

    monkeypatch.setattr(local_cohomology, "_term_dims", counted)
    for n in range(2, 13, 2):
        local_cohomology._fiber_table.cache_clear()
        invariants._fibers.cache_clear()
        counts[n] = 0
        lc_report(minimal_generators(RingSpec(n, n), [tuple(int(v in (0, n)) for v in range(2 * n))]), 1)
    # stricter than the linear bound: the counts do not grow with n at all
    assert counts[2] > 0 and max(counts.values()) == counts[2], counts


@pytest.mark.parametrize("argv", [("lc", "--i", "1"), ("gencm",), ("growth", "--i", "1")])
def test_x1y1_in_forty_by_forty_answers_within_a_second(tmp_path, capsys, monkeypatch, argv):
    # A table with caps would have 2^40 cells here.  Every Cech complex and
    # every corner row checks the clock, so such a walk fails at the deadline
    # instead of running for ever.
    path = tmp_path / "x1y1.ideal"
    path.write_text("ring 40 40\ngens: x1*y1\n")
    deadline = time.perf_counter() + 1.0

    # its own wrapper, not the `record` fixture: the deadline is checked on
    # each call, while the run goes on, not once it has ended
    def timed(inner):
        def wrapper(*args):
            assert time.perf_counter() < deadline, f"{' '.join(argv)} took over 1 s"
            return inner(*args)
        return wrapper

    monkeypatch.setattr(local_cohomology, "_term_dims", timed(local_cohomology._term_dims))
    monkeypatch.setattr(homology, "_corner_row", timed(homology._corner_row))
    code = main([argv[0], str(path), *argv[1:]])
    assert code == 0, capsys.readouterr().out
    assert time.perf_counter() < deadline, f"{' '.join(argv)} took over 1 s"
