import random
import time

import pytest

from bruteforce import bf_ass_subquotient, bf_fibers, bf_growth_scan, bf_lc_report, fine_piece
from bigrade import homology, invariants, local_cohomology, rings
from bigrade.cli import main
from bigrade.errors import PreconditionFailed, UnitIdeal
from bigrade.filtration import dimension_filtration, sequentially_cm
from bigrade.homology import Subquotient, ass_subquotient, cech_piece_dim, exponent_cells
from bigrade.invariants import analyze, cd, fibers, mgrade
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
    lc_report,
    question_counterexample_scan,
)
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    intersect,
    minimal_generators,
    sum_ideal,
    unit_ideal,
    zero_ideal,
)

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
    "cd": lambda I, Z: cd(Subquotient.cyclic(I), Z),
    "cech_piece_dim": lambda I, Z: cech_piece_dim(Subquotient.cyclic(I), Z, 1, (0, -1)),
    "corollary_check": corollary_check,
    "dimension_filtration": dimension_filtration,
    "fibers": lambda I, Z: fibers(Subquotient.cyclic(I), Z),
    "generalized_cm": generalized_cm,
    "growth_scan": lambda I, Z: growth_scan(I, 1, [1], Z),
    "lc_report": lambda I, Z: lc_report(I, 1, Z),
    "mgrade": mgrade,
    "question_counterexample_scan": question_counterexample_scan,
    "sequentially_cm": sequentially_cm,
}


@pytest.mark.parametrize("name", sorted(AXIS_CALLS))
def test_an_axis_outside_the_ring_is_refused_cold_and_warm(name):
    # -1 would read y1 through negative indexing, 9 and 5 lie past the two
    # variables, and 1.0 == 1 would read the memo entry of the axis (y1)
    I = minimal_generators(RingSpec(1, 1), [(1, 1)])
    call = AXIS_CALLS[name]
    for Z in ([-1], [9], [7], {0, 5}, ["a"], [1.0], [1, 1.0]):
        with pytest.raises(ValueError, match="axis variable"):
            call(I, Z)
    if name != "corollary_check":  # x1*y1 has grade 0 along y1
        call(I, [1])
    with pytest.raises(ValueError, match="axis variable"):
        call(I, [1.0])


def test_growth_reads_slice_lengths_without_a_second_cell_walk(monkeypatch):
    # (x1, ..., x12) in ring 12 1: S/I = K[y1], so H^1_Q is H^1_(y1)(K[y1]),
    # one degree at each of -1, ..., -r
    ring = RingSpec(12, 1)
    I = minimal_generators(ring, [tuple(int(k == i) for k in range(13)) for i in range(12)])
    Q = ring.y_block()
    assert growth_scan(I, 1, [0, 1, 2, 5], Q) == [0, 1, 2, 5]
    # with fibers and their Cech tables warm, the slices' cell lengths come
    # from the per-coordinate cells, not from walking the product again
    calls = []
    walk = local_cohomology.exponent_cells

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(local_cohomology, "exponent_cells", counted)
    assert growth_scan(I, 1, [0, 1, 2, 5], Q) == [0, 1, 2, 5]
    assert calls == []


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


def test_corollary_holds_on_the_zero_ideal():
    triple = corollary_check(zero_ideal(RingSpec(1, 2)))
    assert triple == {"max_depth": True, "seq_cm": True, "cm_wrt_Q": True}


def test_question_scan_returns_list():
    r, I = two_prime_ideal()
    assert question_counterexample_scan(I) == []


def test_a_repeated_lc_report_is_read_from_its_memo(monkeypatch):
    # check_instance asks for the same index about twice per query
    calls = []
    body = local_cohomology._fiber_lc

    def counting(fc, i):
        calls.append(i)
        return body(fc, i)

    monkeypatch.setattr(local_cohomology, "_fiber_lc", counting)
    ring, I = parse_ideal_text(EIGHT_GEN)
    Q = ring.y_block()
    first = lc_report(I, 1, Q)
    assert calls
    calls.clear()
    assert lc_report(I, 1, list(Q)) is first
    assert lc_report(I, 1) is first  # Q is the default axis
    assert calls == []
    lc_report(I, 2, Q)
    assert calls and set(calls) == {2}


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
            assert growth_scan(I, i, radii, Z) == bf_growth_scan(I, i, radii, Z), (case, i)
        # no axis: growth's own branch, as `fibers` refuses an empty axis
        assert growth_scan(I, 0, radii, frozenset()) == bf_growth_scan(I, 0, radii, frozenset()), case

        assert ass_subquotient(unit_ideal(ring), I) == bf_ass_subquotient(unit_ideal(ring), I), case
        J = sum_ideal(I, _random_ideal(rnd, ring, 3, 2))  # proper: no unit generator
        assert ass_subquotient(J, I) == bf_ass_subquotient(J, I), (case, str(J))


def _k_family(k):
    xs = [f"x{j}" for j in range(1, k + 1)]
    text = f"ring {k} 2\ngens: {'*'.join(xs)}*y1^3, y1*y2^4, {'*'.join(xs[:k // 2])}*y1^2*y2^2\n"
    return parse_ideal_text(text)[1]


@pytest.mark.parametrize("k", [4, 8])
def test_growth_counts_each_class_as_complement_times_fiber(monkeypatch, k):
    # A class with P complement cells and T nonzero fiber-table cells is
    # counted by P + T `_degrees` calls per radius, not by its P * T
    # product cells (at k = 8: 263 calls against 766 cells).  On no axis the
    # one class is the nonzero cells of S/I times the point of K[].
    calls = []
    inner = local_cohomology._degrees

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(local_cohomology, "_degrees", counted)
    I = _k_family(k)
    N = Subquotient.cyclic(I)
    radii = [1, 2, 3, 4]
    for i, Z in [(1, I.ring.y_block()), (2, I.ring.y_block()), (0, frozenset())]:
        if Z:
            tables = [
                (len(fc.patterns), sum(1 for *_, dims in local_cohomology._fiber_table(fc.fiber) if dims[i]))
                for fc in fibers(N, Z)
            ]
        else:
            cells = exponent_cells(N, range(I.ring.nvars))
            tables = [(sum(fine_piece(N, c) for c, _ in cells), 1)]
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


def test_large_exponents_cost_follows_the_cells(monkeypatch):
    # x1^e*y1^e, x2^e*y2, x1*y2^e: counted as here, a box walk makes 93,636
    # Cech calls per growth index and 150,515 colons for seqcm at e = 16, and
    # 900 and 1,069 at e = 4; the cells do not depend on e.  The fibers and
    # ass_subquotient build no colon, so the generator sets minimized
    # elsewhere and the corner rows (one per coordinate of each Koszul and
    # Cech degree, one per complement cell start of the fibers, and one per
    # candidate exponent of ass_subquotient) are counted too, and growth on no
    # axis, which reads its cells off Cech calls of its own: a box walk in any
    # of them would make these grow with e.
    calls = {"cech": 0, "colon": 0, "mingens": 0, "corner_row": 0}
    # set after e = 16 to twice its counts, so a walk that grows with e fails
    # at e = 1000 as soon as it passes them instead of running for hours
    ceiling = {}

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            assert calls[name] <= ceiling.get(name, calls[name]), f"{name} calls grow with e"
            return inner(*args)
        return wrapper

    monkeypatch.setattr(local_cohomology, "cech_dims_at", counted("cech", local_cohomology.cech_dims_at))
    monkeypatch.setattr(rings, "colon", counted("colon", rings.colon))
    mingens = counted("mingens", rings.minimal_generators)
    for module in (rings, homology):
        monkeypatch.setattr(module, "minimal_generators", mingens)
    corner_row = counted("corner_row", homology._corner_row)
    for module in (homology, invariants):
        monkeypatch.setattr(module, "_corner_row", corner_row)

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
    assert [dict(counts_16)[label]["cech"] for label in ("lc 2", "growth 1", "growth 2")] == [0, 0, 0]
    assert dict(answers_16)["growth 1"] == [4, 36, 144, 400]
    # on no axis no generator lies within radius 4: (r + 1)^4 degrees each
    assert dict(answers_16)["growth none"] == [16, 81, 256, 625]
    assert dict(counts_16)["growth none"]["cech"] > 0
    assert dict(answers_16)["seqcm"][0] is True


def test_cech_cost_does_not_grow_with_the_free_variables(monkeypatch):
    # x1*y1 in ring n n: the fiber over Q is K[y1..yn] or a quotient of it, and
    # y2..yn hold no generator.  A table with caps has 2^n cells per such
    # fiber (10, 40, 160, 640 Cech calls at n = 2, 4, 6, 8); without them each
    # free variable adds its -1 class only.  The wrapper fails as soon as a
    # count passes the linear bound, instead of running on for minutes.
    counts = {}
    inner = local_cohomology.cech_dims_at

    def counted(*args):
        counts[n] += 1
        assert n == 2 or counts[n] <= counts[2] * n // 2, f"Cech calls grow faster than n: {counts}"
        return inner(*args)

    monkeypatch.setattr(local_cohomology, "cech_dims_at", counted)
    for n in range(2, 13, 2):
        local_cohomology._fiber_table.cache_clear()
        invariants._fibers.cache_clear()
        counts[n] = 0
        lc_report(minimal_generators(RingSpec(n, n), [tuple(int(v in (0, n)) for v in range(2 * n))]), 1)
    # stricter than the linear bound: the counts do not grow with n at all
    assert max(counts.values()) == counts[2], counts


@pytest.mark.parametrize("argv", [("lc", "--i", "1"), ("gencm",), ("growth", "--i", "1")])
def test_x1y1_in_forty_by_forty_answers_within_a_second(tmp_path, capsys, monkeypatch, argv):
    # A table with caps would have 2^40 cells here.  Every Cech complex and
    # every corner row checks the clock, so such a walk fails at the deadline
    # instead of running for ever.
    path = tmp_path / "x1y1.ideal"
    path.write_text("ring 40 40\ngens: x1*y1\n")
    deadline = time.perf_counter() + 1.0

    def timed(inner):
        def wrapper(*args):
            assert time.perf_counter() < deadline, f"{' '.join(argv)} took over 1 s"
            return inner(*args)
        return wrapper

    monkeypatch.setattr(local_cohomology, "cech_dims_at", timed(local_cohomology.cech_dims_at))
    monkeypatch.setattr(homology, "_corner_row", timed(homology._corner_row))
    code = main([argv[0], str(path), *argv[1:]])
    assert code == 0, capsys.readouterr().out
    assert time.perf_counter() < deadline, f"{' '.join(argv)} took over 1 s"
