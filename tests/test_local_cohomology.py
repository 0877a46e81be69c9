import random
import time

import pytest

from bruteforce import bf_ass_subquotient, bf_fibers, bf_growth_scan, bf_lc_report
from bigrade import homology, invariants, local_cohomology, rings
from bigrade.cli import main
from bigrade.errors import PreconditionFailed, UnitIdeal
from bigrade.filtration import dimension_filtration, sequentially_cm
from bigrade.homology import Subquotient, ass_subquotient
from bigrade.invariants import analyze, fibers
from bigrade.io_formats import parse_ideal_text
from bigrade.local_cohomology import (
    corollary_check,
    generalized_cm,
    growth_scan,
    lc_report,
    question_counterexample_scan,
)
from bigrade.rings import RingSpec, intersect, minimal_generators, sum_ideal, unit_ideal, zero_ideal

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


def test_corollary_holds_on_the_zero_ideal():
    triple = corollary_check(zero_ideal(RingSpec(1, 2)))
    assert triple == {"max_depth": True, "seq_cm": True, "cm_wrt_Q": True}


def test_question_scan_returns_list():
    r, I = two_prime_ideal()
    assert question_counterexample_scan(I) == []


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


def test_cell_walks_match_box_walk_reference():
    rnd = random.Random(20261018)
    for k in range(240):
        m = rnd.randint(1, 2)
        ring = RingSpec(m, rnd.randint(1, 3 - m), (0, 2)[k % 2])
        I = _random_ideal(rnd, ring, 4, 4)
        Z = (ring.x_block(), ring.y_block(), ring.all_vars())[(k // 2) % 3]
        N = Subquotient.cyclic(I)
        case = (str(I), ring.char, sorted(Z))
        assert _classes(fibers(N, Z)) == _classes(bf_fibers(N, Z)), case

        for i in range(len(Z) + 1):
            rep = lc_report(I, i, Z)
            fin_gen, total, entries = bf_lc_report(I, i, Z)
            assert (rep.finitely_generated, rep.total_dim) == (fin_gen, total), (case, i)
            assert list(map(_lc_fields, rep.per_fiber)) == list(map(_lc_fields, entries)), (case, i)
            radii = [0, 1, 2, 3, 4, 6, 9]
            assert growth_scan(I, i, radii, Z) == bf_growth_scan(I, i, radii, Z), (case, i)

        assert ass_subquotient(unit_ideal(ring), I) == bf_ass_subquotient(unit_ideal(ring), I), case
        J = sum_ideal(I, _random_ideal(rnd, ring, 3, 2))  # proper: no unit generator
        assert ass_subquotient(J, I) == bf_ass_subquotient(J, I), (case, str(J))


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
                step = Subquotient(ring, J_i, prev)
                assert _classes(fibers(step, Z)) == _classes(bf_fibers(step, Z)), case
            N = Subquotient.cyclic(I)
            assert _classes(fibers(N, Z)) == _classes(bf_fibers(N, Z)), (str(I), sorted(Z))


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
    # ass_subquotient build no colon, so the generator sets they minimize, the
    # corner rows (one per coordinate of each Koszul and Cech degree, and one
    # per candidate exponent of ass_subquotient) and the fine pieces of
    # growth's empty-axis path are counted too: a box walk in any of them
    # would make these grow with e.
    calls = {"cech": 0, "colon": 0, "mingens": 0, "fine_piece": 0, "corner_row": 0}
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
    for module in (rings, homology, invariants):
        monkeypatch.setattr(module, "minimal_generators", mingens)
    monkeypatch.setattr(homology, "fine_piece", counted("fine_piece", homology.fine_piece))
    monkeypatch.setattr(homology, "_corner_row", counted("corner_row", homology._corner_row))

    def run(e):
        monkeypatch.setattr(homology, "_depth_cache", {})
        monkeypatch.setattr(homology, "_dim_cache", {})
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
