import random
import time
from itertools import combinations, product

import pytest

from bruteforce import (
    bf_betti_and_projdim,
    bf_box,
    bf_cech_piece,
    bf_koszul_dims,
    bf_minimal_generators,
    fine_piece,
)
from bigrade import homology, local_cohomology
from bigrade.errors import (
    DimensionMismatch,
    InternalCheckFailed,
    PreconditionFailed,
    RingMismatch,
    ZeroModule,
)
from bigrade.homology import (
    Subquotient,
    _cech_dims_at,
    _sub_ring_for,
    ass_subquotient,
    betti_and_projdim,
    cech_piece_dim,
    cell_bitsets,
    depth_module,
    dim_module,
    exponent_cells,
    koszul_dims_at,
    restrict_ideal,
)
from bigrade.invariants import ordinary_depth
from bigrade.io_formats import render_ideal
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    associated_primes,
    colon,
    intersect,
    minimal_generators,
    sum_ideal,
    unit_ideal,
    var_power,
    zero_ideal,
)
from bigrade.suite import random_ideal
from test_acceptance import ideal
from test_closed_forms import edge_ideal

R11 = RingSpec(1, 1)
RY2 = RingSpec(0, 2)


def test_subquotient_validation():
    I = ideal(R11, (1, 1))
    with pytest.raises(ValueError):
        Subquotient(I, unit_ideal(R11))  # J' not inside J
    with pytest.raises(RingMismatch):
        Subquotient(unit_ideal(RY2), I)
    # equal rings need not be one object
    assert Subquotient(unit_ideal(RingSpec(1, 1)), I) == Subquotient.cyclic(I)
    N = Subquotient.cyclic(I)
    assert not N.is_zero
    assert Subquotient(I, I).is_zero
    assert bf_box(N) == (1, 1)


def test_fine_piece_cyclic():
    N = Subquotient.cyclic(ideal(R11, (0, 1)))  # S/(y1)
    assert fine_piece(N, (0, 0)) == 1
    assert fine_piece(N, (3, 0)) == 1
    assert fine_piece(N, (0, 1)) == 0
    assert fine_piece(N, (-1, 0)) == 0


def test_cech_localization():
    # S/(y1) localized at y1 is zero, so H^0_(y1) is its y1-torsion, the whole
    # module; localized at x1 it keeps the x-line, so H^1_(x1) lives at x1^-2
    N = Subquotient.cyclic(ideal(R11, (0, 1)))
    assert _cech_dims_at(N, {1}, (0, 0)) == [1, 0]
    assert _cech_dims_at(N, {0}, (-2, 0)) == [0, 1]


def test_koszul_socle_of_plane_curve():
    # K[y1,y2]/(y1*y2): unique first syzygy sits in degree (1,1)
    N = Subquotient.cyclic(ideal(RY2, (1, 1)))
    assert koszul_dims_at(N, RY2.all_vars(), (1, 1))[1] == 1
    assert koszul_dims_at(N, RY2.all_vars(), (0, 0))[0] == 1
    assert koszul_dims_at(N, RY2.all_vars(), (1, 0))[1] == 0


def test_betti_and_depth():
    N = Subquotient.cyclic(ideal(RY2, (1, 1)))
    betti, projdim = betti_and_projdim(N, RY2.all_vars())
    assert projdim == 1
    assert betti[(0, (0, 0))] == 1
    assert betti[(1, (1, 1))] == 1
    assert depth_module(N, RY2.all_vars()) == 1

    free = Subquotient.cyclic(zero_ideal(RY2))
    assert depth_module(free, RY2.all_vars()) == 2

    point = Subquotient.cyclic(ideal(RY2, (1, 0), (0, 1)))
    assert depth_module(point, RY2.all_vars()) == 0


def test_betti_rejects_zero_module():
    # the Betti and depth scans share one refusal (`homology._lattice`)
    I = ideal(R11, (1, 1))
    with pytest.raises(ZeroModule):
        betti_and_projdim(Subquotient(I, I), R11.all_vars())
    with pytest.raises(ZeroModule):
        depth_module(Subquotient(I, I), R11.all_vars())


def test_scan_rejects_non_finite_module():
    # S/(y1) = K[x1] is not finitely generated over K[y1]; S/(x1, y1) is, but
    # Betti numbers and depths are only taken over all variables
    for gens in [[(0, 1)], [(1, 0), (0, 1)]]:
        N = Subquotient.cyclic(ideal(R11, *gens))
        with pytest.raises(PreconditionFailed):
            depth_module(N, R11.y_block())
        with pytest.raises(PreconditionFailed):
            betti_and_projdim(N, R11.y_block())


def _random_ideal(rnd, ring, max_exp, count=None):
    """A random monomial ideal with `count` (default 0-4) generators drawn, none of them 1."""
    if count is None:
        count = rnd.randint(0, 4)
    gens = []
    while len(gens) < count:
        g = tuple(rnd.randint(0, max_exp) for _ in range(ring.nvars))
        if any(g):
            gens.append(g)
    return minimal_generators(ring, gens)


def _random_subquotient(rnd, unit_J, proper_Z, char):
    """A nonzero J/J' with J' inside J, finitely generated over K[Z]."""
    while True:
        nvars = rnd.randint(2, 4)
        m = rnd.randint(0, nvars)
        ring = RingSpec(m, nvars - m, char)
        max_exp = rnd.randint(1, 5 - nvars // 2)
        J = unit_ideal(ring) if unit_J else _random_ideal(rnd, ring, max_exp)
        if J.is_zero:
            continue
        K = _random_ideal(rnd, ring, max_exp)
        Z = ring.all_vars()
        if proper_Z:
            Z = frozenset(rnd.sample(range(nvars), rnd.randint(1, nvars - 1)))
            powers = [var_power(ring, v, rnd.randint(1, max_exp)) for v in range(nvars) if v not in Z]
            K = sum_ideal(K, minimal_generators(ring, powers))
        N = Subquotient(J, intersect(J, K))
        if not N.is_zero:
            return N, Z


def test_lcm_scan_matches_box_scan_reference():
    # the proper-Z draws stay in the stream, so the all-variables cases do not move
    rnd = random.Random(20261017)
    for k in range(240):
        N, Z = _random_subquotient(
            rnd, unit_J=k % 2 == 0, proper_Z=k % 4 >= 2, char=(0, 2)[(k // 4) % 2]
        )
        if Z != N.ring.all_vars():
            with pytest.raises(PreconditionFailed):
                betti_and_projdim(N, Z)
            continue
        assert betti_and_projdim(N, Z) == bf_betti_and_projdim(N, Z), (N, sorted(Z))


def test_support_bound_depth_matches_box_scan_reference(monkeypatch, record):
    # depth is read off the Ass-height and Taylor-length bounds when they
    # meet and off its own lcm scan, stopped at the support bound or the
    # upper bound, otherwise; both routes are checked against the box scan
    # apart from betti_and_projdim, in char 0, 2 and 3
    scans = record(homology, "_lattice")
    monkeypatch.setattr(homology, "_depth_cache", {})
    rnd = random.Random(20261020)
    routes = {"bound": 0, "scan": 0, "module": 0}
    for k in range(400):
        cyclic = k % 3 != 1 or k >= 360
        char = (0, 2, 3)[(k // 3) % 3]
        if k >= 360:
            # 4-6 generators on 2 of 5 variables: the Ass heights are often
            # at most 3, so the bounds differ even once depth 0 is ruled out
            m = rnd.randint(0, 5)
            ring = RingSpec(m, 5 - m, char)
            gens = []
            for _ in range(rnd.randint(4, 6)):
                g = [0] * 5
                for v in rnd.sample(range(5), 2):
                    g[v] = rnd.choice((1, 1, 2))
                gens.append(tuple(g))
            N, Z = Subquotient.cyclic(minimal_generators(ring, gens)), ring.all_vars()
        elif k % 3 == 2:
            # 4-6 generators in 3-4 variables: the bounds often differ
            nvars = rnd.randint(3, 4)
            m = rnd.randint(0, nvars)
            ring = RingSpec(m, nvars - m, char)
            N, Z = Subquotient.cyclic(_random_ideal(rnd, ring, 2, rnd.randint(4, 6))), ring.all_vars()
        else:
            N, Z = _random_subquotient(rnd, unit_J=cyclic, proper_Z=False, char=char)
        _, projdim = bf_betti_and_projdim(N, Z)
        scans.clear()
        homology._depth_cache.clear()
        assert depth_module(N, Z) == N.ring.nvars - projdim, (N, sorted(Z))
        if not cyclic:
            assert [call["N"] for call in scans] == [N]
            routes["module"] += 1
        else:
            routes["scan" if scans else "bound"] += 1
    assert min(routes.values()) >= 20, routes


def test_depth_bounds_are_guarded(monkeypatch):
    # projdim is at least the largest Ass height and at most the Taylor
    # length, so a larger height can only come from a fault, and it names
    # both numbers and the ideal
    ring = RingSpec(2, 1)
    I = ideal(ring, (1, 1, 1))
    monkeypatch.setattr(homology, "associated_primes", lambda _: {ring.all_vars()})
    with pytest.raises(InternalCheckFailed) as err:
        depth_module(Subquotient.cyclic(I), ring.all_vars())
    message = str(err.value)
    assert message.endswith(f"Ass height 3 exceeds the Taylor length 1; module S/I, I =\n{render_ideal(I)}")


@pytest.mark.parametrize("m, n", [(4, 4), (2, 2)])
def test_depth_of_the_residue_field_reads_one_degree(record, m, n):
    # the maximal ideal is the one associated prime and has m+n generators,
    # so the Ass height and the Taylor length both fix the projdim at m+n
    # and none of the 2^(m+n) lattice degrees is read
    calls = record(homology, "koszul_dims_at")
    ring = RingSpec(m, n)
    maximal = minimal_generators(ring, [var_power(ring, v, 1) for v in range(ring.nvars)])
    assert ordinary_depth(maximal) == 0
    assert calls == []


def test_depth_of_a_dense_draw_is_read_off_its_bounds(record):
    # 40 generators on 3 of 8 variables: Ass height 7 but 32 minimal
    # generators, so the Taylor length alone leaves projdim in [7, 8];
    # the maximal ideal is not associated, so depth >= 1 closes the gap and
    # none of the lattice degrees is read (2,558 without that bound)
    calls = record(homology, "koszul_dims_at")
    rng = random.Random(1)
    ring = RingSpec(4, 4)
    gens = []
    for _ in range(40):
        g = [0] * 8
        for v in rng.sample(range(8), 3):
            g[v] = rng.randint(1, 3)
        gens.append(tuple(g))
    I = minimal_generators(ring, gens)
    assert len(I.gens) == 32
    assert max(map(len, associated_primes(I))) == 7
    assert ordinary_depth(I) == 1
    assert calls == []


def _depth(I) -> float:
    """depth S/I, and infinity for the zero module S/S."""
    return float("inf") if I.is_unit else ordinary_depth(I)


def test_the_depth_lemma_holds_on_the_colon_and_sum_by_each_variable():
    # 0 -> S/(I : x) -> S/I -> S/(I, x) -> 0 is exact, the first map
    # multiplication by x, so the depth lemma (Bruns-Herzog, Prop. 1.2.9)
    # ties the three depths, and S/(I : x) embeds in S/I, so its Ass lies in
    # Ass(S/I); no oracle: the engine's depths must satisfy the lemma
    rng = random.Random(1209)
    ideals = [random_ideal(rng)[1] for _ in range(400)]
    ideals += [edge_ideal(n, cycle) for n in range(3, 11) for cycle in (False, True)]
    cases = 0
    for I in ideals:
        ring = I.ring
        for x in range(ring.nvars):
            u = var_power(ring, x)
            J, K = colon(I, u), sum_ideal(I, minimal_generators(ring, [u]))
            dJ, dI, dK = _depth(J), _depth(I), _depth(K)
            case = (render_ideal(I), x, dJ, dI, dK)
            assert dJ >= min(dI, dK + 1), case
            assert dI >= min(dJ, dK), case
            assert dK >= min(dJ - 1, dI), case
            assert J.is_unit or associated_primes(J) <= associated_primes(I), case
            cases += not J.is_unit
    assert cases > 1000


def test_koszul_dims_match_independent_reference():
    # all variables and a proper subset, every degree of the box and one past it
    rnd = random.Random(20261018)
    for k in range(60):
        N, _ = _random_subquotient(rnd, unit_J=k % 2 == 0, proper_Z=False, char=0)
        nvars = N.ring.nvars
        subsets = [N.ring.all_vars(), frozenset(rnd.sample(range(nvars), rnd.randint(1, nvars - 1)))]
        for Z in subsets:
            for b in product(*(range(e + 2) for e in bf_box(N))):
                want = bf_koszul_dims(nvars, N.J.gens, N.Jp.gens, Z, b)
                assert koszul_dims_at(N, Z, b) == want, (N, sorted(Z), b)


def test_cell_bitsets_match_a_scan_of_the_generators():
    # `cell_bitsets` folds the rows of each cell of `exponent_cells` into the
    # generators of J and of J' whose exponents on coords are at most its
    # corner's; a -1 coordinate holds none, so both bitsets are empty on a -1
    # class
    rnd = random.Random(20261020)
    for draw in range(200):
        nvars = rnd.randint(1, 4)
        m = rnd.randint(0, nvars)
        ring = RingSpec(m, nvars - m)
        max_exp = rnd.randint(1, 4)
        J = unit_ideal(ring) if draw % 2 else sum_ideal(
            _random_ideal(rnd, ring, max_exp, 1), _random_ideal(rnd, ring, max_exp)
        )
        N = Subquotient(J, intersect(J, _random_ideal(rnd, ring, max_exp)))
        coords = rnd.sample(range(nvars), rnd.randint(0, nvars))
        cech = frozenset(rnd.sample(range(nvars), rnd.randint(0, nvars)))

        def below(gens, corner):
            divides = [all(g[k] <= e for k, e in zip(coords, corner)) for g in gens]
            return sum(1 << i for i, d in enumerate(divides) if d)

        cells = list(exponent_cells(N, coords, cech))
        for corner, _, rows in cells:
            jin, jpin = cell_bitsets(N, rows)
            want = (below(N.J.gens, corner), below(N.Jp.gens, corner))
            assert (jin, jpin) == want, (N, coords, corner)
            if -1 in corner:
                assert jin == jpin == 0
            # the rows the Cech tables read: `_corner_row` at the corner
            want = [homology._corner_row(N.J.gens, N.Jp, k, e)[:2] for k, e in zip(coords, corner)]
            assert list(rows) == want, (N, coords, corner)
        # cell by cell in lex order of corners
        corners = [corner for corner, *_ in cells]
        assert corners == sorted(corners), (N, coords)


@pytest.mark.parametrize("char", [0, 2])
def test_fiber_tables_match_a_cech_complex_per_cell(char):
    # `_fiber_table` builds each cell's complex from the rows `exponent_cells`
    # gives with the cell; `_cech_dims_at` at the cell's corner builds the rows
    # itself, so column i must list the cells with H^i != 0 and that dim
    rnd = random.Random(20261021 + char)
    nonzero = 0
    for k in range(150):
        N, _ = _random_subquotient(rnd, unit_J=k % 3 != 0, proper_Z=False, char=char)
        allvars = N.ring.all_vars()
        want = [[] for _ in range(N.ring.nvars + 1)]
        for corner, lengths, *_ in exponent_cells(N, range(N.ring.nvars), allvars):
            for column, d in zip(want, _cech_dims_at(N, allvars, corner), strict=True):
                if d:
                    column.append((corner, lengths, d))
        assert local_cohomology._fiber_table.__wrapped__(N) == tuple(map(tuple, want)), N
        nonzero += len({corner for column in want for corner, *_ in column})
    assert nonzero >= 150, nonzero


def test_cech_dims_match_independent_reference():
    # J = S, or J = (m) with J/J' the module S/(J' : m) shifted by m, which the
    # oracle takes; (J' : m) is generated by the g / gcd(g, m).  One degree is
    # drawn in each of up to 8 random cells, the -1 class on Z included.
    rnd = random.Random(20261019)
    for k in range(160):
        nvars = rnd.randint(1, 4)
        m = rnd.randint(0, nvars)
        ring = RingSpec(m, nvars - m, (0, 2)[k % 2])
        shift = tuple(rnd.randint(0, 2) for _ in range(nvars)) if k % 4 >= 2 else (0,) * nvars
        J = minimal_generators(ring, [shift])
        N = Subquotient(J, intersect(J, _random_ideal(rnd, ring, rnd.randint(1, 5 - nvars // 2))))
        Z = frozenset(rnd.sample(range(nvars), rnd.randint(0, nvars)))
        colon_gens = [tuple(max(a - b, 0) for a, b in zip(g, shift)) for g in N.Jp.gens]
        cells = list(exponent_cells(N, range(nvars), Z))
        for corner, lengths, *_ in rnd.sample(cells, min(8, len(cells))):
            c = tuple(
                -rnd.randint(1, 3) if e == -1 else e + rnd.randrange(n or 3)
                for e, n in zip(corner, lengths)
            )
            shifted = tuple(a - b for a, b in zip(c, shift))
            want = [bf_cech_piece(nvars, colon_gens, Z, i, shifted) for i in range(len(Z) + 1)]
            assert _cech_dims_at(N, Z, c) == want, (N, sorted(Z), c)


def _kept_by_every_subset(N, deg, inside):
    """Per size j, the sorted j-subsets sigma of inside whose term the
    `_corner_row` rule keeps: rows `inside[k]` for k in sigma and the rows at
    deg_k elsewhere, every subset tested."""
    J, Jp = N.J, N.Jp
    rows = [homology._corner_row(J.gens, Jp, k, e) for k, e in enumerate(deg)]
    full = (1 << len(Jp.gens)) - 1
    levels = []
    for j in range(len(inside) + 1):
        kept = []
        for sigma in combinations(sorted(inside), j):
            jin, miss = (1 << len(J.gens)) - 1, 0
            for k, row in enumerate(rows):
                row = inside[k] if k in sigma else row
                jin &= row[0]
                miss |= row[1]
            if jin and miss == full:
                kept.append(sigma)
        levels.append(kept)
    return levels


@pytest.mark.parametrize("char", [0, 2])
def test_the_term_walk_keeps_what_every_subset_keeps(record, char):
    # 6-10 variables, past the reach of the brute-force oracles; odd draws
    # take a Koszul degree from the lcm lattice, even ones a Cech degree of
    # cell corners with the -1 class on the axis
    inner = homology._complex_dims
    seen = record(homology, "_complex_dims")
    rnd = random.Random(20261019 + char)
    wide = nonzero = 0
    for k in range(200):
        nvars = rnd.randint(6, 10)
        m = rnd.randint(0, nvars)
        ring = RingSpec(m, nvars - m, char)
        J = unit_ideal(ring) if k % 3 else _random_ideal(rnd, ring, 1, rnd.randint(1, 2))
        Jp = intersect(J, _random_ideal(rnd, ring, 2, rnd.randint(1, 5)))
        N = Subquotient(J, Jp)
        gens = J.gens + Jp.gens
        Z = rnd.sample(range(nvars), rnd.randint(nvars // 2, nvars))
        if k % 2:
            deg = tuple(map(max, zip(*rnd.sample(gens, rnd.randint(1, len(gens))))))
            inside = {z: homology._corner_row(J.gens, Jp, z, deg[z] - 1) for z in Z}
            dims = koszul_dims_at(N, Z, deg)
        else:
            deg = tuple(rnd.choice([-1] * (v in Z) + sorted({g[v] for g in gens})) for v in range(nvars))
            inside = dict.fromkeys(Z, ((1 << len(J.gens)) - 1, 0))
            dims = _cech_dims_at(N, Z, deg)
        want = _kept_by_every_subset(N, deg, inside)
        case = (str(J), str(Jp), char, sorted(Z), deg)
        assert [sorted(level) for level in seen.pop()["levels"]] == want, case
        assert dims == inner(want, char), case
        wide += len(Z) >= 8 and any(want)
        nonzero += any(dims)
    assert wide >= 20 and nonzero >= 40, (wide, nonzero)


def test_cech_vanishes_past_the_box_on_an_axis_variable():
    # The Cech tables skip the cap of every axis coordinate, so the reference
    # test above no longer reaches it.  On the subquotients drawn there, every
    # degree with c_z >= box_z for some z in Z has no Cech cohomology at all.
    rnd = random.Random(20261018)
    for k in range(160):
        nvars = rnd.randint(1, 4)
        m = rnd.randint(0, nvars)
        ring = RingSpec(m, nvars - m, (0, 2)[k % 2])
        shift = tuple(rnd.randint(0, 2) for _ in range(nvars)) if k % 4 >= 2 else (0,) * nvars
        J = minimal_generators(ring, [shift])
        N = Subquotient(J, intersect(J, _random_ideal(rnd, ring, rnd.randint(1, 5 - nvars // 2))))
        Z = frozenset(rnd.sample(range(nvars), rnd.randint(1, nvars)))
        colon_gens = [tuple(max(a - b, 0) for a, b in zip(g, shift)) for g in N.Jp.gens]
        box = bf_box(N)
        capped = rnd.sample(sorted(Z), rnd.randint(1, len(Z)))
        for _ in range(4):
            c = tuple(
                box[v] + rnd.randrange(3) if v in capped
                else rnd.randint(-2 if v in Z else 0, box[v] + 2)
                for v in range(nvars)
            )
            shifted = tuple(a - b for a, b in zip(c, shift))
            want = [bf_cech_piece(nvars, colon_gens, Z, i, shifted) for i in range(len(Z) + 1)]
            assert _cech_dims_at(N, Z, c) == want == [0] * (len(Z) + 1), (N, sorted(Z), c)


def test_large_exponents_scan_only_the_lcm_lattice(monkeypatch, record):
    def ideal_e(e):
        return ideal(RingSpec(2, 2), (e, 0, e, 0), (0, e, 0, 1), (1, 0, 0, e))

    assert ordinary_depth(ideal_e(4)) == 1
    calls = record(homology, "koszul_dims_at")
    monkeypatch.setattr(homology, "_depth_cache", {})
    assert ordinary_depth(ideal_e(1000)) == 1
    # the depth's bounds meet here (Ass height 3, three generators), so the
    # lattice is counted on the Betti scan, which reads the same `_lattice`:
    # the lcm closure of the three generators has at most 8 elements
    assert calls == []
    _, projdim = betti_and_projdim(Subquotient.cyclic(ideal_e(1000)), RingSpec(2, 2).all_vars())
    assert projdim == 3
    assert 0 < len(calls) <= 8


def test_depth_and_dim_caches_are_bounded(monkeypatch):
    ring = RingSpec(1, 2)
    modules = [
        Subquotient.cyclic(ideal(ring, *gens))
        for gens in [
            [(1, 0, 0)],
            [(1, 1, 0)],
            [(1, 0, 0), (0, 1, 0)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 2)],
            [(0, 1, 1), (0, 2, 0)],
            [(2, 0, 1), (1, 1, 0)],
            [(1, 1, 1)],
        ]
    ]
    expected = [(depth_module(N, ring.all_vars()), dim_module(N)) for N in modules]
    assert len(set(expected)) >= 3
    homology._depth_cache.clear()
    monkeypatch.setattr(homology, "CACHE_SIZE", 3)
    for N, want in 2 * list(zip(modules, expected)):
        assert (depth_module(N, ring.all_vars()), dim_module(N)) == want
        assert len(homology._depth_cache) <= 3
    # a full dict drops its oldest entry
    assert list(homology._depth_cache) == modules[-3:]


def test_dim_module():
    assert dim_module(Subquotient.cyclic(ideal(R11, (1, 1)))) == 1
    assert dim_module(Subquotient.cyclic(zero_ideal(R11))) == 2
    I = ideal(R11, (1, 1))
    with pytest.raises(ZeroModule):
        dim_module(Subquotient(I, I))


def test_cech_point_and_free_modules():
    ry1 = RingSpec(0, 1)
    point = Subquotient.cyclic(minimal_generators(ry1, [(1,)]))
    assert cech_piece_dim(point, ry1.all_vars(), 0, (0,)) == 1
    assert cech_piece_dim(point, ry1.all_vars(), 0, (-1,)) == 0
    assert cech_piece_dim(point, ry1.all_vars(), 1, (0,)) == 0

    free = Subquotient.cyclic(zero_ideal(ry1))
    # top local cohomology of K[y1] lives in strictly negative degrees
    assert cech_piece_dim(free, ry1.all_vars(), 1, (-1,)) == 1
    assert cech_piece_dim(free, ry1.all_vars(), 1, (0,)) == 0
    assert cech_piece_dim(free, ry1.all_vars(), 0, (0,)) == 0
    with pytest.raises(PreconditionFailed):
        cech_piece_dim(free, ry1.all_vars(), 2, (0,))


def test_cech_negative_off_axis_is_zero():
    N = Subquotient.cyclic(ideal(R11, (1, 1)))
    assert cech_piece_dim(N, R11.y_block(), 0, (-1, 0)) == 0


@pytest.mark.parametrize(
    "c, error",
    [((0,), DimensionMismatch), ((0, 0, 0), DimensionMismatch), ((0.5, -1), ValueError), (("a", -1), ValueError)],
)
def test_cech_piece_dim_refuses_a_bad_degree(c, error):
    # H^0_m(S/(x1*y1)) is 0 in every degree; unchecked, (0,) and (0.5, -1)
    # read 1, (0, 0, 0) raised a bare IndexError and ("a", -1) a bare TypeError
    N = Subquotient.cyclic(ideal(R11, (1, 1)))
    with pytest.raises(error, match="degree"):
        cech_piece_dim(N, (0, 1), 0, c)
    assert [cech_piece_dim(N, (0, 1), i, (0, -1)) for i in range(3)] == [0, 1, 0]


def test_ass_subquotient_matches_associated_primes():
    for gens in [
        [(1, 1)],
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1)],
    ]:
        I = minimal_generators(R11, gens)
        assert ass_subquotient(unit_ideal(R11), I) == associated_primes(I)


def test_ass_subquotient_walks_more_variables_than_the_recursion_limit():
    # the corner walk takes one step per variable; (x1, ..., x1000) is built
    # in canonical form directly, its unit vectors being minimal and lex-sorted
    ring = RingSpec(1000, 1)
    gens = sorted(tuple(int(k == i) for k in range(ring.nvars)) for i in range(1000))
    I = MonomialIdeal(ring, tuple(gens))
    assert ass_subquotient(unit_ideal(ring), I) == {ring.x_block()}


def test_ass_subquotient_skips_paths_every_generator_misses_twice():
    # (x1*...*x30) has 2^30 corners, and only those missing g at one
    # coordinate have a prime annihilator
    ring = RingSpec(30, 1)
    I = MonomialIdeal(ring, ((1,) * 30 + (0,),))
    start = time.perf_counter()
    found = ass_subquotient(unit_ideal(ring), I)
    assert time.perf_counter() - start < 1.0
    assert found == {frozenset({i}) for i in range(30)}


def test_restrict_and_sub_ring():
    r = RingSpec(2, 2)
    sub = _sub_ring_for(r, r.y_block())
    assert (sub.m, sub.n) == (0, 2)
    I = minimal_generators(r, [(0, 0, 1, 0), (1, 0, 0, 1)])
    J = restrict_ideal(I, r.y_block())
    assert J.ring == sub
    assert J.gens == ((1, 0),)  # only the pure-y generator survives
    # Z is read by RingSpec.axis, so a list answers as its set
    assert restrict_ideal(I, sorted(r.y_block())) == J


def test_restrict_ideal_matches_a_box_reference():
    # I cap K[Z] holds the monomials of K[Z] that lie in I; its minimal ones
    # lie in the lcm box.  Z runs over every nonempty subset, so a generator
    # whose support is all of Z, or meets Z only in part, is met on every draw
    rnd = random.Random(20261020)
    for _ in range(150):
        r = RingSpec(rnd.randint(0, 2), rnd.randint(1, 2))
        I = minimal_generators(
            r, [tuple(rnd.randint(0, 2) for _ in range(r.nvars)) for _ in range(rnd.randint(1, 4))]
        )
        box = I.max_exponents()
        for size in range(1, r.nvars + 1):  # K[] is no ring
            for Z in map(frozenset, combinations(range(r.nvars), size)):
                zvars = sorted(Z)
                inside = []
                for u in product(*(range(box[z] + 1) for z in zvars)):
                    w = [0] * r.nvars
                    for z, e in zip(zvars, u):
                        w[z] = e
                    if I.contains(tuple(w)):
                        inside.append(u)
                expected = bf_minimal_generators(_sub_ring_for(r, Z), inside)
                assert restrict_ideal(I, Z) == expected, (str(I), zvars)
