import random
from itertools import product

import pytest

from bruteforce import bf_betti_and_projdim, bf_cech_piece, bf_koszul_dims
from bigrade import homology
from bigrade.errors import PreconditionFailed, RingMismatch, ZeroModule
from bigrade.homology import (
    Subquotient,
    ass_subquotient,
    betti_and_projdim,
    cech_dims_at,
    cech_piece_dim,
    depth_module,
    dim_module,
    exponent_cells,
    fine_piece,
    koszul_dims_at,
    koszul_homology_dim,
    restrict_ideal,
    sub_ring_for,
)
from bigrade.invariants import ordinary_depth
from bigrade.rings import (
    RingSpec,
    associated_primes,
    intersect,
    minimal_generators,
    sum_ideal,
    unit_ideal,
    var_power,
    zero_ideal,
)

R11 = RingSpec(1, 1)
RY2 = RingSpec(0, 2)


def ideal(ring, *gens):
    return minimal_generators(ring, gens)


def test_subquotient_validation():
    I = ideal(R11, (1, 1))
    with pytest.raises(ValueError):
        Subquotient(R11, I, unit_ideal(R11))  # J' not inside J
    with pytest.raises(RingMismatch):
        Subquotient(RY2, unit_ideal(R11), I)
    N = Subquotient.cyclic(I)
    assert not N.is_zero
    assert Subquotient(R11, I, I).is_zero
    assert N.box() == (1, 1)


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
    assert cech_dims_at(N, {1}, (0, 0)) == [1, 0]
    assert cech_dims_at(N, {0}, (-2, 0)) == [0, 1]


def test_koszul_socle_of_plane_curve():
    # K[y1,y2]/(y1*y2): unique first syzygy sits in degree (1,1)
    N = Subquotient.cyclic(ideal(RY2, (1, 1)))
    assert koszul_homology_dim(N, RY2.all_vars(), 1, (1, 1)) == 1
    assert koszul_homology_dim(N, RY2.all_vars(), 0, (0, 0)) == 1
    assert koszul_homology_dim(N, RY2.all_vars(), 1, (1, 0)) == 0
    with pytest.raises(PreconditionFailed):
        koszul_homology_dim(N, RY2.all_vars(), 3, (0, 0))


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
    I = ideal(R11, (1, 1))
    with pytest.raises(ZeroModule):
        betti_and_projdim(Subquotient(R11, I, I), R11.all_vars())


def test_scan_rejects_non_finite_module():
    # S/(y1) = K[x1] is not finitely generated over K[y1]; S/(x1, y1) is, but
    # Betti numbers and depths are only taken over all variables
    for gens in [[(0, 1)], [(1, 0), (0, 1)]]:
        N = Subquotient.cyclic(ideal(R11, *gens))
        with pytest.raises(PreconditionFailed):
            depth_module(N, R11.y_block())
        with pytest.raises(PreconditionFailed):
            betti_and_projdim(N, R11.y_block())


def _random_ideal(rnd, ring, max_exp):
    """A random monomial ideal with 0-4 generators, none of them 1."""
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
        N = Subquotient(ring, J, intersect(J, K))
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


def test_koszul_dims_match_independent_reference():
    # all variables and a proper subset, every degree of the box and one past it
    rnd = random.Random(20261018)
    for k in range(60):
        N, _ = _random_subquotient(rnd, unit_J=k % 2 == 0, proper_Z=False, char=0)
        nvars = N.ring.nvars
        subsets = [N.ring.all_vars(), frozenset(rnd.sample(range(nvars), rnd.randint(1, nvars - 1)))]
        for Z in subsets:
            for b in product(*(range(e + 2) for e in N.box())):
                want = bf_koszul_dims(nvars, N.J.gens, N.Jp.gens, Z, b)
                assert koszul_dims_at(N, Z, b) == want, (N, sorted(Z), b)


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
        N = Subquotient(ring, J, intersect(J, _random_ideal(rnd, ring, rnd.randint(1, 5 - nvars // 2))))
        Z = frozenset(rnd.sample(range(nvars), rnd.randint(0, nvars)))
        colon_gens = [tuple(max(a - b, 0) for a, b in zip(g, shift)) for g in N.Jp.gens]
        cells = list(exponent_cells(N, range(nvars), Z))
        for corner, lengths in rnd.sample(cells, min(8, len(cells))):
            c = tuple(
                -rnd.randint(1, 3) if e == -1 else e + rnd.randrange(n or 3)
                for e, n in zip(corner, lengths)
            )
            shifted = tuple(a - b for a, b in zip(c, shift))
            want = [bf_cech_piece(nvars, colon_gens, Z, i, shifted) for i in range(len(Z) + 1)]
            assert cech_dims_at(N, Z, c) == want, (N, sorted(Z), c)


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
        N = Subquotient(ring, J, intersect(J, _random_ideal(rnd, ring, rnd.randint(1, 5 - nvars // 2))))
        Z = frozenset(rnd.sample(range(nvars), rnd.randint(1, nvars)))
        colon_gens = [tuple(max(a - b, 0) for a, b in zip(g, shift)) for g in N.Jp.gens]
        box = N.box()
        capped = rnd.sample(sorted(Z), rnd.randint(1, len(Z)))
        for _ in range(4):
            c = tuple(
                box[v] + rnd.randrange(3) if v in capped
                else rnd.randint(-2 if v in Z else 0, box[v] + 2)
                for v in range(nvars)
            )
            shifted = tuple(a - b for a, b in zip(c, shift))
            want = [bf_cech_piece(nvars, colon_gens, Z, i, shifted) for i in range(len(Z) + 1)]
            assert cech_dims_at(N, Z, c) == want == [0] * (len(Z) + 1), (N, sorted(Z), c)


def test_large_exponents_scan_only_the_lcm_lattice(monkeypatch):
    def ideal_e(e):
        return ideal(RingSpec(2, 2), (e, 0, e, 0), (0, e, 0, 1), (1, 0, 0, e))

    assert ordinary_depth(ideal_e(4)) == 1
    calls = []
    inner = homology.koszul_dims_at

    def counting(N, zvars, b):
        calls.append(b)
        return inner(N, zvars, b)

    monkeypatch.setattr(homology, "koszul_dims_at", counting)
    monkeypatch.setattr(homology, "_depth_cache", {})
    assert ordinary_depth(ideal_e(1000)) == 1
    # the lcm closure of 1 and the three generators has at most 8 elements
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
    homology._dim_cache.clear()
    monkeypatch.setattr(homology, "CACHE_SIZE", 3)
    for N, want in 2 * list(zip(modules, expected)):
        assert (depth_module(N, ring.all_vars()), dim_module(N)) == want
        assert len(homology._depth_cache) <= 3 and len(homology._dim_cache) <= 3
    # full dicts drop their oldest entry
    assert list(homology._dim_cache) == modules[-3:]


def test_dim_module():
    assert dim_module(Subquotient.cyclic(ideal(R11, (1, 1)))) == 1
    assert dim_module(Subquotient.cyclic(zero_ideal(R11))) == 2
    I = ideal(R11, (1, 1))
    with pytest.raises(ZeroModule):
        dim_module(Subquotient(R11, I, I))


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


def test_ass_subquotient_matches_associated_primes():
    for gens in [
        [(1, 1)],
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1)],
    ]:
        I = minimal_generators(R11, gens)
        assert ass_subquotient(unit_ideal(R11), I) == associated_primes(I)


def test_restrict_and_sub_ring():
    r = RingSpec(2, 2)
    sub = sub_ring_for(r, r.y_block())
    assert (sub.m, sub.n) == (0, 2)
    I = minimal_generators(r, [(0, 0, 1, 0), (1, 0, 0, 1)])
    J = restrict_ideal(I, r.y_block(), sub)
    assert J.gens == ((1, 0),)  # only the pure-y generator survives
