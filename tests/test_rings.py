import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import bf_irreducible_decomposition, bf_minimal_generators
from bigrade import rings
from bigrade.errors import DimensionMismatch, UnitIdeal
from bigrade.rings import (
    MAX_CHAR,
    PrimaryComponent,
    RingSpec,
    _is_prime,
    _minimal,
    associated_primes,
    colon,
    colon_ideal,
    dim_quotient,
    intersect,
    intersect_all,
    intersect_pure_powers,
    irreducible_decomposition,
    minimal_generators,
    primary_decomposition,
    prime_ideal,
    render_monomial,
    sum_ideal,
    unit_ideal,
    var_power,
    zero_ideal,
)
from test_acceptance import ideal

R22 = RingSpec(2, 2)


def test_ringspec_validation():
    RingSpec(0, 1)
    RingSpec(3, 0, 5)
    assert RingSpec(0, 0).nvars == 0  # the point ring K[]
    with pytest.raises(ValueError, match="need m, n >= 0, got m=-1 n=0"):
        RingSpec(-1, 0)
    with pytest.raises(ValueError):
        RingSpec(1, 1, 4)
    with pytest.raises(ValueError):
        RingSpec(1, 1, -2)


@pytest.mark.parametrize("args", [(2, 2, 3.0), (1.5, 1), ("1", 1)])
def test_ringspec_refuses_non_integer_fields(args):
    # 3.0 passed the prime test and then failed inside rank_mod_p's pow()
    with pytest.raises(ValueError, match="must be an integer"):
        RingSpec(*args)


def test_ringspec_stores_integer_fields_as_ints():
    ring = RingSpec(True, 1, 2)  # a bool is an integer, as in minimal_generators
    assert ring == RingSpec(1, 1, 2) and hash(ring) == hash(RingSpec(1, 1, 2))
    assert all(type(v) is int for v in (ring.m, ring.n, ring.char))


def test_axis_is_a_set_of_variable_indices():
    ring = RingSpec(1, 2)
    assert ring.axis([2, 1, 2]) == frozenset({1, 2})
    assert ring.axis(()) == frozenset()
    for Z in ([3], [-1], ["a"], [0.0]):
        with pytest.raises(ValueError, match="axis variable"):
            ring.axis(Z)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_check_agrees_with_trial_division():
    assert all(_is_prime(n) == _trial_division_prime(n) for n in range(10 ** 4))


def test_prime_check_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; the others are strong pseudoprimes to
    # bases 2-7, 2-31 and 2-37, so the later bases must catch them
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            RingSpec(1, 1, n)


def test_large_prime_characteristic_is_accepted_quickly():
    start = time.perf_counter()
    assert RingSpec(1, 1, 10 ** 18 + 3).char == 10 ** 18 + 3
    assert time.perf_counter() - start < 1.0


def test_characteristic_above_the_exact_bound_is_refused():
    with pytest.raises(ValueError, match="below"):
        RingSpec(1, 1, 2 ** 89 - 1)  # prime, but beyond the exact range
    assert 2 ** 89 - 1 >= MAX_CHAR


def test_var_names_and_blocks():
    r = RingSpec(2, 3)
    assert [r.var_name(i) for i in range(5)] == ["x1", "x2", "y1", "y2", "y3"]
    assert r.x_block() == frozenset({0, 1})
    assert r.y_block() == frozenset({2, 3, 4})


def test_minimal_generators_drops_multiples():
    I = ideal(R22, (1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0), (0, 0, 1, 1))
    assert I.gens == ((0, 0, 1, 1), (1, 0, 0, 0))


def test_minimal_generators_match_the_all_pairs_reference():
    rnd = random.Random(20261019)
    for _ in range(600):
        ring = RingSpec(rnd.randint(0, 3), rnd.randint(1, 3))
        raw = [
            tuple(rnd.choice((0, 0, 1, 2, 3)) for _ in range(ring.nvars))
            for _ in range(rnd.randint(1, 60))
        ]
        raw += rnd.sample(raw, rnd.randint(0, len(raw)))  # duplicates
        if rnd.random() < 0.1:
            raw.append((0,) * ring.nvars)  # the unit monomial
        rnd.shuffle(raw)
        assert minimal_generators(ring, raw) == bf_minimal_generators(ring, raw), raw


def test_the_minimality_pass_keeps_a_repeated_monomial_once():
    # `minimal_generators` drops repeats before the pass; the fibers'
    # restricted colons do not, as two generators may share a Z-part
    rnd = random.Random(20261020)
    for _ in range(600):
        nvars = rnd.randint(1, 5)
        raw = [tuple(rnd.choice((0, 0, 1, 2, 3)) for _ in range(nvars)) for _ in range(rnd.randint(1, 30))]
        raw += rnd.choices(raw, k=rnd.randint(1, len(raw)))
        if rnd.random() < 0.1:
            raw += [(0,) * nvars] * 2  # the unit monomial, twice
        assert _minimal(sorted(raw)) == bf_minimal_generators(RingSpec(0, nvars), raw).gens, raw


@pytest.mark.parametrize("raw", [[(0.5, 1)], [("2", 1)], [(1.0, 0)], [(None, 1)]])
def test_minimal_generators_refuses_non_integer_exponents(raw):
    # int() would truncate 0.5 to 0 and parse "2"
    with pytest.raises(ValueError, match="exponents must be integers"):
        minimal_generators(RingSpec(1, 1), raw)


def test_minimal_generators_takes_bools_and_numpy_integers():
    np = pytest.importorskip("numpy")
    ring = RingSpec(1, 1)
    expected = minimal_generators(ring, [(1, 2)])
    got = minimal_generators(ring, [(True, np.int64(2))])
    assert got == expected
    assert hash(got) == hash(expected)
    assert all(type(e) is int for g in got.gens for e in g)


def test_minimal_generators_refuses_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        minimal_generators(R22, [(1, 0, 0, 0), (1, 0, -1, 0)])


def test_unit_zero_flags():
    assert unit_ideal(R22).is_unit
    assert zero_ideal(R22).is_zero
    assert not ideal(R22, (1, 0, 0, 0)).is_unit
    with pytest.raises(DimensionMismatch):
        minimal_generators(R22, [(1, 0)])


def test_render_monomial():
    assert render_monomial(R22, (2, 0, 1, 0)) == "x1^2*y1"
    assert render_monomial(R22, (0, 0, 0, 0)) == "1"
    # an ideal's label lists its generators; the zero ideal has none
    assert str(ideal(R22, (2, 0, 1, 0), (0, 1, 0, 0))) == "(x2, x1^2*y1)"
    assert str(unit_ideal(R22)) == "(1)"
    assert str(zero_ideal(R22)) == "(0)"


exp_tuples = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(exp_tuples, min_size=1, max_size=6))
def test_canonical_form_idempotent_and_order_free(gens):
    I = minimal_generators(R22, gens)
    assert minimal_generators(R22, I.gens) == I
    assert minimal_generators(R22, reversed(gens)) == I


@settings(max_examples=40, deadline=None)
@given(
    st.lists(exp_tuples, min_size=1, max_size=4),
    st.lists(exp_tuples, min_size=1, max_size=4),
)
def test_intersect_matches_membership(ga, gb):
    I = minimal_generators(R22, ga)
    J = minimal_generators(R22, gb)
    K = intersect(I, J)
    for u in _small_monomials():
        assert K.contains(u) == (I.contains(u) and J.contains(u))


@settings(max_examples=40, deadline=None)
@given(st.lists(exp_tuples, min_size=1, max_size=4), exp_tuples)
def test_colon_matches_membership(gens, u):
    I = minimal_generators(R22, gens)
    C = colon(I, u)
    for v in _small_monomials():
        uv = tuple(a + b for a, b in zip(u, v))
        assert C.contains(v) == I.contains(uv)


def _small_monomials(top=4):
    from itertools import product

    return product(range(top + 1), repeat=4)


def test_colon_ideal_of_zero():
    assert colon_ideal(ideal(R22, (1, 0, 0, 0)), zero_ideal(R22)).is_unit


def test_sum_and_prime_ideal():
    p = prime_ideal(R22, frozenset({0, 2}))
    assert p == ideal(R22, (1, 0, 0, 0), (0, 0, 1, 0))
    s = sum_ideal(p, ideal(R22, (0, 1, 0, 0)))
    assert len(s.gens) == 3


def test_irreducible_decomposition_monomial_xy():
    # (x1*y1) = (x1) cap (y1)
    r = RingSpec(1, 1)
    comps = irreducible_decomposition(ideal(r, (1, 1)))
    assert sorted(pc.component.gens for pc in comps) == [((0, 1),), ((1, 0),)]
    assert {pc.radical for pc in comps} == {frozenset({0}), frozenset({1})}


def test_decomposition_errors():
    with pytest.raises(UnitIdeal):
        irreducible_decomposition(unit_ideal(R22))
    # (0) is irreducible: its decomposition is the one empty component
    zero = zero_ideal(R22)
    assert [pc.component.gens for pc in irreducible_decomposition(zero)] == (
        bf_irreducible_decomposition(zero)
    ) == [()]
    assert irreducible_decomposition(zero) == [PrimaryComponent(zero, frozenset())]
    with pytest.raises(UnitIdeal):
        associated_primes(unit_ideal(R22))


def test_ass_of_zero_ideal():
    assert associated_primes(zero_ideal(R22)) == {frozenset()}


@settings(max_examples=40, deadline=None)
@given(st.lists(exp_tuples, min_size=0, max_size=5))
def test_decomposition_intersects_back(gens):
    I = minimal_generators(R22, gens)
    if I.is_unit:
        return
    comps = irreducible_decomposition(I)
    from bigrade.rings import intersect_all

    assert intersect_all([pc.component for pc in comps]) == I
    # irredundancy: dropping any component changes the intersection
    if len(comps) > 1:
        for k in range(len(comps)):
            rest = [pc.component for j, pc in enumerate(comps) if j != k]
            assert intersect_all(rest) != I


def test_decomposition_is_irredundant_in_larger_rings():
    # irredundant irreducible decompositions are unique, so intersecting back
    # and losing I when any component is dropped pin the output down
    rnd = random.Random(20261018)
    for _ in range(200):
        ring = RingSpec(rnd.randint(1, 3), rnd.randint(1, 3))
        gens = [
            tuple(rnd.choice([0, 0, 1, rnd.randint(1, 3)]) for _ in range(ring.nvars))
            for _ in range(rnd.randint(1, 6))
        ]
        I = minimal_generators(ring, [g for g in gens if any(g)] or [(1,) * ring.nvars])
        comps = [pc.component for pc in irreducible_decomposition(I)]
        assert intersect_all(comps) == I
        for k in range(len(comps)):
            rest = comps[:k] + comps[k + 1:]
            assert not rest or intersect_all(rest) != I, (I, comps[k])


def _assert_decomposition_matches_oracle(I):
    comps = irreducible_decomposition(I)
    expected = bf_irreducible_decomposition(I)
    assert [pc.component.gens for pc in comps] == expected, str(I)
    assert [pc.radical for pc in comps] == [
        frozenset(i for u in q for i, e in enumerate(u) if e) for q in expected
    ], str(I)


def test_decomposition_matches_the_candidate_vector_oracle():
    rnd = random.Random(20261020)
    shapes = set()
    for _ in range(500):
        m, n = rnd.choice([(m, n) for m in range(4) for n in range(3) if m + n])
        ring = RingSpec(m, n)
        gens = [
            tuple(rnd.choice((0, 0, 1, rnd.randint(1, 3))) for _ in range(ring.nvars))
            for _ in range(rnd.randint(1, 6))
        ]
        I = minimal_generators(ring, [g for g in gens if any(g)] or [(1,) * ring.nvars])
        shapes.add((m, n))
        _assert_decomposition_matches_oracle(I)
    assert (3, 0) in shapes and (0, 2) in shapes


def test_squarefree_decomposition_matches_the_candidate_vector_oracle():
    # the decompose benchmark's shape: 4-7 products of 2 or 3 of 6 variables
    rnd = random.Random(20261021)
    ring = RingSpec(3, 3)
    for _ in range(100):
        gens = []
        for _ in range(rnd.randint(4, 7)):
            chosen = rnd.sample(range(6), rnd.choice((2, 3)))
            gens.append(tuple(int(k in chosen) for k in range(6)))
        _assert_decomposition_matches_oracle(minimal_generators(ring, gens))


def test_decomposition_cost_follows_the_components(record):
    # edge ideal of the 14-cycle: its components are the minimal vertex
    # covers, complements of the maximal independent sets, so there are
    # P(14) = 51 of them (Perrin numbers).  Each added generator tests a
    # child for containment only in the components whose support holds its
    # own, so the containment tests stay below components x generators;
    # testing every pair of components costs several thousand
    ring = RingSpec(7, 7)
    edges = [frozenset({k, (k + 1) % 14}) for k in range(14)]
    I = minimal_generators(ring, [tuple(int(v in e) for v in range(14)) for e in edges])
    calls = record(rings, "_inside")
    rings._decomposition.cache_clear()
    comps = irreducible_decomposition(I)
    assert len(comps) == 51
    assert len(calls) <= len(comps) * len(I.gens)
    for pc in comps:
        assert all(e & pc.radical for e in edges)
        for v in pc.radical:
            assert not all(e & (pc.radical - {v}) for e in edges)


def test_a_pure_power_meet_is_the_intersection(record):
    # I cap (x_i^{a_i} : i in rad) on seeded draws, S and (0) among them; an
    # ideal inside the component passes its generators to minimal_generators
    # as they are, one monomial each
    rnd = random.Random(20261029)
    meets = []
    for k in range(200):
        ring = RingSpec(rnd.randint(1, 3), rnd.randint(1, 3))
        gens = [tuple(rnd.randint(0, 3) for _ in range(ring.nvars)) for _ in range(rnd.randint(0, 5))]
        I = (unit_ideal(ring), zero_ideal(ring), minimal_generators(ring, gens))[min(k % 8, 2)]
        rad = frozenset(rnd.sample(range(ring.nvars), rnd.randint(1, ring.nvars)))
        a = tuple(rnd.randint(1, 3) if i in rad else 0 for i in range(ring.nvars))
        q = minimal_generators(ring, [var_power(ring, i, a[i]) for i in rad])
        J = intersect(I, q)
        assert intersect_pure_powers(I, a, rad) == J, (str(I), a)
        meets.append((J, a, rad))
    calls = record(rings, "minimal_generators")
    for J, a, rad in meets:
        calls.clear()
        assert intersect_pure_powers(J, a, rad) == J, (str(J), a)
        assert [call["raw"] for call in calls] == [list(J.gens)], (str(J), a)


def test_primary_groups_by_radical():
    # (x1^2, x1*y1) = (x1) cap (x1^2, y1): two primaries with distinct radicals
    r = RingSpec(1, 1)
    I = ideal(r, (2, 0), (1, 1))
    prim = primary_decomposition(I)
    assert {pc.radical for pc in prim} == {frozenset({0}), frozenset({0, 1})}
    assert len(prim) == 2


def test_each_primary_component_meets_the_irreducible_components_of_its_radical(record):
    # per associated prime, in sorted order, on seeded draws with (0) among
    # them; primary_decomposition reads the decomposition memo, so it builds
    # no irreducible list and makes no intersect_all call
    rnd = random.Random(20261049)
    cases = []
    while len(cases) < 200:
        ring = RingSpec(rnd.randint(1, 3), rnd.randint(1, 3))
        gens = [tuple(rnd.randint(0, 3) for _ in range(ring.nvars)) for _ in range(rnd.randint(0, 5))]
        I = minimal_generators(ring, gens)
        if I.is_unit:
            continue
        comps = irreducible_decomposition(I)
        expected = [
            PrimaryComponent(intersect_all([pc.component for pc in comps if pc.radical == rad]), rad)
            for rad in sorted(associated_primes(I), key=sorted)
        ]
        cases.append((I, expected))
    assert any(I.is_zero for I, _ in cases)
    assert any(len(expected) > 1 for _, expected in cases)
    decomposed = record(rings, "irreducible_decomposition")
    met = record(rings, "intersect_all")
    for I, expected in cases:
        assert primary_decomposition(I) == expected, str(I)
    assert decomposed == met == []


def test_dim_quotient():
    assert dim_quotient(zero_ideal(R22)) == 4
    assert dim_quotient(ideal(R22, (1, 0, 0, 0))) == 3
    assert dim_quotient(prime_ideal(R22, frozenset(range(4)))) == 0
