"""The bounded memos: warm answers equal cold ones, and results can be mutated safely."""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import pickle
import random
import sys
from collections import Counter

import pytest
from bruteforce import bf_irreducible_decomposition

import bigrade
from bigrade import cli, filtration, invariants, local_cohomology, rings, suite
from bigrade.errors import InternalCheckFailed
from bigrade.filtration import dimension_filtration, sequentially_cm
from bigrade.homology import Subquotient
from bigrade.invariants import analyze, cd, fibers, mgrade
from bigrade.io_formats import parse_ideal_text, render_ideal
from bigrade.local_cohomology import corollary_check, generalized_cm, growth_scan, lc_report
from bigrade.rings import (
    MonomialIdeal,
    RingSpec,
    associated_primes,
    colon,
    dim_quotient,
    intersect,
    irreducible_decomposition,
    minimal_generators,
    sum_ideal,
    unit_ideal,
    var_power,
    zero_ideal,
)
from bigrade.suite import check_instance, random_ideal
from test_acceptance import EIGHT_GEN


def _outcome(query):
    try:
        return "ok", query()
    except bigrade.BigradeError as exc:
        return "raised", type(exc).__name__, str(exc)


def _queries(ring, I):
    """Every memoized path, on both axes and at every local cohomology index."""
    out = [("decomposition", lambda: irreducible_decomposition(I))]
    for name, Z in (("P", ring.x_block()), ("Q", ring.y_block())):
        out += [
            (f"analyze {name}", lambda Z=Z: analyze(I, Z)),
            (f"cd {name}", lambda Z=Z: cd(Subquotient.cyclic(I), Z)),
            (f"seqcm {name}", lambda Z=Z: sequentially_cm(I, Z)),
            (f"filtration {name}", lambda Z=Z: dimension_filtration(I, Z)),
            (f"growth {name}", lambda Z=Z: growth_scan(I, 1, [0, 1, 3], Z)),
        ]
        out += [
            (f"lc {name} {i}", lambda Z=Z, i=i: lc_report(I, i, Z))
            for i in range(len(Z) + 1)
        ]
    return out


def test_warm_answers_equal_cold_answers():
    rnd = random.Random(20261018)
    for case in range(150):
        char = (0, 2)[case % 2]
        ring, I = random_ideal(rnd, char=char)
        queries = _queries(ring, I)
        cold = {}
        for label, query in queries:
            bigrade.clear_caches()
            cold[label] = _outcome(query)
        bigrade.clear_caches()
        # every query once, then again those answered from the memos alone
        warm = rnd.sample(queries, len(queries))
        again = [q for q in queries if q[0].split()[0] in ("decomposition", "analyze", "cd", "lc")]
        warm += rnd.sample(again, len(again))
        for label, query in warm:
            assert _outcome(query) == cold[label], (case, str(I), char, label)


def test_mutating_results_does_not_poison_the_memos():
    ring, I = parse_ideal_text(EIGHT_GEN)
    N = Subquotient.cyclic(I)
    for query in (
        lambda: irreducible_decomposition(I),
        lambda: fibers(N, ring.y_block()),
        lambda: associated_primes(I),
    ):
        first = query()
        expected = type(first)(first)
        assert expected
        first.clear()
        assert query() == expected
        assert query() is not query()


def test_analyze_decomposes_each_ideal_once():
    # analyze used to decompose I three times: for mgrade, for dim via the
    # minimal primes, and for the witness prime
    memo = rings._decomposition
    ring, I = parse_ideal_text(EIGHT_GEN)
    analyze(I, ring.y_block())
    misses = memo.cache_info().misses
    assert misses == memo.cache_info().currsize >= 1
    memo(I)
    assert memo.cache_info().misses == misses


def test_ass_dim_and_mgrade_build_no_component_object(record):
    # Ass, dim and mgrade read the radicals off the decomposition memo; only
    # irreducible_decomposition builds PrimaryComponent objects, on each call,
    # from the same memo entry
    built = record(rings, "PrimaryComponent")
    ring = RingSpec(2, 3)
    I = minimal_generators(ring, [(1, 0, 1, 0, 0), (0, 1, 0, 2, 0), (1, 1, 0, 0, 1), (0, 0, 2, 1, 1)])
    expected = bf_irreducible_decomposition(I)
    radicals = [frozenset(i for g in q for i, e in enumerate(g) if e) for q in expected]
    Q = ring.y_block()
    bigrade.clear_caches()
    assert associated_primes(I) == set(radicals)
    assert dim_quotient(I) == ring.nvars - min(map(len, radicals))
    assert mgrade(I, Q) == min(len(Q - p) for p in radicals)
    assert built == [] and rings._decomposition.cache_info().misses == 1
    comps = irreducible_decomposition(I)
    assert rings._decomposition.cache_info().misses == 1
    assert [pc.component.gens for pc in comps] == expected
    assert [pc.radical for pc in comps] == radicals
    assert len(built) == len(comps)


def test_one_cyclic_module_per_ideal():
    ring, I = parse_ideal_text(EIGHT_GEN)
    bigrade.clear_caches()
    first = Subquotient.cyclic(I)
    assert Subquotient.cyclic(I) is first
    # an equal ideal built by another route maps to the same module
    assert Subquotient.cyclic(minimal_generators(ring, reversed(I.gens))) is first
    bigrade.clear_caches()
    again = Subquotient.cyclic(I)
    assert again == first and again is not first
    assert Subquotient.cyclic(I) is again


def test_a_failed_cd_is_not_memoized(monkeypatch):
    checks = []
    body = invariants.dim_quotient

    def off_by_one(I):
        checks.append(I)
        return body(I) + 1

    monkeypatch.setattr(invariants, "dim_quotient", off_by_one)
    ring, I = parse_ideal_text(EIGHT_GEN)
    N = Subquotient.cyclic(I)
    for _ in range(2):
        with pytest.raises(InternalCheckFailed, match="cd mismatch"):
            cd(N, ring.y_block())
    assert len(checks) == 2


def test_cd_is_computed_once_per_module_and_axis(record):
    memo = invariants._cd
    calls = record((invariants, filtration, local_cohomology), "_cd")
    ring, I = parse_ideal_text(EIGHT_GEN)
    for Z in (ring.x_block(), ring.y_block()):
        analyze(I, Z)
        generalized_cm(I, Z)
        sequentially_cm(I, Z)
        try:
            corollary_check(I, Z)
        except bigrade.PreconditionFailed:
            pass  # on Q it refuses, after it has read cd
    asked = Counter((call["N"], call["Z"]) for call in calls)
    assert asked[Subquotient.cyclic(I), ring.y_block()] == 4
    assert memo.cache_info().misses == len(asked)


def test_ass_by_cd_is_grouped_once_per_ideal_and_axis(record):
    # mgrade, its witness, the ladder and two checks of check_instance read
    # Ass(S/I) grouped by cd; over whole check_instance runs each (I, Z) is
    # grouped once and every other call is a memo hit
    memo = invariants._ass_by_cd
    calls = record((invariants, filtration, suite), "_ass_by_cd")
    rng = random.Random(20240811)
    for _ in range(40):
        assert check_instance(*random_ideal(rng)) == []
    asked = {(call["I"], call["Z"]) for call in calls}
    assert len(calls) > 2 * len(asked)
    assert memo.cache_info().misses == len(asked)


def test_memos_are_bounded():
    memos = {name: memo for name, memo in _memos().items() if hasattr(memo, "cache_info")}
    assert len(memos) >= 6
    for name, memo in memos.items():
        # a value without arguments is a constant: it belongs at module
        # level, not in a memo that clear_caches empties
        assert inspect.signature(memo.__wrapped__).parameters, name
        assert 0 < (memo.cache_info().maxsize or 0) < 10_000, name


def _memos() -> dict:
    """Every module-level memo of the package by name: each object with
    `cache_info` and each dict whose name ends in `_cache`."""
    return {
        f"{modname}.{attr}": value
        for modname, module in list(sys.modules.items())
        if modname == "bigrade" or modname.startswith("bigrade.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") or (isinstance(value, dict) and attr.endswith("_cache"))
    }


def _size(memo) -> int:
    return memo.cache_info().currsize if hasattr(memo, "cache_info") else len(memo)


def test_clear_caches_empties_every_memo(tmp_path):
    ring, I = parse_ideal_text(EIGHT_GEN)
    Z = ring.y_block()
    analyze(I, Z)
    dimension_filtration(I, Z)
    sequentially_cm(I, Z)
    lc_report(I, 1, Z)
    growth_scan(I, 1, [0, 1], Z)
    path = tmp_path / "sample.ideal"
    path.write_text(EIGHT_GEN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["render", str(path)]) == 0
        assert cli.main(["render", "--char", "7", str(path)]) == 0  # fills the primality memo
    memos = _memos()
    assert len(memos) >= 8
    assert "bigrade.local_cohomology._lc_reports" in memos
    assert [name for name, memo in memos.items() if _size(memo) == 0] == []
    bigrade.clear_caches()
    assert [name for name, memo in memos.items() if _size(memo) != 0] == []


def test_clear_caches_finds_a_memo_by_its_kind_and_name(monkeypatch):
    # a memo that no code names: a module-level lru_cache and a *_cache dict
    memo = functools.lru_cache(maxsize=8)(lambda x: x)
    memo(1)
    table, other = {"key": 1}, {"key": 1}
    monkeypatch.setattr(rings, "memo_for_test", memo, raising=False)
    monkeypatch.setattr(invariants, "table_for_test_cache", table, raising=False)
    monkeypatch.setattr(invariants, "table_for_test", other, raising=False)
    bigrade.clear_caches()
    assert memo.cache_info().currsize == 0
    assert table == {}
    # a dict whose name does not end in _cache is not a memo
    assert other == {"key": 1}


def _routes(rnd, ring, I):
    """I rebuilt four other ways: parsed from its rendering, from its generators
    shuffled and repeated, as I cap (I + (x_1)), and as (u I : u)."""
    raw = list(I.gens) * 2
    rnd.shuffle(raw)
    u = tuple(rnd.randint(0, 2) for _ in range(ring.nvars))
    product = minimal_generators(ring, [tuple(a + b for a, b in zip(g, u)) for g in I.gens])
    return [
        parse_ideal_text(render_ideal(I), ring.char)[1],
        minimal_generators(ring, raw),
        intersect(I, sum_ideal(I, minimal_generators(ring, [var_power(ring, 0)]))),
        colon(product, u),
    ]


def test_equal_values_built_by_different_routes_hash_equal():
    rnd = random.Random(20261020)
    for _ in range(200):
        ring, I = random_ideal(rnd, char=rnd.choice((0, 2)))
        assert hash(ring) == hash((ring.m, ring.n, ring.char))
        assert hash(I) == hash((I.ring, I.gens))
        N = Subquotient.cyclic(I)
        assert hash(N) == hash((N.J, N.Jp))
        J = sum_ideal(I, minimal_generators(ring, [var_power(ring, ring.nvars - 1)]))
        for other in _routes(rnd, ring, I):
            assert other is not I
            assert other == I and hash(other) == hash(I), str(I)
            assert other.ring == ring and hash(other.ring) == hash(ring)
            assert other.is_unit == I.is_unit
            M = Subquotient(unit_ideal(RingSpec(ring.m, ring.n, ring.char)), other)
            assert M == N and hash(M) == hash(N)
            assert M.is_zero == N.is_zero
            assert Subquotient(J, other) == Subquotient(J, I)
            assert hash(Subquotient(J, other)) == hash(Subquotient(J, I))


def test_copies_equal_their_original_and_hit_its_memo_entry():
    ring, I = parse_ideal_text(EIGHT_GEN)
    Z = ring.y_block()
    N = Subquotient.cyclic(I)
    bigrade.clear_caches()
    expected = fibers(N, Z)
    copies = [
        pickle.loads(pickle.dumps(N)),
        dataclasses.replace(N),
        dataclasses.replace(N, Jp=pickle.loads(pickle.dumps(I))),
        dataclasses.replace(N, J=unit_ideal(dataclasses.replace(ring))),
    ]
    for copy in copies:
        assert copy is not N
        assert copy == N and hash(copy) == hash(N)
        assert copy.Jp == I and hash(copy.Jp) == hash(I)
        assert copy.ring == ring and hash(copy.ring) == hash(ring)
        assert copy.ring.nvars == ring.nvars and copy.J.is_unit and not copy.is_zero
        hits = invariants._fibers.cache_info().hits
        assert fibers(copy, Z) == expected
        assert invariants._fibers.cache_info().hits == hits + 1
    assert invariants._fibers.cache_info().misses == 1


def test_building_modules_and_fibers_compares_no_rings_by_value(record):
    # a subquotient is its two ideals, and the one same-ring check compares
    # by identity first, so rings shared by reference are never compared field
    # by field
    calls = record(RingSpec, "__eq__")
    ring, I = parse_ideal_text(EIGHT_GEN)
    N = Subquotient.cyclic(I)
    for Z in (ring.x_block(), ring.y_block()):
        assert fibers(N, Z)
    assert calls == []


def test_a_submodule_outside_a_non_unit_J_is_refused():
    ring = RingSpec(1, 1)
    J = minimal_generators(ring, [(1, 0)])
    with pytest.raises(ValueError, match="contained"):
        Subquotient(J, minimal_generators(ring, [(0, 1)]))
    with pytest.raises(ValueError, match="contained"):
        Subquotient(J, unit_ideal(ring))
    assert Subquotient(J, minimal_generators(ring, [(1, 1)])).Jp.gens == ((1, 1),)


def test_a_cyclic_module_makes_no_containment_scan(record):
    calls = record(MonomialIdeal, "contains_ideal")
    ring, I = parse_ideal_text(EIGHT_GEN)
    bigrade.clear_caches()
    # within one memo lifetime the same object, across clear_caches a new one;
    # neither build scans J' against the unit J
    first, second = Subquotient.cyclic(I), Subquotient.cyclic(I)
    bigrade.clear_caches()
    third = Subquotient.cyclic(I)
    assert first is second
    assert third == first and third is not first
    assert calls == []
    # a non-unit J still gets its scan
    Subquotient(minimal_generators(ring, [var_power(ring, 0)]), zero_ideal(ring))
    assert len(calls) == 1


def test_equal_texts_parse_to_the_same_ring_and_ideal():
    # the parse memo is keyed on the text: a second parse of an equal string
    # in one memo lifetime returns the first parse's objects
    ring, I = parse_ideal_text(EIGHT_GEN)
    again = parse_ideal_text("".join(list(EIGHT_GEN)))
    assert again[0] is ring and again[1] is I
    bigrade.clear_caches()
    cold = parse_ideal_text(EIGHT_GEN)
    assert cold == (ring, I) and cold[1] is not I


def test_the_same_text_over_two_characteristics_gives_two_rings():
    ring0, I0 = parse_ideal_text(EIGHT_GEN, char=0)
    ring2, I2 = parse_ideal_text(EIGHT_GEN, char=2)
    assert (ring0.char, ring2.char) == (0, 2)
    assert ring0 is not ring2 and I0.ring is ring0 and I2.ring is ring2


def _render(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["render", str(path)])
    return code, out.getvalue()


def _render_doc(canonical):
    return json.dumps({"canonical": canonical, "command": "render", "schema": 1}, indent=2) + "\n"


def test_a_rewritten_file_is_read_again(tmp_path):
    # the memo is keyed on the text, not the path: no clear_caches is needed
    path = tmp_path / "i.ideal"
    path.write_text("ring 1 1\ngens: x1\n")
    assert _render(path) == (0, _render_doc("ring 1 1\ngens: x1\n"))
    path.write_text("ring 1 1\ngens: y1^2\n")
    assert _render(path) == (0, _render_doc("ring 1 1\ngens: y1^2\n"))


def test_a_parse_error_is_raised_on_every_call(tmp_path):
    path = tmp_path / "i.ideal"
    path.write_text("ring 1 1\nwat\n")
    error = '{"error": "parse: unexpected line \'wat\' (line 2)", "schema": 1}\n'
    assert _render(path) == (2, error)
    assert _render(path) == (2, error)
    path.write_text("ring 1 1\ngens: x1\n")
    assert _render(path) == (0, _render_doc("ring 1 1\ngens: x1\n"))
