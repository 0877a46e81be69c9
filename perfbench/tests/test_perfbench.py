"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import algebra  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

from bigrade import homology, invariants, kernels  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7, 40)
    assert a == workloads.generate(workload, 7, 40)
    assert a[:10] == workloads.generate(workload, 7, 10)
    assert [q["gens"] for q in a] != [q["gens"] for q in workloads.generate(workload, 8, 40)]


def test_selection_is_seeded_and_keeps_one_query_per_group():
    groups = [[{"index": 4 * g + r} for r in range(4)] for g in range(40)]
    a = bench.select(groups, 1, 1.0)
    assert a == bench.select(iter(groups), 1, 1.0)
    assert a != bench.select(groups, 2, 1.0)
    assert sorted(e["index"] // 4 for e in a) == list(range(40))
    half = bench.select(groups, 1, 0.5)
    assert sorted(e["index"] // 4 for e in half) == list(range(1, 40, 2))


def _query(workload, m, n, gens, **extra):
    return dict({"id": f"{workload}-test", "m": m, "n": n, "gens": gens}, **extra)


def _answer(workload, q, tmp_path, char=None):
    path = tmp_path / "ideal.txt"
    path.write_text(algebra.ideal_text(q["m"], q["n"], q["gens"]))
    return workloads.run_query(workload, q, str(path), char)


def _outputs(workload, q, answer):
    return {workloads.key(a): out for a, (_, out) in zip(workloads.commands(workload, q, "-"), answer)}


def _kinds(problems):
    return {kind for kind, _ in problems}


def test_suite_checker_rejects_a_violated_theorem(tmp_path):
    q = _query("suite", 2, 2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    expected = {"violations": []}
    assert workloads.check_answer("suite", q, _answer("suite", q, tmp_path), expected) == []
    assert _kinds(workloads.check_answer("suite", q, ["top_lc_not_fg"], expected)) == {"wrong"}


def test_exponents_checker_rejects_changed_bytes_and_changed_invariants(tmp_path):
    base = [[1, 0, 1, 0], [0, 1, 0, 1]]
    q = _query("exponents", 2, 2, [[2, 0, 2, 0], [0, 2, 0, 2]], k=2, base=base)
    answer = _answer("exponents", q, tmp_path)
    bq = dict(q, gens=base)
    expected = {"outputs": _outputs("exponents", q, answer),
                "base_fields": workloads.invariant_fields(bq, _answer("exponents", bq, tmp_path))}
    assert workloads.check_answer("exponents", q, answer, expected) == []

    bad = copy.deepcopy(answer)
    bad[0][1] = bad[0][1].replace('"grade": ', '"grade": 1')
    assert _kinds(workloads.check_answer("exponents", q, bad, expected)) == {"wrong"}

    moved = copy.deepcopy(expected)
    moved["base_fields"]["cd"] += 1
    assert _kinds(workloads.check_answer("exponents", q, answer, moved)) == {"wrong"}

    failed = copy.deepcopy(answer)
    failed[0] = [3, '{"error": "precondition: x", "schema": 1}\n']
    assert _kinds(workloads.check_answer("exponents", q, failed, expected)) == {"error"}


def test_decompose_checker_recomputes_the_intersection(tmp_path):
    q = _query("decompose", 3, 3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])
    answer = _answer("decompose", q, tmp_path)
    expected = {"outputs": _outputs("decompose", q, answer)}
    assert workloads.check_answer("decompose", q, answer, expected) == []

    # drop one component in both the answer and the expected bytes, so only
    # the independent recomputation can notice
    doc = json.loads(answer[0][1])
    doc["irreducible_components"] = doc["irreducible_components"][1:]
    bad = copy.deepcopy(answer)
    bad[0][1] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    bad_expected = {"outputs": _outputs("decompose", q, bad)}
    assert _kinds(workloads.check_answer("decompose", q, bad, bad_expected)) == {"wrong"}

    doc = json.loads(answer[0][1])
    doc["irreducible_components"][0]["gens"][0] = "x1*x2"
    assert any("pure power" in p for p in workloads.check_decomposition(q, doc))


def test_charp_checker_compares_with_the_characteristic_zero_answer(tmp_path):
    q = _query("charp", 2, 1, [[1, 1, 0], [0, 1, 1]], p=32003)
    zero = _answer("charp", q, tmp_path, char=0)
    outputs = {}
    for argv, (_, out) in zip(workloads.commands("charp", q, "-"), zero):
        doc = json.loads(out)
        if "char" in doc:
            doc["char"] = q["p"]
            out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        outputs[workloads.key(argv)] = out
    answer = _answer("charp", q, tmp_path)
    assert workloads.check_answer("charp", q, answer, {"outputs": outputs}) == []

    bad = copy.deepcopy(answer)
    bad[-1][1] = bad[-1][1].replace("true", "false")
    assert bad != answer
    assert _kinds(workloads.check_answer("charp", q, bad, {"outputs": outputs})) == {"wrong"}


def test_independent_ranks():
    m = [[1, -1, 0], [0, 1, -1], [1, 0, -1]]
    assert algebra.rank_fraction(m) == 2
    assert algebra.rank_mod(m, 2) == 2
    assert algebra.rank_mod([[2, 4], [1, 2]], 2) == 1
    assert algebra.rank_fraction([[2, 4], [1, 3]]) == 2
    assert algebra.rank_fraction([]) == 0


def test_decomposition_helpers():
    assert algebra.minimalize([(1, 1), (1, 0), (1, 0), (0, 2)]) == ((0, 2), (1, 0))
    assert algebra.intersect([(1, 0)], [(0, 1)]) == ((1, 1),)
    assert algebra.parse_monomial(2, 1, "x2^3*y1") == (0, 3, 1)
    assert algebra.ideal_text(1, 1, [(2, 1)]) == "ring 1 1\ngens: x1^2*y1\n"


def test_slowdown_averages_the_samples_around_a_query():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_UNIT_S
    speed.times = [0.01 * i for i in range(200)]
    speed.durations = [ref if t < 1.0 else 2 * ref for t in speed.times]
    assert speed.slowdown(0.3, 0.5) == pytest.approx(1.0)
    assert speed.slowdown(1.3, 1.6) == pytest.approx(2.0)
    # the window reaches PAD_S past each end of the query
    assert 1.0 < speed.slowdown(0.95, 0.95) < 2.0
    # far from every sample, the nearest MIN_SAMPLES are used
    assert speed.slowdown(50.0, 50.0) == pytest.approx(2.0)
    assert speed.slowdown(-50.0, -49.0) == pytest.approx(1.0)


def test_sampler_time_is_left_out_of_query_latency(monkeypatch):
    def busy(workload, q, path):
        end = hostspeed.perf_counter() + 0.2
        while hostspeed.perf_counter() < end:
            pass
        return []

    monkeypatch.setattr(workloads, "run_query", busy)
    q = _query("suite", 1, 1, [[1, 1]])
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        lat, (t0, t1), outcome, _ = bench.execute("suite", q, "-", {"expected": {"violations": []}},
                                                  speed=speed)
        busy(None, None, None)  # let samples land after the query too
    finally:
        speed.stop()
    inside = [d for t, d in zip(speed.times, speed.durations) if t0 <= t <= t1]
    assert outcome == "ok"
    assert len(inside) >= 5
    # each handler runs the unit twice and times the second run; both are left out
    removed = t1 - t0 - lat
    assert sum(inside) < removed < 4 * sum(inside) + 2e-3
    assert speed.slowdown(t0, t1) > 0


@pytest.fixture
def installed():
    t = tracing.Tracer(oracle=True)
    originals = {(m, f): getattr(workloads.bigrade_modules()[f"bigrade.{m}"], f)
                 for m, f, *_ in tracing.TRACED}
    t.install()
    try:
        yield t, originals
    finally:
        t.uninstall()
    for (m, f), orig in originals.items():
        assert getattr(workloads.bigrade_modules()[f"bigrade.{m}"], f) is orig


def test_wrappers_replace_every_module_binding(installed):
    t, originals = installed
    mods = workloads.bigrade_modules()
    for (m, f), orig in originals.items():
        assert getattr(mods[f"bigrade.{m}"], f) is not orig
        for name, mod in mods.items():
            for attr, val in vars(mod).items():
                assert val is not orig, f"{name}.{attr} still binds the untraced {m}.{f}"
    assert invariants.depth_module is homology.depth_module
    assert getattr(invariants.depth_module, "__wrapped__", None) is originals[("homology", "depth_module")]


def test_self_times_sum_to_traced_wall_time(installed, tmp_path):
    t, _ = installed
    wall = 0.0
    for workload, q in (
        ("suite", _query("suite", 2, 2, [[1, 0, 1, 0], [0, 1, 1, 1]])),
        ("exponents", _query("exponents", 2, 1, [[2, 2, 0], [0, 2, 2]])),
    ):
        path = tmp_path / "ideal.txt"
        path.write_text(algebra.ideal_text(q["m"], q["n"], q["gens"]))
        t.begin_query(q["id"])
        workloads.run_query(workload, q, str(path))
        wall += t.end_query()
    assert sum(t.layer_self.values()) == pytest.approx(wall, rel=1e-9)
    assert t.layer_self["kernels"] > 0 and t.layer_self["suite"] > 0 and t.layer_self["cli"] > 0
    assert t.stats["homology.depth_module"][0] > 0
    roots = [s for s in t.spans if s[4] is None]
    assert [s[1] for s in roots] == ["bench.query", "bench.query"]
    assert sum(s[3] - s[2] for s in roots) == pytest.approx(wall, rel=1e-12)
    for qid, name, start, end, parent, own, leaves in t.spans:
        assert 0 <= own <= end - start
        if parent is not None:
            assert t.spans[parent][2] <= start <= end <= t.spans[parent][3]
    assert t.counts["rank_mismatch"] == 0


def test_clear_caches_empties_module_dicts_and_functools_caches(monkeypatch):
    import functools

    from bigrade import rings

    ring = rings.RingSpec(1, 1)
    homology.depth_module(homology.Subquotient.cyclic(rings.minimal_generators(ring, [(1, 1)])),
                          ring.all_vars())
    assert homology._depth_cache
    memo = functools.lru_cache(maxsize=None)(lambda x: x)
    memo(1)
    monkeypatch.setattr(rings, "memo_for_test", memo, raising=False)
    workloads.clear_caches()
    assert not homology._depth_cache
    assert memo.cache_info().currsize == 0


def test_oracle_flags_a_wrong_rank(monkeypatch):
    monkeypatch.setattr(kernels, "rank_char0", lambda matrix: 7)
    t = tracing.Tracer(oracle=True)
    t.install()
    try:
        t.begin_query("q")
        kernels.rank([[1, 0], [0, 1]])
        t.end_query()
    finally:
        t.uninstall()
    assert t.counts["rank_mismatch"] == 1
    assert t.mismatch_queries == {"q"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    printed = bench.end_to_end([0.01 * i for i in range(1, 101)], [0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in printed.items()}
    traced = bench.per_layer(tracing.Tracer(), 1.0, 1.0, [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in traced.items()}
