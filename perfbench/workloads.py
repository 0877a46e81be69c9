"""The four workloads: seeded query generators, query execution and answer checks.

A query is a plain dict (ring shape, generators, workload extras) so the
corpus can store it as JSON.  ``run_query`` executes one query against the
library or the in-process CLI and returns what it printed or returned;
``check_answer`` compares that with the expected answers of the corpus and
with checks computed by this package's own code.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import algebra

WORKLOADS = ("suite", "exponents", "decompose", "charp")

# why each workload exists; BENCHMARK.json carries the same sentences
WHY = {
    "suite": "property-suite ideals through check_instance: the balanced mix of Koszul scan, decomposition and rank",
    "exponents": "ideals scaled x_i -> x_i^k through the CLI: cost follows exponent size, via the box Koszul scan and fibers",
    "decompose": "squarefree 6-variable ideals through decompose, filtration and seqcm: minimal_generators inside decomposition dominates",
    "charp": "suite-sized ideals through analyze and lc over GF(p): the only load on rank_mod_p and RingSpec prime checks",
}

PRIMES = (2, 32003, 2147483647, 4294967311)
PRIME_WEIGHTS = (50, 38, 7, 5)


def _suite_ideal(rng: random.Random, max_m=3, max_n=3, max_exp=2, max_gens=6):
    """The property suite's distribution: m, n <= 3, exponents <= 2, <= 6 generators."""
    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(rng.choice([0, 0, 1, rng.randint(1, max_exp)]) for _ in range(m + n))
            if any(g):
                gens.append(g)
        if gens:
            return m, n, algebra.minimalize(gens)


def _exponents_query(rng: random.Random):
    m, n = rng.choice([(2, 2), (1, 2), (2, 1)])
    while True:
        gens = [
            tuple(rng.choice([0, 0, 1, rng.randint(1, 2)]) for _ in range(m + n))
            for _ in range(rng.randint(1, 4))
        ]
        base = algebra.minimalize(g for g in gens if any(g))
        if base:
            break
    k = rng.randint(1, 7)
    scaled = algebra.minimalize(tuple(e * k for e in g) for g in base)
    return {"m": m, "n": n, "gens": scaled, "k": k, "base": base}


def _decompose_query(rng: random.Random):
    """Mostly squarefree: 5 to 7 products of 2 or 3 variables in K[x1..x3, y1..y3]."""
    while True:
        gens = []
        for _ in range(rng.randint(5, 7)):
            g = [0] * 6
            for v in rng.sample(range(6), rng.choice((2, 2, 3))):
                g[v] = 1
            if rng.random() < 0.1:
                g[rng.randrange(6)] = 2
            gens.append(tuple(g))
        gens = algebra.minimalize(gens)
        if len(gens) >= 4:
            return {"m": 3, "n": 3, "gens": gens}


def generate(workload: str, seed: int, count: int) -> list:
    """``count`` queries of ``workload``; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for qid in range(count):
        if workload == "exponents":
            q = _exponents_query(rng)
        elif workload == "decompose":
            q = _decompose_query(rng)
        else:
            m, n, gens = _suite_ideal(rng)
            q = {"m": m, "n": n, "gens": gens}
            if workload == "charp":
                q["p"] = rng.choices(PRIMES, weights=PRIME_WEIGHTS)[0]
        q["gens"] = [list(g) for g in q["gens"]]
        if "base" in q:
            q["base"] = [list(g) for g in q["base"]]
        q["id"] = f"{workload}-{seed}-{qid}"
        out.append(q)
    return out


def commands(workload: str, q: dict, path: str, char=None) -> list:
    """CLI argument lists one query runs, in order (empty for the library workload)."""
    if workload == "exponents":
        return (
            [["analyze", path]]
            + [["lc", path, "--i", str(i)] for i in range(q["n"] + 1)]
            + [["growth", path, "--i", "1"], ["seqcm", path]]
        )
    if workload == "decompose":
        return [["decompose", path], ["filtration", path], ["seqcm", path]]
    if workload == "charp":
        p = str(q["p"] if char is None else char)
        return [["analyze", path, "--char", p]] + [
            ["lc", path, "--i", str(i), "--char", p] for i in range(q["n"] + 1)
        ]
    return []


def bigrade_modules() -> dict:
    return {
        name: mod for name, mod in sys.modules.items()
        if (name == "bigrade" or name.startswith("bigrade.")) and mod is not None
    }


def clear_caches():
    """Empty bigrade's module-level caches, so every query starts cold, as a CLI call does.

    Clears each module-level dict whose name ends in ``cache`` and each
    module-level function with a ``cache_clear`` method (functools caches),
    also when a tracing wrapper stands in front of it.
    """
    for mod in bigrade_modules().values():
        for attr, val in vars(mod).items():
            if isinstance(val, dict) and attr.endswith("cache"):
                val.clear()
            for fn in (val, getattr(val, "__wrapped__", None)):
                clear = getattr(fn, "cache_clear", None)
                if callable(clear):
                    clear()


def run_cli(argv) -> tuple:
    """Run bigrade.cli.main in-process; returns (exit code, stdout)."""
    from bigrade.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def run_query(workload: str, q: dict, path: str, char=None):
    """Execute one query; returns its raw answer.

    suite: the list of violated theorems from ``check_instance``.
    CLI workloads: one ``[exit code, stdout]`` pair per command.
    Exceptions propagate: the caller counts them as failures.
    """
    if workload == "suite":
        from bigrade.rings import RingSpec, minimal_generators
        from bigrade.suite import check_instance

        ring = RingSpec(q["m"], q["n"])
        return list(check_instance(ring, minimal_generators(ring, q["gens"])))
    return [list(run_cli(argv)) for argv in commands(workload, q, path, char)]


def key(argv) -> str:
    """Command key of an argument list, without the file path."""
    return " ".join(a for i, a in enumerate(argv) if i != 1)


def invariant_fields(q: dict, answer) -> dict:
    """The fields of an ``exponents`` answer that scaling x_i -> x_i^k must preserve."""
    outs = dict(zip((key(a) for a in commands("exponents", q, "-")), (o for _, o in answer)))
    rep = json.loads(outs["analyze"])
    fields = {f: rep[f] for f in (
        "grade", "cd", "mgrade", "dim", "maximal_depth", "witness_prime",
        "cm_wrt_axis", "cm_ordinary",
    )}
    fields["seqcm"] = json.loads(outs["seqcm"])["verdict"]
    fields["fg"] = [
        json.loads(outs[f"lc --i {i}"])["finitely_generated"] for i in range(q["n"] + 1)
    ]
    return fields


def check_answer(workload: str, q: dict, answer, expected: dict) -> list:
    """Problems with one answer, as (kind, message) pairs; empty when it is right.

    kind is "error" when the program reported the failure itself (a nonzero
    exit) and "wrong" when it answered wrongly.  ``expected`` is the query's
    corpus record: ``violations`` for suite, ``outputs`` (command key ->
    stdout) for the CLI workloads, and ``base_fields`` for exponents.
    """
    if workload == "suite":
        return [("wrong", f"violated theorems: {answer}")] if answer != expected["violations"] else []
    problems = []
    for argv, (rc, out) in zip(commands(workload, q, "-"), answer):
        k = key(argv)
        if rc != 0:
            problems.append(("error", f"{k}: exit {rc}: {out.strip()}"))
        elif out != expected["outputs"].get(k):
            problems.append(("wrong", f"{k}: stdout differs from the expected output"))
    if problems:
        return problems
    if workload == "exponents":
        got = invariant_fields(q, answer)
        if got != expected["base_fields"]:
            problems.append(("wrong", f"invariants {got} differ from the unscaled base {expected['base_fields']}"))
    elif workload == "decompose":
        problems += [("wrong", p) for p in check_decomposition(q, json.loads(answer[0][1]))]
    return problems


def check_decomposition(q: dict, doc: dict) -> list:
    """The irreducible components must be pure powers and intersect to the ideal."""
    m, n = q["m"], q["n"]
    comps = [
        [algebra.parse_monomial(m, n, g) for g in c["gens"]]
        for c in doc["irreducible_components"]
    ]
    problems = []
    if any(sum(1 for e in g if e) != 1 for c in comps for g in c):
        problems.append("an irreducible component has a generator that is not a pure power")
    if not comps:
        return problems + ["no irreducible components"]
    acc = algebra.minimalize(comps[0])
    for c in comps[1:]:
        acc = algebra.intersect(acc, c)
    if acc != algebra.minimalize(map(tuple, q["gens"])):
        problems.append("the irreducible components do not intersect to the ideal")
    return problems
