"""Acceptance gate: one test per criterion, each printing a single verdict line.

All checks are exact equalities; runtime budgets are asserted with a wall
clock.  The frozen expected values come from two independent routes: hand
computation on the worked examples and the brute-force oracle in
`bruteforce.py`.

The paper's two worked examples, the eight-generator ideal `EIGHT_GEN` and
the two-prime intersection `two_prime_ideal`, are defined here once, with
the generator helper `ideal`, and imported by every test module that uses
them.
"""

import inspect
import os
import random
import re
import time
from itertools import combinations_with_replacement, product

from bruteforce import bf_cech_piece, bf_grade_cd, bf_scan_degrees

import bigrade as bg
from bigrade.cli import main as cli_main
from bigrade.homology import Subquotient, cech_piece_dim
from bigrade.hypersurface import FactorProfile, classify, monomial_crosscheck
from bigrade.invariants import analyze, cd, grade, ordinary_depth
from bigrade.rings import RingSpec, associated_primes, intersect, minimal_generators
from bigrade.suite import random_ideal, run_property_suite

EIGHT_GEN = """ring 2 4
gens: x1*x2, x1*y3, x1*y4, x2*y1, y1*y3, y1*y4, y2*y4, y2*y3
"""


def ideal(ring, *gens):
    return minimal_generators(ring, gens)


def two_prime_ideal():
    """(x1,y1,y2) cap (x2,y3,y4) in K[x1,x2;y1..y4]."""
    r = RingSpec(2, 4)
    i1 = ideal(r, (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    i2 = ideal(r, (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    return r, intersect(i1, i2)


def _verdict(name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"acceptance {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_eight_generator_example():
    t0 = time.monotonic()
    ring, I = bg.parse_ideal_text(EIGHT_GEN)
    names = {
        frozenset(ring.var_name(i) for i in p) for p in associated_primes(I)
    }
    assert names == {
        frozenset({"x1", "y1", "y2"}),
        frozenset({"x2", "y3", "y4"}),
        frozenset({"x1", "y1", "y3", "y4"}),
    }
    rep = analyze(I, ring.y_block())
    assert (rep.grade, rep.mgrade) == (1, 1)
    assert rep.maximal_depth is True
    assert bg.sequentially_cm(I, ring.y_block())["verdict"] is False
    assert bg.generalized_cm(I, ring.y_block()) is False
    _verdict("1 eight-generator example", t0, 5)


def test_criterion_2_two_prime_intersection():
    t0 = time.monotonic()
    ring, I = two_prime_ideal()
    rep = analyze(I, ring.y_block())
    assert (rep.grade, rep.mgrade, rep.cd) == (1, 2, 2)
    h0 = bg.lc_report(I, 0, ring.y_block())
    assert h0.finitely_generated and h0.total_dim == 0
    h1 = bg.lc_report(I, 1, ring.y_block())
    assert h1.finitely_generated and h1.total_dim == 1
    h2 = bg.lc_report(I, 2, ring.y_block())
    assert not h2.finitely_generated and h2.total_dim is None
    assert any(e.witness_degree is not None for e in h2.per_fiber)
    assert bg.generalized_cm(I, ring.y_block()) is True
    triple = bg.corollary_check(I, ring.y_block())
    assert triple == {"max_depth": False, "seq_cm": False, "cm_wrt_axis": False}
    _verdict("2 two-prime intersection", t0, 10)


def test_criterion_3_four_variable_square():
    t0 = time.monotonic()
    r = RingSpec(2, 2)
    i1 = minimal_generators(r, [(1, 0, 0, 0), (0, 0, 1, 0)])
    i2 = minimal_generators(r, [(0, 1, 0, 0), (0, 0, 0, 1)])
    I = intersect(i1, i2)
    rep_q = analyze(I, r.y_block())
    rep_p = analyze(I, r.x_block())
    assert (rep_q.grade, rep_q.mgrade) == (1, 1)
    assert (rep_p.grade, rep_p.mgrade) == (1, 1)
    assert rep_q.dim == 2
    assert ordinary_depth(I) == 1
    assert rep_q.cm_ordinary is False

    v = classify(FactorProfile(((1, 1),)), r)
    assert (v.grade_Q, v.mgrade_Q, v.maximal_depth) == (1, 2, False)
    _verdict("3 four-variable square", t0, 2)


def test_criterion_4_property_suite():
    t0 = time.monotonic()
    result = run_property_suite(count=200, seed=20240811)
    assert result["count"] >= 190
    assert result["ok"], result["violations"]
    _verdict("4 property suite", t0, 300)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20240812)
    instances = 0
    while instances < 50:
        ring, I = random_ideal(rng, max_m=2, max_n=2, max_exp=2, max_gens=4)
        if I.is_unit:
            continue
        instances += 1
        Z = sorted(ring.y_block())
        N = Subquotient.cyclic(I)
        assert bf_grade_cd(ring.nvars, I.gens, Z) == (
            grade(N, ring.y_block()),
            cd(N, ring.y_block()),
        ), f"grade/cd mismatch on {I}"
        for i in range(len(Z) + 1):
            for c in bf_scan_degrees(ring.nvars, I.gens, Z):
                assert bf_cech_piece(ring.nvars, I.gens, Z, i, c) == cech_piece_dim(
                    N, ring.y_block(), i, c
                ), f"piece mismatch on {I} at i={i} c={c}"
    _verdict("5 oracle equivalence", t0, 300)


def test_criterion_6_hypersurface_exhaustive():
    t0 = time.monotonic()
    bidegs = [(a, b) for a, b in product(range(4), repeat=2) if a + b >= 1]
    rings = [RingSpec(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    for k in range(1, 5):
        for factors in combinations_with_replacement(bidegs, k):
            p = FactorProfile(factors)
            for ring in rings:
                v = classify(p, ring)
                assert v.maximal_depth == (p.b == 0 or p.beta2 > 0)
                if v.case_trace in ("case4", "case5"):
                    assert (v.grade_Q, v.mgrade_Q) == (ring.n - 1, ring.n)

    for m, n in product((1, 2, 3), repeat=2):
        ring = RingSpec(m, n)
        for f in product(range(4), repeat=m + n):
            if not any(f):
                continue
            assert monomial_crosscheck(f, ring), f"crosscheck failed on {f} in {ring}"
    _verdict("6 hypersurface exhaustive", t0, 60)


def test_criterion_7_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    path = tmp_path / "a.ideal"
    path.write_text(EIGHT_GEN)
    outputs = []
    for _ in range(3):
        code = cli_main(["analyze", str(path)])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]

    # canonical form is independent of generator order
    ring, I = bg.parse_ideal_text(EIGHT_GEN)
    shuffled = list(I.gens)
    rng = random.Random(9)
    for _ in range(10):
        rng.shuffle(shuffled)
        assert minimal_generators(ring, shuffled) == I
    with capsys.disabled():
        _verdict("7 determinism", t0, 60)


def _readme() -> str:
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_the_readme_library_sketch_runs():
    # README's "Library sketch" shows the library's calls; it runs as
    # written, so a signature it uses cannot change without it
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", _readme(), re.M | re.S).group(1)
    exec(compile(sketch, "<README library sketch>", "exec"), {})


def test_the_readme_table_lists_exactly_the_library_api():
    # `from bigrade import *` binds __all__, every other public name of the
    # package is a module, and README's API table has one line per name of
    # __all__, in its order
    star = {}
    exec("from bigrade import *", star)
    assert set(star) - {"__builtins__"} == set(bg.__all__)
    modules = {name for name, value in vars(bg).items() if inspect.ismodule(value)}
    assert {name for name in vars(bg) if not name.startswith("_")} - modules == set(bg.__all__)
    table = re.search(r"^## Library API\n(.*?)^## ", _readme(), re.M | re.S).group(1)
    assert re.findall(r"^\| `(\w+)` \|", table, re.M) == bg.__all__
