"""Depths and invariant reports of ideal families with known closed forms, at
sizes the brute-force references cannot reach."""

import json
import time
from math import ceil

import pytest

import bigrade
from bigrade.cli import main
from bigrade.invariants import analyze, ordinary_depth
from bigrade.io_formats import render_ideal
from bigrade.rings import RingSpec, associated_primes, dim_quotient, minimal_generators, var_power


def one_generator(k):
    """x1*...*xk in ring k 1: S/I is CM of depth k."""
    ring = RingSpec(k, 1)
    return minimal_generators(ring, [(1,) * k + (0,)]), k


def linear_generators(k):
    """(x1, ..., xk) in ring k 1: S/I is K[y1], of depth 1."""
    ring = RingSpec(k, 1)
    return minimal_generators(ring, [var_power(ring, i) for i in range(k)]), 1


def x1y1(k):
    """x1*y1 in ring k k: a hypersurface, of depth 2k - 1."""
    ring = RingSpec(k, k)
    return minimal_generators(ring, [tuple(int(v in (0, k)) for v in range(2 * k))]), 2 * k - 1


def edge_ideal(n, cycle):
    """The edge ideal of P_n or C_n, vertices 1..n//2 in the x-block, the rest in the y-block."""
    ring = RingSpec(n // 2, n - n // 2)
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if cycle else [])
    return minimal_generators(ring, [tuple(int(v in e) for v in range(n)) for e in edges])


FAMILIES = [one_generator, linear_generators, x1y1]

# the number of minimal vertex covers of P_n and C_n for n = 3..16: Padovan
# (OEIS A000931, offset 6) and Perrin (A001608) numbers
PATH_COVERS = (2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86)
CYCLE_COVERS = (3, 2, 5, 5, 7, 10, 12, 17, 22, 29, 39, 51, 68, 90)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_family_depths_up_to_forty(family):
    for k in range(1, 41):
        I, depth = family(k)
        assert ordinary_depth(I) == depth, (family.__name__, k)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_family_depth_at_forty_answers_within_half_a_second(family):
    bigrade.clear_caches()
    I, depth = family(40)
    start = time.perf_counter()
    assert ordinary_depth(I) == depth
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", range(3, 11))
def test_path_and_cycle_depths(n):
    # Morey (Comm. Algebra 38, 2010) and Cimpoeas (Rom. J. Math. Comput. Sci. 5, 2015)
    assert ordinary_depth(edge_ideal(n, cycle=False)) == ceil(n / 3)
    assert ordinary_depth(edge_ideal(n, cycle=True)) == ceil((n - 1) / 3)


@pytest.mark.parametrize("n", range(3, 17))
def test_path_and_cycle_dims_and_associated_primes(n):
    # dim is the largest independent set; Ass of a squarefree ideal is its
    # minimal primes, one per minimal vertex cover
    path, cycle = edge_ideal(n, cycle=False), edge_ideal(n, cycle=True)
    assert dim_quotient(path) == ceil(n / 2)
    assert dim_quotient(cycle) == n // 2
    assert len(associated_primes(path)) == PATH_COVERS[n - 3]
    assert len(associated_primes(cycle)) == CYCLE_COVERS[n - 3]


@pytest.mark.parametrize("command", ["analyze", "seqcm"])
@pytest.mark.parametrize("family", [one_generator, linear_generators], ids=lambda f: f.__name__)
def test_family_at_fourteen_answers_within_two_seconds(tmp_path, capsys, family, command):
    # x1*...*x14 and (x1, ..., x14) in ring 14 1, through the CLI from cold memos
    I, _ = family(14)
    path = tmp_path / "family.ideal"
    path.write_text(render_ideal(I))
    bigrade.clear_caches()
    start = time.perf_counter()
    assert main([command, str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    doc = json.loads(capsys.readouterr().out)
    if command == "analyze":
        assert (doc["grade"], doc["cd"], doc["mgrade"]) == (1, 1, 1)
        assert doc["maximal_depth"] and doc["cm_ordinary"]
    else:
        assert doc["verdict"]


@pytest.mark.parametrize("k", range(1, 11))
def test_family_reports_over_q(k):
    # over Q = the y-block; grade <= mgrade <= cd <= dim, maximal depth iff grade = mgrade
    I, _ = one_generator(k)
    rep = analyze(I, I.ring.y_block())
    assert (rep.grade, rep.cd, rep.mgrade, rep.dim) == (1, 1, 1, k)
    assert rep.maximal_depth and rep.cm_ordinary
    assert associated_primes(I) == {frozenset({i}) for i in range(k)}

    I, _ = linear_generators(k)
    rep = analyze(I, I.ring.y_block())
    assert (rep.grade, rep.cd, rep.mgrade, rep.dim) == (1, 1, 1, 1)

    I, _ = x1y1(k)
    rep = analyze(I, I.ring.y_block())
    assert (rep.grade, rep.cd, rep.mgrade, rep.dim) == (k - 1, k, k - 1, 2 * k - 1)
    assert rep.maximal_depth and not rep.cm_wrt_Z
