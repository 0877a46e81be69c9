"""One-line faults that the tests must catch, each with the test that kills it.

Each entry names a file under `src/bigrade`, a text that occurs there exactly
once, the text that replaces it, and the node id of a Tier-1 test that fails
on the result.  `test_mutants.py` applies each one to a copy of the tree and
runs that test there (opt-in: `pytest -m mutants`).  A mutant whose answers
equal the correct code's, such as the depth-0 cap, is killed by a test that
counts work.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/bigrade
    old: str
    new: str
    killer: str  # node id of the test that fails on it


MUTANTS = [
    Mutant(
        "boundary sign",
        "homology.py",
        "mat[row][col] = (-1) ** pos",
        "mat[row][col] = 1",
        "tests/test_acceptance.py::test_criterion_4_property_suite",
    ),
    Mutant(
        "keep test of the term walk",
        "homology.py",
        "            if miss == full:\n                levels[len(sigma)]",
        "            if True:\n                levels[len(sigma)]",
        "tests/test_acceptance.py::test_criterion_2_two_prime_intersection",
    ),
    Mutant(
        "top Koszul index in depth",
        "homology.py",
        "[j for j, d in enumerate(dims) if d]",
        "[j for j, d in enumerate(dims[:-1]) if d]",
        "tests/test_homology.py::test_support_bound_depth_matches_box_scan_reference",
    ),
    Mutant(
        "once in ass_subquotient",
        "homology.py",
        "once = at1 & ~at2",
        "once = at1",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "cell length",
        "homology.py",
        "cells += [(a, b - a) for a, b in zip(d, d[1:])]",
        "cells += [(a, b - a + 1) for a, b in zip(d, d[1:])]",
        "tests/test_acceptance.py::test_criterion_2_two_prime_intersection",
    ),
    Mutant(
        "GF(p) pivot inverse",
        "kernels.py",
        "inv = pow(piv, -1, p)",
        "inv = piv",
        "tests/test_kernels.py::test_modp_rank_matches_gauss_jordan_oracle",
    ),
    Mutant(
        "minimalization in _kept",
        "invariants.py",
        "if sel >> i & 1 and not below[i] & sel",
        "if sel >> i & 1",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "count of negative degrees in growth",
        "local_cohomology.py",
        "            count *= r\n",
        "            count *= r + 1\n",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "bounded cell clipped at the radius in growth",
        "local_cohomology.py",
        "min(e + n - 1, r)",
        "(e + n - 1)",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "mgrade as max",
        "invariants.py",
        "return min(cd_prime(p, Z) for p in associated_primes(I))",
        "return max(cd_prime(p, Z) for p in associated_primes(I))",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "depth-0 cap",
        "homology.py",
        "high = min(nvars - (low < nvars), len(I.gens))",
        "high = min(nvars, len(I.gens))",
        "tests/test_homology.py::test_depth_of_a_dense_draw_is_read_off_its_bounds",
    ),
    Mutant(
        "prod(lengths) in _fiber_lc",
        "local_cohomology.py",
        "total += d * prod(lengths)",
        "total += d",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "depth stop",
        "homology.py",
        "if support <= projdim or projdim == high:",
        "if support <= projdim + 1 or projdim == high:",
        "tests/test_homology.py::test_support_bound_depth_matches_box_scan_reference",
    ),
    Mutant(
        "mod-p reduction",
        "kernels.py",
        "rows = [[x % p for x in row] for row",
        "rows = [[x for x in row] for row",
        "tests/test_kernels.py::test_modp_rank_matches_gauss_jordan_oracle",
    ),
    Mutant(
        "Bareiss rescale of rows with a 0 in the pivot column",
        "kernels.py",
        "elif piv != prev:",
        "elif False:",
        "tests/test_kernels.py::test_ranks_match_the_oracles_on_seeded_draws",
    ),
]
