"""One-line faults that the tests must catch, each with the test that kills it.

Each entry names a text that occurs exactly once in the modules of
`src/bigrade`, so it names its module too, the text that replaces it, and
the node id of a Tier-1 test that fails on the result.  `test_mutants.py`
applies each one to a copy of the tree and runs that test there (opt-in:
`pytest -m mutants`).  A mutant whose answers
equal the correct code's, such as the depth-0 cap, is killed by a test that
counts work.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    killer: str  # node id of the test that fails on it


MUTANTS = [
    Mutant(
        "boundary sign",
        "mat[row][col] = (-1) ** pos",
        "mat[row][col] = 1",
        "tests/test_acceptance.py::test_criterion_4_property_suite",
    ),
    Mutant(
        "keep test of the term walk",
        "        if miss == full:\n            levels[len(sigma)]",
        "        if True:\n            levels[len(sigma)]",
        "tests/test_acceptance.py::test_criterion_2_two_prime_intersection",
    ),
    Mutant(
        "top Koszul index in depth",
        "[j for j, d in enumerate(dims) if d]",
        "[j for j, d in enumerate(dims[:-1]) if d]",
        "tests/test_homology.py::test_support_bound_depth_matches_box_scan_reference",
    ),
    Mutant(
        "once in ass_subquotients",
        "once = at1 & ~at2",
        "once = at1",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "cell length",
        "end - e if end else None",
        "end - e + 1 if end else None",
        "tests/test_acceptance.py::test_criterion_2_two_prime_intersection",
    ),
    Mutant(
        "local cohomology index rule without its integer test",
        '    i = _integer(i, "the local cohomology index")\n',
        "",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[cech_piece_dim_float_index]",
    ),
    Mutant(
        "GF(p) pivot inverse",
        "inv = pow(piv, -1, p)",
        "inv = piv",
        "tests/test_kernels.py::test_modp_rank_matches_gauss_jordan_oracle",
    ),
    Mutant(
        "rank without the characteristic rule",
        "if characteristic(char) == 0:",
        "if char == 0:",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[rank_float_zero]",
    ),
    Mutant(
        "divisor test of the one minimality pass turned round",
        "all(map(operator.le, v, u))",
        "all(map(operator.le, u, v))",
        "tests/test_rings.py::test_the_minimality_pass_keeps_a_repeated_monomial_once",
    ),
    Mutant(
        "restrict_ideal drops the generators supported on all of Z",
        "if support(g) <= Z]",
        "if support(g) < Z]",
        "tests/test_homology.py::test_restrict_ideal_matches_a_box_reference",
    ),
    Mutant(
        "count of negative degrees in growth",
        "            count *= r\n",
        "            count *= r + 1\n",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "bounded cell clipped at the radius in growth",
        "min(e + n - 1, r)",
        "(e + n - 1)",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "mgrade as max",
        'return ass_by_cd(I, _quotient_axis(I, Z, "mgrade"))[0][0]',
        'return ass_by_cd(I, _quotient_axis(I, Z, "mgrade"))[-1][0]',
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "classes of Ass sorted in descending order of cd",
        "for gamma in sorted(classes))",
        "for gamma in sorted(classes, reverse=True))",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "Ass(D_i) compared with the step's own class, not the running union",
        "expected |= primes",
        "expected = set(primes)",
        "tests/test_filtration.py::test_ladder_shape_two_component_ideal",
    ),
    Mutant(
        "depth-0 cap",
        "high = min(nvars - (low < nvars), len(I.gens))",
        "high = min(nvars, len(I.gens))",
        "tests/test_homology.py::test_depth_of_a_dense_draw_is_read_off_its_bounds",
    ),
    Mutant(
        "prod(lengths) in _lc_reports",
        "sum(d * prod(lengths) for",
        "sum(d for",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "bounded cell counted once, not d times, in _lc_reports",
        "sum(d * prod(lengths) for",
        "sum(prod(lengths) for",
        "tests/test_local_cohomology.py::test_a_cell_of_dimension_two_counts_twice_per_degree",
    ),
    Mutant(
        "witness taken from the last -1 cell in _lc_reports",
        "in column if None in lengths",
        "in column[::-1] if None in lengths",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "growth reads the column of the index below",
        "_fiber_table(fc.fiber)[i])",
        "_fiber_table(fc.fiber)[i - 1])",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "fiber table column keeps its zero cells",
        "            if d:\n                column.append",
        "            if True:\n                column.append",
        "tests/test_homology.py::test_fiber_tables_match_a_cech_complex_per_cell",
    ),
    Mutant(
        "report total summed without n_single",
        "sum(e.n_single * e.total_dim for e in per_fiber)",
        "sum(e.total_dim for e in per_fiber)",
        "tests/test_local_cohomology.py::test_cell_walks_match_box_walk_reference",
    ),
    Mutant(
        "depth stop",
        "if support <= projdim or projdim == high:",
        "if support <= projdim + 1 or projdim == high:",
        "tests/test_homology.py::test_support_bound_depth_matches_box_scan_reference",
    ),
    Mutant(
        "mod-p reduction",
        "_eliminate([[x % p for x in row] for row",
        "_eliminate([[x for x in row] for row",
        "tests/test_kernels.py::test_modp_rank_matches_gauss_jordan_oracle",
    ),
    Mutant(
        "Bareiss rescale of rows with a 0 in the pivot column",
        "elif piv != prev:",
        "elif False:",
        "tests/test_kernels.py::test_ranks_match_the_oracles_on_seeded_draws",
    ),
    Mutant(
        "row update of the other characteristic",
        "        if p:\n",
        "        if not p:\n",
        "tests/test_kernels.py::test_ranks_match_the_oracles_on_seeded_draws",
    ),
    Mutant(
        "composite characteristic accepted",
        " or (char > 1 and not _is_prime(char))",
        "",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message",
    ),
    Mutant(
        "J' bitset of a cell holds every generator of J'",
        "return jin, ((1 << len(N.Jp.gens)) - 1) ^ miss",
        "return jin, (1 << len(N.Jp.gens)) - 1",
        "tests/test_acceptance.py::test_criterion_1_eight_generator_example",
    ),
    Mutant(
        "cell fold drops the J' rows of every coordinate but the last",
        "        miss |= m\n",
        "        miss = m\n",
        "tests/test_homology.py::test_cell_bitsets_match_a_scan_of_the_generators",
    ),
    Mutant(
        "J row of a bounded cell taken from the cell below",
        "_corner_row(N.J.gens, N.Jp, k, e)[:2]",
        "(_corner_row(N.J.gens, N.Jp, k, e - 1)[0], _corner_row(N.J.gens, N.Jp, k, e)[1])",
        "tests/test_homology.py::test_cell_bitsets_match_a_scan_of_the_generators",
    ),
    Mutant(
        "Cech table given the rows of the next cell",
        "product(*([cell[i] for cell in axis] for axis in axes)) for i in range(3)",
        "product(*([cell[i] for cell in axis[i // 2:] + axis[:i // 2]] for axis in axes)) for i in range(3)",
        "tests/test_homology.py::test_fiber_tables_match_a_cech_complex_per_cell",
    ),
    Mutant(
        "per-ideal block test at a leaf of the Ass walk",
        "if jin & block:",
        "if jin:",
        "tests/test_local_cohomology.py::test_one_walk_gives_the_ass_of_every_ladder_step",
    ),
    Mutant(
        "keep test of the pure-power meet",
        "inside = any(g[i] >= a[i] for i in rad)",
        "inside = any(g[i] > a[i] for i in rad)",
        "tests/test_rings.py::test_a_pure_power_meet_is_the_intersection",
    ),
    Mutant(
        "ladder level met with the class one below",
        "reversed(classes[1:])",
        "reversed(classes[:-1])",
        "tests/test_filtration.py::test_the_chain_of_meets_gives_the_intersection_of_the_higher_components",
    ),
    # on an empty axis the cells inside I then form a second, zero class
    Mutant(
        "keep test of the fiber classes",
        "if key[0] != key[1]:",
        "if True:",
        "tests/test_local_cohomology.py::test_an_empty_axis_matches_the_box_walk_references",
    ),
    Mutant(
        "report writer keeps the keys in insertion order",
        "for k in sorted(value)]",
        "for k in value]",
        "tests/test_cli.py::test_the_writer_gives_the_bytes_of_json_dumps",
    ),
    Mutant(
        "report writer without its empty-list case",
        'if not value:\n            return "[]"',
        'if False:\n            return "[]"',
        "tests/test_cli.py::test_the_writer_gives_the_bytes_of_json_dumps",
    ),
    Mutant(
        "report writer escapes strings by repr",
        "_quote = json.encoder.encode_basestring_ascii",
        "_quote = repr",
        "tests/test_cli.py::test_the_writer_gives_the_bytes_of_json_dumps",
    ),
    Mutant(
        "seqCM verdict read off the last ladder step",
        "verdict = verdict and g == c",
        "verdict = g == c",
        "tests/test_filtration.py::test_a_step_that_is_not_cm_makes_the_seqcm_verdict_false",
    ),
    Mutant(
        "token route without the choices check",
        "if action.choices is not None and not all(",
        "if False and not all(",
        "tests/test_cli.py::test_the_token_route_matches_the_whole_tree_on_seeded_draws",
    ),
    Mutant(
        "token route without the type call",
        "s if action.type is None else action.type(s)",
        "s",
        "tests/test_cli.py::test_the_token_route_matches_the_whole_tree_on_seeded_draws",
    ),
    Mutant(
        "token route without the required-option check",
        "            if action.required:\n                return None",
        "            if False:\n                return None",
        "tests/test_cli.py::test_the_token_route_matches_the_whole_tree_on_seeded_draws",
    ),
    Mutant(
        "cell product refused past the bound no more",
        "    if cells > MAX_CELLS:\n",
        "    if False:\n",
        "tests/test_refusals.py::test_a_cell_product_past_the_bound_exits_3_before_it_is_built",
    ),
    Mutant(
        "cell fold keeps only the J' generators every coordinate misses",
        "miss |= m",
        "miss &= m",
        "tests/test_homology.py::test_cell_bitsets_match_a_scan_of_the_generators",
    ),
    Mutant(
        "Cech table walked past the bound",
        "if cells > MAX_CELLS:",
        "if cells > MAX_CELLS and not cech:",
        "tests/test_refusals.py::test_a_cech_table_at_the_bound_is_not_refused",
    ),
    Mutant(
        "Ass check run at index 0 too",
        "for j, _ in ass_by_cd(I, Z) if j)",
        "for j, _ in ass_by_cd(I, Z))",
        "tests/test_acceptance.py::test_criterion_4_property_suite",
    ),
    # on the suite's draws only ass_lc_not_fg catches it: the suite passes
    # with that check removed
    Mutant(
        "top local cohomology index reported finitely generated",
        "finitely_generated=fin_gen,",
        "finitely_generated=fin_gen or i == len(Z),",
        "tests/test_acceptance.py::test_criterion_4_property_suite",
    ),
    Mutant(
        "--axis default P in the subcommand table",
        'default="Q"',
        'default="P"',
        "tests/test_cli.py::test_every_subcommand_keeps_its_arguments",
    ),
    Mutant(
        "monomial rule without its nonnegative test",
        "    if u and min(u) < 0:\n",
        "    if False:\n",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[colon_negative]",
    ),
    Mutant(
        "Ass grouped by cd without its memo",
        "@lru_cache(maxsize=256)\ndef ass_by_cd(",
        "def ass_by_cd(",
        "tests/test_memo.py::test_ass_by_cd_is_grouped_once_per_ideal_and_axis",
    ),
    Mutant(
        "local cohomology index rule without the top index",
        "if not 0 <= i <= len(Z):",
        "if not 0 <= i < len(Z):",
        "tests/test_homology.py::test_cech_point_and_free_modules",
    ),
    # S/S then reaches the decomposition, which words its own refusal
    Mutant(
        "S/S-and-axis rule without its unit check",
        '    if I.is_unit:\n        raise UnitIdeal(f"{what} of the zero module")\n',
        "",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[mgrade_constancy]",
    ),
    Mutant(
        "factor bidegree without the integer rule",
        '            a, b = _integer(a, "a factor degree"), _integer(b, "a factor degree")\n',
        "",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[FactorProfile_float]",
    ),
    Mutant(
        "variable range of parse_term from 0",
        "if not 1 <= idx <= size:",
        "if not 0 <= idx <= size:",
        "tests/test_hypersurface.py::test_parse_profile",
    ),
    Mutant(
        "decomposition tests containment without the support pre-test",
        "not m & ~mask and ",
        "",
        "tests/test_rings.py::test_decomposition_cost_follows_the_components",
    ),
    Mutant(
        "meet_components without its radical filter",
        "        if rad in radicals:\n",
        "        if True:\n",
        "tests/test_rings.py::test_each_primary_component_meets_the_irreducible_components_of_its_radical",
    ),
    Mutant(
        "the meet of S with a component returns S",
        "return MonomialIdeal(I.ring, tuple(sorted(var_power(I.ring, i, a[i]) for i in rad)))",
        "return I",
        "tests/test_rings.py::test_a_pure_power_meet_is_the_intersection",
    ),
    Mutant(
        "primary component met from the previous radical's component, not from S",
        "meet_components(S, I, {rad})",
        "(S := meet_components(S, I, {rad}))",
        "tests/test_rings.py::test_each_primary_component_meets_the_irreducible_components_of_its_radical",
    ),
    Mutant(
        "the point ring K[] refused again",
        "if self.m < 0 or self.n < 0:",
        "if self.m < 0 or self.n < 0 or self.m + self.n < 1:",
        "tests/test_local_cohomology.py::test_an_empty_axis_matches_the_box_walk_references",
    ),
    # each theorem check made one-sided, so the fault its test injects no
    # longer fires it
    Mutant(
        "ladder check without strictness",
        "if not (upper.contains_ideal(lower) and upper != lower):",
        "if not upper.contains_ideal(lower):",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[ladder]",
    ),
    Mutant(
        "Ass(D_i) check fires on an extra prime only",
        "if actual != expected:",
        "if actual > expected:",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[ass_of_d]",
    ),
    Mutant(
        "Ass(M/D_i) check fires on an extra prime only",
        "if quotient_ass != ass_total - expected:",
        "if quotient_ass - (ass_total - expected):",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[ass_of_m_over_d]",
    ),
    Mutant(
        "Ass(D_i/D_(i-1)) check fires on an extra prime only",
        "if i > 0 and ass_subquotient(J_i, prev) != primes:",
        "if i > 0 and ass_subquotient(J_i, prev) > primes:",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[ass_of_step]",
    ),
    Mutant(
        "partition check fires on a missing prime only",
        "if seen != associated_primes(I):",
        "if seen - associated_primes(I):",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[partition]",
    ),
    Mutant(
        "step cd check fires below the ladder value only",
        "if c != gamma:",
        "if c < gamma:",
        "tests/test_filtration.py::test_each_theorem_check_of_the_filtration_fires_on_its_fault[step_cd]",
    ),
    Mutant(
        "corollary check never fires",
        "if len(set(triple.values())) != 1:",
        "if len(set(triple.values())) > 2:",
        "tests/test_local_cohomology.py::test_the_corollary_check_fires_when_its_statements_disagree",
    ),
    Mutant(
        "tensor check compares mgrade only",
        "if rep.maximal_depth != verdict or rep.grade != depth_y or rep.mgrade != mdepth_y:",
        "if rep.mgrade != mdepth_y:",
        "tests/test_invariants.py::test_each_theorem_check_of_tensor_verdict_fires_on_its_fault[invariants]",
    ),
    Mutant(
        "product Ass check fires on a missing prime sum only",
        "if associated_primes(I) != expected:",
        "if expected - associated_primes(I):",
        "tests/test_invariants.py::test_each_theorem_check_of_tensor_verdict_fires_on_its_fault[ass]",
    ),
    Mutant(
        "parse_ideal_text reads its lines before the characteristic",
        "    char = characteristic(char)\n",
        "",
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[parse_ideal_text_char_before_lines]",
    ),
    Mutant(
        "a property check that returns False goes unreported",
        "if value is False:",
        "if value is None:",
        "tests/test_suite.py::test_a_check_that_returns_false_is_reported",
    ),
    # the hypersurface cases, each one rule of classify
    Mutant(
        "a pure-y hypersurface labelled case3",
        '"case3" if pure_x and pure_y else "pure-block"',
        '"case3" if pure_y else "pure-block"',
        "tests/test_hypersurface.py::test_classify_matches_the_paper_cases_exhaustively",
    ),
    Mutant(
        "hypersurface cases 1 and 2 swapped",
        '("a", "case1") if pure_x else ("b", "case2")',
        '("b", "case2") if pure_x else ("a", "case1")',
        "tests/test_hypersurface.py::test_classify_matches_the_paper_cases_exhaustively",
    ),
    Mutant(
        "hypersurface mgrade read off b > 0",
        "mgrade_q = n - 1 if pure_y else n",
        "mgrade_q = n - 1 if profile.b > 0 else n",
        "tests/test_hypersurface.py::test_classify_matches_the_paper_cases_exhaustively",
    ),
    Mutant(
        "a mixed factor read as a pure-x one",
        "profile.alpha2 > 0,",
        "profile.alpha1 > 0,",
        "tests/test_hypersurface.py::test_classify_matches_the_paper_cases_exhaustively",
    ),
    # each entry point reads its axis once, by RingSpec.axis, and below it
    # only the checked frozenset
    Mutant(
        "the scans' refusal compares the raw Z as a set",
        "    Z = N.ring.axis(Z)\n    if Z != N.ring.all_vars():",
        "    Z = frozenset(Z)\n    if Z != N.ring.all_vars():",
        "tests/test_local_cohomology.py::test_an_axis_outside_the_ring_is_refused_cold_and_warm[betti_and_projdim]",
    ),
    Mutant(
        "depth_module refuses the raw Z, not its memo key",
        "Z = _refuse_scan(N, key[1])",
        "Z = _refuse_scan(N, Z)",
        "tests/test_local_cohomology.py::test_an_axis_is_read_once_as_a_set",
    ),
    Mutant(
        "betti_and_projdim scans the raw Z, not the checked axis",
        "    Z = _refuse_scan(N, Z)\n",
        "    _refuse_scan(N, Z)\n",
        "tests/test_local_cohomology.py::test_an_axis_is_read_once_as_a_set",
    ),
    Mutant(
        "analyze reads the raw Z below its axis rule",
        'Z = _quotient_axis(I, Z, "analyze")',
        '_quotient_axis(I, Z, "analyze")',
        "tests/test_local_cohomology.py::test_an_axis_is_read_once_as_a_set",
    ),
    Mutant(
        "sequentially_cm takes a step's grade along the raw Z",
        "g = grade(step, ladder.axis)",
        "g = grade(step, Z)",
        "tests/test_local_cohomology.py::test_an_axis_is_read_once_as_a_set",
    ),
    Mutant(
        "FactorProfile tests the factors it was given for emptiness, not the list it built",
        'if not factors:\n            raise BadProfile("need at least one factor")',
        'if not self.factors:\n            raise BadProfile("need at least one factor")',
        "tests/test_refusals.py::test_refusal_raises_its_class_and_message[FactorProfile_empty_iterator]",
    ),
]
