"""Seeded random regression suite over small monomial ideals.

Each check is a theorem from the underlying theory; any violation indicates a
bug, so the suite reports violating ideals rather than raising mid-run.  Used
both by `bigrade suite` and the acceptance tests.

Every check that reads the dimension filtration gets the one memoized ladder
of (I, Q).  When building it fails, the failure is recorded and only the
checks that need the ladder are skipped.
"""

from __future__ import annotations

import random

from .errors import InternalCheckFailed
from .filtration import ass_quotients, dimension_filtration, mgrade_constancy, sequentially_cm
from .homology import Subquotient
from .invariants import analyze, ass_by_cd, cd, grade
from .local_cohomology import corollary_check, generalized_cm, lc_report
from .rings import (
    MonomialIdeal,
    RingSpec,
    associated_primes,
    dim_quotient,
    minimal_generators,
    prime_ideal,
    sum_ideal,
)


def random_ideal(rng: random.Random, max_m=3, max_n=3, max_exp=2, max_gens=6,
                 char=0) -> tuple[RingSpec, MonomialIdeal]:
    """(ring, I): a random small bigraded ring and a proper nonzero monomial ideal of it."""
    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        ring = RingSpec(m, n, char)
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(
                rng.choice([0, 0, 1, rng.randint(1, max_exp)])
                for _ in range(m + n)
            )
            if any(g):
                gens.append(g)
        if gens:
            return ring, minimal_generators(ring, gens)


def check_instance(ring: RingSpec, I: MonomialIdeal) -> list:
    """All property checks on one ideal; returns the names of failed checks.

    The invariants the checks read (the reports of `analyze`, cd over P, the
    generalized-CM verdict and the nonvanishing of local cohomology) are
    computed under names of their own: when one of them raises
    InternalCheckFailed, its name is recorded and only the checks that read
    it are skipped.
    """
    failures = []
    Z = ring.y_block()
    P = ring.x_block()

    def compute(name, fn):
        """fn's value; None, with `name` recorded, when fn raises InternalCheckFailed."""
        try:
            return fn()
        except InternalCheckFailed:
            failures.append(name)
            return None

    def run(name, fn):
        """Like `compute`, and a value of False is recorded as a failure too."""
        value = compute(name, fn)
        if value is False:
            failures.append(name)
            return None
        return value

    rep = compute("analyze_Q", lambda: analyze(I, Z))  # asserts the invariant chain
    cd_P = compute("cd_P", lambda: cd(Subquotient.cyclic(I), P))
    ass = associated_primes(I)

    if rep is not None:
        # cd(Q, S/I) = dim S/(P+I)
        PI = sum_ideal(I, prime_ideal(ring, P))
        run("cd_eq_dim_mod_P", lambda: rep.cd == (0 if PI.is_unit else dim_quotient(PI)))

        # grade(Q) <= dim - cd(P), with equality for Cohen-Macaulay modules
        if cd_P is not None:
            run("grade_le_dim_minus_cd_opposite", lambda: rep.grade <= rep.dim - cd_P)
            if rep.cm_ordinary:
                run("grade_eq_dim_minus_cd_when_cm", lambda: rep.grade == rep.dim - cd_P)

        # grade 0 iff some associated prime contains the whole axis
        run("grade0_iff_ass_contains_axis", lambda: (rep.grade == 0) == any(Z <= p for p in ass))

        # mgrade(Q) = n - (max y-height over Ass)
        run(
            "mgrade_from_ass_heights",
            lambda: rep.mgrade == ring.n - max(len(p & Z) for p in ass),
        )

        # grade/mgrade degeneracies
        run("mgrade1_forces_grade1", lambda: rep.mgrade != 1 or rep.grade == 1)
        run("grade0_iff_mgrade0", lambda: (rep.grade == 0) == (rep.mgrade == 0))

    # the ladder's Ass identities and step partition are asserted inside
    ladder = run("ladder_ass_identities", lambda: dimension_filtration(I, Z))
    if ladder is not None:
        run("step_ass_partition", lambda: ass_quotients(ladder) is not None)

        # sequentially_cm asserts that each step's cd is its ladder value
        seq = run("seqcm_step_cd", lambda: sequentially_cm(I, Z))
        if seq is not None and rep is not None:
            run("seqcm_implies_maxdepth", lambda: not seq["verdict"] or rep.maximal_depth)
        run("ladder_mgrade_constant", lambda: mgrade_constancy(I, Z))
        if seq is not None and seq["verdict"] and rep is not None:
            run(
                "seqcm_step_grades",
                lambda: all(
                    grade(Subquotient(J_i, I), Z) == rep.grade
                    for J_i, _ in ladder.steps
                ),
            )

    if rep is not None:
        # ordinary CM implies maximal depth w.r.t. both axes
        if rep.cm_ordinary:
            rep_P = compute("analyze_P", lambda: analyze(I, P))
            if rep_P is not None:
                run(
                    "cm_implies_maxdepth_both_axes",
                    lambda: rep.maximal_depth and rep_P.maximal_depth,
                )

        # the three-way equivalence on the generalized-CM, positive-grade subsample
        if rep.grade > 0 and compute("generalized_cm_Q", lambda: generalized_cm(I, Z)):
            run("gencm_triple_equivalence", lambda: corollary_check(I, Z) is not None)

    # cross-module consistency: grade and cd from lc_report nonvanishing
    nonzero = compute(
        "lc_report_Q",
        lambda: [i for i in range(ring.n + 1) if lc_report(I, i, Z).total_dim != 0],
    )
    if nonzero is not None and rep is not None:
        run(
            "lc_grade_cd_match",
            lambda: bool(nonzero) and nonzero[0] == rep.grade and nonzero[-1] == rep.cd,
        )
    run("ass_lc_not_fg", lambda: _ass_lc_not_fg(I, Z))

    return failures


def _ass_lc_not_fg(I: MonomialIdeal, Z) -> bool:
    """H^j_Z(S/I) is not finitely generated at each j = |Z \\ p| > 0, p in Ass(S/I).

    This covers the paper's theorem, H^grade_Z(S/I) not finitely generated
    under maximal depth with grade > 0, as there grade = mgrade, the least
    cd(Z, S/p) = |Z \\ p| over Ass; and the top index, as cd(Z, S/I) is the
    largest.  Each j reads the `_lc_reports` memo of (I, Z), which the
    suite's `lc_report_Q` fills anyway.

    The proof holds for every monomial I.  Let q = (x_k^a_k : k in p) be a
    component of the irredundant irreducible decomposition of I
    (`rings._decomposition`), with radical p, and F = Z \\ p nonempty.

    1. (I : x^w) = p, where w_k = a_k - 1 on p and w_k = b_k off p, b the
       lcm box of the generators of I.  On p, w_k < a_k, so x^w is not in
       q, and x_k x^w is in q.  Another component q' = (x_k^c_k : k in p')
       does not lie in q, or q would be redundant, so some k in p' has k
       not in p or c_k < a_k.  Either way c_k <= w_k (c_k <= b_k, as every
       component exponent is a generator exponent), so x^w is in q'.  Hence
       (I : x^w) = (q : x^w) = p.
    2. Take a fine degree d with d_k < 0 on F and d_k = w_k elsewhere.  The
       Cech term of a set s of Z-variables at d is (S/I) localized at x_s,
       in degree d.  It is 0 unless s holds F, as S/I is 0 at a negative
       coordinate outside s.  For s holding F it is K iff x^w times a power
       of x_s, of any size, is outside I.  For s = F it is: x_F^N is not in
       (I : x^w) = p, as F misses p.  For s holding some k in Z and p it is
       not: a large power of x_s makes the monomial a multiple of x_k x^w,
       which lies in I.  So s = F is the only nonzero term, and
       H^|F|_Z(S/I) is K in degree d.
    3. A finitely generated graded module is 0 in every degree that lies
       below the degrees of all its generators at some coordinate, so at
       every d with d_F low enough.  The degrees of 2. reach every d_F < 0,
       so H^|F|_Z(S/I) is not finitely generated.
    """
    return not any(lc_report(I, j, Z).finitely_generated for j, _ in ass_by_cd(I, Z) if j)


def run_property_suite(count=200, seed=20240811, char=0) -> dict:
    rng = random.Random(seed)
    instances = [random_ideal(rng, char=char) for _ in range(count)]

    violations = {}
    for ring, I in instances:
        for name in check_instance(ring, I):
            violations.setdefault(name, []).append(f"ring {ring.m} {ring.n}: {I}")
    return {
        "count": len(instances),
        "seed": seed,
        "violations": violations,
        "ok": not violations,
    }
