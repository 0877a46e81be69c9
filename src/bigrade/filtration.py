"""Dimension filtration with respect to an axis and sequential CM classification.

For S/I the filtration is realized by ideals: the i-th submodule D_i is
J_i/I where J_i intersects the irreducible components whose radical has cd
value above the i-th threshold, built as one chain of meets from S down.
The Ass-theoretic facts about the filtration are theorems, so they are
re-verified at runtime from independent enumeration: one corner walk over
I for the Ass of every D_i, and one per later step for Ass(D_i/D_(i-1)).
Each ladder is built and verified once per (I, Z) and kept in a bounded memo,
which every reader of the filtration shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalCheckFailed
from .homology import Subquotient, ass_subquotient, ass_subquotients
from .invariants import _quotient_axis, ass_by_cd, cd, cd_prime, grade
from .rings import MonomialIdeal, associated_primes, meet_components, unit_ideal


@dataclass(frozen=True)
class FiltrationLadder:
    """Ideals I = J_0 < J_1 < ... < J_r = S realizing D_i = J_i/I."""

    axis: frozenset
    ideals: tuple  # (J_0, ..., J_r)
    cd_values: tuple  # (gamma_1 < ... < gamma_r), gamma_i = cd(Z, J_i/I)

    @property
    def base(self) -> MonomialIdeal:
        return self.ideals[0]

    @property
    def steps(self):
        """(J_i, gamma_i) pairs for i = 1..r."""
        return list(zip(self.ideals[1:], self.cd_values))


def dimension_filtration(I: MonomialIdeal, Z) -> FiltrationLadder:
    """The ladder of S/I along Z, built and verified once per (I, Z).

    It is kept in a bounded memo, so every reader of the same (I, Z) gets the
    same immutable ladder.  For I = 0, Ass S = {(0)} and cd(Z, S) = |Z|, so
    the filtration of S along Z is 0 < S, the ladder ((0), S) with the one
    cd value |Z|.
    """
    return _ladder(I, _quotient_axis(I, Z, "filtration"))


@lru_cache(maxsize=256)
def _ladder(I: MonomialIdeal, Z: frozenset) -> FiltrationLadder:
    """The memo behind `dimension_filtration`.

    The gammas and their classes are those of `ass_by_cd`.  J_i meets the
    irreducible components of I whose radical has cd above gamma_i, so
    J_r = S and J_(i-1) is J_i met with the components whose radical is in
    the class of gamma_i.  The ladder is built as that one chain, from S
    down, one `rings.meet_components` call per class, so each component is
    met once; J_0 is I itself.
    """
    classes = ass_by_cd(I, Z)
    ideals = [unit_ideal(I.ring)]
    for _, primes in reversed(classes[1:]):
        ideals.append(meet_components(ideals[-1], I, primes))
    ideals = [I] + ideals[::-1]

    for lower, upper in zip(ideals, ideals[1:]):
        if not (upper.contains_ideal(lower) and upper != lower):
            raise InternalCheckFailed("filtration ladder is not strictly increasing")

    _verify_ass_facts(I, ideals[1:], classes)
    return FiltrationLadder(axis=Z, ideals=tuple(ideals), cd_values=tuple(g for g, _ in classes))


def _verify_ass_facts(I: MonomialIdeal, ideals, classes):
    """Runtime check of the filtration's Ass identities (they are theorems).

    `ideals` are the J_1..J_r of the ladder over I and `classes` its
    `ass_by_cd` classes, so Ass(J_i/I) is the union of the first i classes.
    Ass(J_i/I) of every step comes from one walk over the corners of I
    (`ass_subquotients`), and Ass(S/J_i) from the decomposition memo of J_i.
    """
    ass_total = associated_primes(I)
    expected = set()
    for J_i, (gamma, primes), actual in zip(ideals, classes, ass_subquotients(ideals, I)):
        expected |= primes
        if actual != expected:
            raise InternalCheckFailed(
                f"Ass(D_i) mismatch at cd {gamma}: computed {sorted(map(sorted, actual))}, "
                f"expected {sorted(map(sorted, expected))}"
            )
        if not J_i.is_unit:
            quotient_ass = associated_primes(J_i)
            if quotient_ass != ass_total - expected:
                raise InternalCheckFailed(f"Ass(M/D_i) mismatch at cd {gamma}")


def ass_quotients(ladder: FiltrationLadder) -> list:
    """Ass(D_i/D_{i-1}) per step: the Ass primes at exactly the step's cd value.

    Step i's primes are class i of `ass_by_cd`.  D_1/D_0 is D_1, whose Ass
    building the ladder compared with the first class; every later step is
    enumerated and compared here.  Each call returns fresh sets.
    """
    I = ladder.base
    classes = ass_by_cd(I, ladder.axis)
    seen = set()
    prev = I
    for i, ((J_i, gamma), (_, primes)) in enumerate(zip(ladder.steps, classes)):
        if i > 0 and ass_subquotient(J_i, prev) != primes:
            raise InternalCheckFailed(f"Ass(D_i/D_(i-1)) mismatch at cd {gamma}")
        seen |= primes
        prev = J_i
    if seen != associated_primes(I):
        raise InternalCheckFailed("step primes do not partition Ass(M)")
    return [set(primes) for _, primes in classes]


def sequentially_cm(I: MonomialIdeal, Z) -> dict:
    """Sequential CM test on the ladder of (I, Z): every step must have grade = cd.

    Z is read once, by `dimension_filtration`; each step's grade and cd
    read the ladder's checked axis.
    """
    ladder = dimension_filtration(I, Z)
    per_step = []
    verdict = True
    prev = I
    for J_i, gamma in ladder.steps:
        step = Subquotient(J_i, prev)
        g = grade(step, ladder.axis)
        c = cd(step, ladder.axis)
        if c != gamma:
            raise InternalCheckFailed(f"step cd {c} differs from ladder value {gamma}")
        per_step.append({"grade": g, "cd": c, "is_cm": g == c})
        verdict = verdict and g == c
        prev = J_i
    return {"verdict": verdict, "per_step": per_step}


def mgrade_constancy(I: MonomialIdeal, Z) -> bool:
    """All D_i on the ladder of (I, Z) share mgrade = gamma_1; False would signal a bug."""
    ladder = dimension_filtration(I, Z)
    gamma_1 = ladder.cd_values[0]
    primes = set()  # Ass(D_i): the union of the first i classes
    for _, step in ass_by_cd(I, ladder.axis):
        primes |= step
        if min(cd_prime(p, ladder.axis) for p in primes) != gamma_1:
            return False
    return True
