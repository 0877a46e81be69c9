"""Maximal-depth classification of hypersurface rings S/(f).

Only the bidegrees of the bihomogeneous irreducible factors of f matter (the
user asserts irreducibility; coefficients are never touched).  Writing a_i for
the x-degree and b_i for the y-degree of a factor, the ring has maximal depth
with respect to the y-axis iff b = 0 or some factor is purely in the y-block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadProfile, BadRing, InternalCheckFailed, ParseError
from .homology import Subquotient
from .invariants import grade, mgrade
from .io_formats import content_lines, parse_int, parse_term
from .rings import Monomial, RingSpec, _integer, minimal_generators


@dataclass(frozen=True)
class FactorProfile:
    """Multiset of factor bidegrees (a_i, b_i), each nonzero.

    Each factor is a pair of integers (`rings._integer`), stored as a tuple
    of plain ints, as `RingSpec` stores its fields.
    """

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise BadProfile("need at least one factor")
        factors = []
        for factor in self.factors:
            try:
                a, b = factor
            except (TypeError, ValueError):
                raise BadProfile(f"factor {factor!r} is not a bidegree pair (a, b)") from None
            a, b = _integer(a, "a factor degree"), _integer(b, "a factor degree")
            if a < 0 or b < 0 or a + b < 1:
                raise BadProfile(f"factor bidegree ({a},{b}) must be nonzero and nonnegative")
            factors.append((a, b))
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def alpha1(self) -> int:
        return sum(a for a, b in self.factors if b == 0)

    @property
    def alpha2(self) -> int:
        return sum(a for a, b in self.factors if a > 0 and b > 0)

    @property
    def beta1(self) -> int:
        return sum(b for a, b in self.factors if a > 0 and b > 0)

    @property
    def beta2(self) -> int:
        return sum(b for a, b in self.factors if a == 0)

    @property
    def a(self) -> int:
        return self.alpha1 + self.alpha2

    @property
    def b(self) -> int:
        return self.beta1 + self.beta2


@dataclass(frozen=True)
class HypersurfaceVerdict:
    maximal_depth: bool
    case_label: str  # one of "a", "b", "c", "none"
    grade_Q: int
    mgrade_Q: int
    case_trace: str  # which proof case applied

    def __post_init__(self):
        ok = self.maximal_depth == (self.grade_Q == self.mgrade_Q) == (
            self.case_label in ("a", "b", "c")
        )
        if not ok:
            raise InternalCheckFailed("inconsistent verdict fields")


def classify(profile: FactorProfile, ring: RingSpec) -> HypersurfaceVerdict:
    """Theorem-based classification of S/(f) from the kinds of factor f has.

    A factor is pure-x (b = 0), mixed (a, b > 0) or pure-y (a = 0), and
    the verdict reads only which kinds occur: grade_Q = n - 1 iff b > 0, and
    mgrade_Q = n - 1 iff some factor is pure-y.  Without a mixed factor f
    splits into pure blocks (case c: "case3" when both blocks occur, else
    "pure-block"); with one, a pure-y factor gives case a ("case1") or b
    ("case2") as a pure-x factor occurs or not, and without a pure-y factor
    there is no maximal depth ("case4" with a pure-x factor, else "case5").
    """
    if ring.m < 1 or ring.n < 1:
        raise BadRing("the hypersurface classification needs m >= 1 and n >= 1")
    # a mixed factor has b > 0 as well as a > 0, so alpha2 > 0 iff beta1 > 0
    pure_x, mixed, pure_y = profile.alpha1 > 0, profile.alpha2 > 0, profile.beta2 > 0
    n = ring.n
    grade_q = n - 1 if profile.b > 0 else n
    mgrade_q = n - 1 if pure_y else n

    if not mixed:
        label, trace = "c", "case3" if pure_x and pure_y else "pure-block"
    elif pure_y:
        label, trace = ("a", "case1") if pure_x else ("b", "case2")
    else:
        label, trace = "none", "case4" if pure_x else "case5"

    return HypersurfaceVerdict(
        maximal_depth=(grade_q == mgrade_q),
        case_label=label,
        grade_Q=grade_q,
        mgrade_Q=mgrade_q,
        case_trace=trace,
    )


def profile_of_monomial(ring: RingSpec, f: Monomial) -> FactorProfile:
    """Each variable power of a monomial is one factor: x_i^e -> (e,0), y_j^e -> (0,e)."""
    if len(f) != ring.nvars:
        raise BadProfile(f"monomial {f} has wrong length for {ring}")
    factors = []
    for i, e in enumerate(f):
        if e == 0:
            continue
        factors.append((e, 0) if i < ring.m else (0, e))
    if not factors:
        raise BadProfile("the constant monomial is not a hypersurface")
    return FactorProfile(tuple(factors))


def monomial_crosscheck(f: Monomial, ring: RingSpec) -> bool:
    """Compare the theorem's verdict with the fiber engine on the monomial (f)."""
    profile = profile_of_monomial(ring, f)
    verdict = classify(profile, ring)
    I = minimal_generators(ring, [f])
    Z = ring.y_block()
    g = grade(Subquotient.cyclic(I), Z)
    mg = mgrade(I, Z)
    # the verdict ties maximal_depth to grade_Q == mgrade_Q itself
    return (verdict.grade_Q, verdict.mgrade_Q) == (g, mg)


def parse_profile(text: str, ring: RingSpec) -> FactorProfile:
    """Parse `factors: (a1,b1) (a2,b2) ...` with xN/yN shorthand for variables.

    An xN/yN token must name a variable of `ring`, read by the factor rule
    of `io_formats.parse_term` with its range messages; an exponent on it is
    refused.  The profile is one content line (`io_formats.content_lines`),
    and every error in it carries that line's number; the inline `--factors`
    text is line 1.
    """
    lines = list(content_lines(text))
    if len(lines) > 1:
        raise ParseError(
            f"unexpected line {lines[1][1]!r}", line=lines[1][0]
        )
    lineno, body = lines[0] if lines else (None, "")
    if body.startswith("factors:"):
        # the file form; --factors passes the bare list
        body = body[len("factors:"):].strip()
    if not body:
        raise ParseError("empty factor profile", line=lineno)

    factors = []
    for tok in body.split():
        if tok.startswith("(") and tok.endswith(")"):
            # each field is decimal digits only, as in the ring line: int()
            # alone would take "1_0" and "+1"
            fields = tok[1:-1].split(",")
            if len(fields) != 2 or not all(map(str.isdecimal, fields)):
                raise ParseError(f"bad bidegree {tok!r}", line=lineno)
            factors.append(tuple(parse_int(f, lineno) for f in fields))
        elif tok[0] in "xy" and tok[1:].isdecimal():
            parse_term(ring, tok, lineno)  # refuses a variable outside the ring
            factors.append((1, 0) if tok[0] == "x" else (0, 1))
        else:
            raise ParseError(f"bad factor token {tok!r}", line=lineno)
    return FactorProfile(tuple(factors))
