"""Independent monomial arithmetic and exact rank used to check bigrade's answers.

Nothing here imports bigrade: the answer checks and the rank-oracle pass must
not share code with the program they check.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FACTOR = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")


def parse_monomial(m: int, n: int, text: str) -> tuple:
    """Exponent vector of a rendered monomial such as ``x1^2*y3`` (``1`` is the unit)."""
    exps = [0] * (m + n)
    if text.strip() == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = _FACTOR.match(factor.strip())
        if not match:
            raise ValueError(f"bad factor {factor!r}")
        block, idx, exp = match.group(1), int(match.group(2)), int(match.group(3) or 1)
        pos = idx - 1 if block == "x" else m + idx - 1
        if not (0 <= pos < m + n) or (block == "x" and idx > m):
            raise ValueError(f"variable {factor!r} outside ring ({m}, {n})")
        exps[pos] += exp
    return tuple(exps)


def render_monomial(m: int, gen) -> str:
    parts = []
    for i, e in enumerate(gen):
        if e:
            name = f"x{i + 1}" if i < m else f"y{i - m + 1}"
            parts.append(name + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"


def ideal_text(m: int, n: int, gens) -> str:
    """The ideal-file form of a generator list."""
    return f"ring {m} {n}\ngens: " + ", ".join(render_monomial(m, g) for g in gens) + "\n"


def minimalize(gens) -> tuple:
    """Minimal generators, sorted: drop duplicates and every multiple of another generator."""
    gens = set(map(tuple, gens))
    return tuple(sorted(
        u for u in gens
        if not any(v != u and all(a <= b for a, b in zip(v, u)) for v in gens)
    ))


def intersect(a, b) -> tuple:
    """Minimal generators of the intersection of two monomial ideals (pairwise lcms)."""
    return minimalize(tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b)


def rank_fraction(matrix) -> int:
    """Rank over Q by Gaussian elimination in Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    return _eliminate(rows, lambda piv: 1 / piv, lambda x: x)


def rank_mod(matrix, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on Python ints, inverting with pow(x, -1, p)."""
    rows = [[int(x) % p for x in row] for row in matrix]
    return _eliminate(rows, lambda piv: pow(piv, -1, p), lambda x: x % p)


def _eliminate(rows, inverse, reduce) -> int:
    if not rows or not rows[0]:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        piv = rows[rank]
        inv = inverse(piv[c])
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = reduce(f * inv)
                rows[i] = [reduce(a - f * b) for a, b in zip(rows[i], piv)]
        rank += 1
    return rank
