"""Text formats: the ideal file and canonical rendering.

Ideal file (UTF-8, with or without a byte order mark):

    # comment
    ring 2 4
    gens: x1*x2, x1*y3, y2^2

`ring m n` fixes the variable split; the gens line lists `*`-separated
variable powers (`^1` optional, `1` for the unit ideal, empty for (0)).
"""

from __future__ import annotations

import functools
import re

from .errors import ParseError
from .rings import MonomialIdeal, RingSpec, characteristic, minimal_generators, render_monomial

_FACTOR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")


def content_lines(text: str):
    """(line number, content) of each line of text that holds more than a
    comment: a `#` starts a comment, content is stripped, lines count from 1.
    The ideal file and the hypersurface profile read their lines this way."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_int(digits: str, lineno=None) -> int:
    """int(digits) for a literal of decimal digits, or a ParseError where it
    has more digits than the interpreter converts (`sys.get_int_max_str_digits`)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", line=lineno) from None


def parse_term(ring: RingSpec, term: str, lineno=None):
    term = term.strip()
    if term == "1":
        return (0,) * ring.nvars
    exps = [0] * ring.nvars
    for factor in term.split("*"):
        factor = factor.strip()
        mt = _FACTOR_RE.match(factor)
        if not mt:
            raise ParseError(f"bad factor {factor!r} in term {term!r}", line=lineno)
        block, idx = mt.group(1), parse_int(mt.group(2), lineno)
        exp = parse_int(mt.group(3) or "1", lineno)
        size, first, name = (ring.m, 0, "m") if block == "x" else (ring.n, ring.m, "n")
        if not 1 <= idx <= size:
            raise ParseError(f"{block}{idx} out of range ({name}={size})", line=lineno)
        exps[first + idx - 1] += exp
    return tuple(exps)


def parse_ideal_text(text: str, char: int = 0):
    """Parse the ideal file format; returns (RingSpec, MonomialIdeal).

    `char` is read by `rings.characteristic` before the memo and before any
    line of the text, so a bad one raises its `ValueError`, as `RingSpec`
    does, names no line, and is refused warm as cold: 2.0 is refused after
    a parse at 2, though it equals 2 and hashes alike.  The memo is keyed on
    (text, the checked characteristic): equal texts give the same ring and
    ideal objects, so every memo keyed on them hits by identity.  Both are
    frozen, and an error is raised again on every call, never kept."""
    return _parse_ideal_text(text, characteristic(char))


@functools.lru_cache(maxsize=256)
def _parse_ideal_text(text: str, char: int):
    """The memo behind `parse_ideal_text`; char is already read."""
    ring = gens = None
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "ring":
            if ring is not None:
                raise ParseError("second ring line", line=lineno)
            if len(parts) != 3 or not all(p.isdecimal() for p in parts[1:]):
                raise ParseError(f"bad ring line {line!r}", line=lineno)
            # decimal fields give m, n >= 0, and char is already read
            ring = RingSpec(parse_int(parts[1], lineno), parse_int(parts[2], lineno), char)
        elif line.startswith("gens:"):
            if ring is None:
                raise ParseError("gens before ring line", line=lineno)
            if gens is not None:
                raise ParseError("second gens line", line=lineno)
            gens = []
            body = line[len("gens:"):].strip()
            if body:
                for term in body.split(","):
                    gens.append(parse_term(ring, term, lineno))
        else:
            raise ParseError(f"unexpected line {line!r}", line=lineno)
    if ring is None:
        raise ParseError("missing ring line")
    if gens is None:
        raise ParseError("missing gens line")
    return ring, minimal_generators(ring, gens)


def read_text(path: str) -> str:
    """The text of an input file: its bytes decoded once as UTF-8, after an
    optional byte order mark.  Bytes that are not UTF-8, a cut-off byte
    order mark among them, raise `UnicodeDecodeError`."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8-sig")


def parse_ideal_file(path: str, char: int = 0):
    """Read the file on every call and parse its text through the memo."""
    return parse_ideal_text(read_text(path), char=char)


def render_ideal(I: MonomialIdeal) -> str:
    """Canonical ideal file text; parse(render(I)) == I."""
    ring = I.ring
    gens = ", ".join(render_monomial(ring, g) for g in I.gens)
    return f"ring {ring.m} {ring.n}\ngens: {gens}\n"
