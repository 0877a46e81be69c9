"""Exact matrix rank over Q and over GF(p), in plain Python integers.

All homology in this package reduces to ranks of small integer matrices with
entries 0/+-1.  One elimination loop serves every characteristic: per column
it finds a pivot, swaps it up and clears the rows below with the
characteristic's own row update.  Characteristic 0 is fraction-free Bareiss
elimination: every intermediate entry is a minor of the input, so Python's
unbounded ints keep it exact whatever its size.  Characteristic p scales the
pivot row by the pivot's inverse ``pow(piv, -1, p)``; entries stay reduced
mod p, so no prime is too large.  The modulus is read by the characteristic
rule of `rings.characteristic`, the one `RingSpec` uses.

Matrices are sequences of equal-length rows of integers: lists or tuples of
any entries ``operator.index`` accepts (ints, bools, numpy integers).  Floats
and strings are refused, not truncated.
"""

from __future__ import annotations

import operator

from .rings import characteristic


def _int_rows(matrix, name) -> list:
    """A fresh list of int rows; ValueError unless `matrix` is 2-d, rectangular, integer."""
    try:
        rows = [list(map(operator.index, row)) for row in matrix]
    except TypeError:
        raise ValueError(f"{name} expects a 2-d matrix of integers") from None
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"{name} expects a rectangular matrix")
    return rows


def _eliminate(rows, p: int) -> int:
    """Rank of `rows` (int rows, reduced mod p for a prime p) over Q if p is 0,
    else over GF(p); the rows are overwritten."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for c in range(ncols):
        for i in range(rank, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        piv = rows[rank][c]
        tail = rows[rank][c + 1:]
        # only columns right of c are read again
        if p:
            if piv != 1:
                inv = pow(piv, -1, p)
                tail = [y * inv % p for y in tail]
            for i in range(rank + 1, nrows):
                row = rows[i]
                f = row[c]
                if f:
                    row[c + 1:] = [(x - f * y) % p for x, y in zip(row[c + 1:], tail)]
        else:
            # Bareiss: the division by the previous pivot is exact
            for i in range(rank + 1, nrows):
                row = rows[i]
                q = row[c]
                if q:
                    row[c + 1:] = [(x * piv - q * y) // prev for x, y in zip(row[c + 1:], tail)]
                elif piv != prev:
                    row[c + 1:] = [x * piv // prev for x in row[c + 1:]]
            prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_char0(matrix) -> int:
    """Exact rank over Q of an integer matrix."""
    return _eliminate(_int_rows(matrix, "rank_char0"), 0)


def rank_mod_p(matrix, p: int) -> int:
    """Rank over the prime field GF(p) of an integer matrix; `p` must be a
    prime that `RingSpec` accepts as a characteristic."""
    p = characteristic(p)
    if not p:
        raise ValueError(f"p must be prime, got {p}")
    return _eliminate([[x % p for x in row] for row in _int_rows(matrix, "rank_mod_p")], p)


def rank(matrix, char: int = 0) -> int:
    """Rank over Q (char 0) or GF(char); `char` is read by the characteristic
    rule, so 0.0 is refused as 3.0 is."""
    if characteristic(char) == 0:
        return rank_char0(matrix)
    return rank_mod_p(matrix, char)
