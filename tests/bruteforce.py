"""Independent brute-force oracles: local cohomology of S/I and the Betti scan.

The local cohomology oracle deliberately shares no code with the package: its
own divisibility, its own Cech complex built from literal large exponents (no
capped-class reasoning), and exact ranks over the rationals via Fraction
elimination.  Slow and only usable on tiny inputs, which is the point.

The Betti scan reference walks the whole exponent box plus a shell, doubling
the box where the shell is hit.  It reuses the package's per-degree Koszul
dimensions (in the ring's characteristic) and checks only which degrees the
lcm-lattice scan may skip.
"""

from fractions import Fraction
from itertools import combinations, product

from bigrade.errors import InternalCheckFailed
from bigrade.homology import koszul_dims_at


def bf_divides(g, u):
    return all(a <= b for a, b in zip(g, u))


def bf_in_ideal(u, gens):
    return any(bf_divides(g, u) for g in gens)


def bf_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _localized_member(u, sigma, gens, big):
    """u * (product of sigma vars)^big lies in the ideal, big large enough to stabilize."""
    v = tuple(e + (big if k in sigma else 0) for k, e in enumerate(u))
    return bf_in_ideal(v, gens)


def bf_cech_piece(nvars, gens, zvars, i, c):
    """dim_K of degree c of H^i of the Cech complex of S/I on the variables zvars.

    The term for sigma is S/I localized at prod(sigma); its degree-c piece is
    K iff c is nonnegative off sigma and the shifted monomial stays outside I
    after clearing denominators.
    """
    zvars = sorted(zvars)
    k = len(zvars)
    if not (0 <= i <= k):
        return 0
    c = tuple(c)
    zset = set(zvars)
    if any(e < 0 for idx, e in enumerate(c) if idx not in zset):
        return 0
    big = sum(max(g) for g in gens) + sum(abs(e) for e in c) + 5 if gens else (
        sum(abs(e) for e in c) + 5
    )

    def term_nonzero(sigma):
        sset = set(sigma)
        if any(c[idx] < 0 for idx in zvars if idx not in sset):
            return False
        shifted = tuple(e + (big if idx in sset else 0) for idx, e in enumerate(c))
        if any(e < 0 for e in shifted):
            return False
        return not bf_in_ideal(shifted, gens)

    levels = {}
    for j in (i - 1, i, i + 1):
        if 0 <= j <= k:
            levels[j] = [s for s in combinations(zvars, j) if term_nonzero(s)]
        else:
            levels[j] = []

    def diff_matrix(src, dst):
        rows = []
        dst_index = {s: r for r, s in enumerate(dst)}
        mat = [[0] * len(src) for _ in dst]
        for ci, sigma in enumerate(src):
            for z in zvars:
                if z in sigma:
                    continue
                tau = tuple(sorted(sigma + (z,)))
                ri = dst_index.get(tau)
                if ri is not None:
                    mat[ri][ci] = (-1) ** tau.index(z)
        return mat

    r_out = bf_rank(diff_matrix(levels[i], levels[i + 1]))
    r_in = bf_rank(diff_matrix(levels[i - 1], levels[i]))
    return len(levels[i]) - r_out - r_in


def bf_scan_degrees(nvars, gens, zvars, margin=1):
    """Literal fine degrees covering the stabilization range with a safety margin."""
    box = [0] * nvars
    for g in gens:
        for idx, e in enumerate(g):
            box[idx] = max(box[idx], e)
    zset = set(zvars)
    ranges = [
        range(-(box[v] + margin), box[v] + margin + 1) if v in zset
        else range(0, box[v] + margin + 1)
        for v in range(nvars)
    ]
    return product(*ranges)


def bf_grade_cd(nvars, gens, zvars):
    """(grade, cd) of S/I w.r.t. zvars by scanning every index and literal degree."""
    nonzero = []
    for i in range(len(zvars) + 1):
        found = any(
            bf_cech_piece(nvars, gens, zvars, i, c)
            for c in bf_scan_degrees(nvars, gens, zvars)
        )
        if found:
            nonzero.append(i)
    if not nonzero:
        return None, None
    return nonzero[0], nonzero[-1]


def bf_scan_koszul(N, Z, max_retries=3):
    """Scan the certified box; returns {degree: [dims per j]} with zero rows dropped.

    The shell (some coordinate = box + 1) must vanish entirely; a violation
    doubles the offending coordinate and rescans.
    """
    box = list(N.box())
    for _ in range(max_retries):
        table = {}
        violation = None
        for b in product(*(range(e + 2) for e in box)):
            dims = koszul_dims_at(N, Z, b)
            if any(dims):
                table[b] = dims
                if any(b[i] == box[i] + 1 for i in range(len(box))):
                    violation = b
        if violation is None:
            return table
        for i in range(len(box)):
            if violation[i] == box[i] + 1:
                box[i] = 2 * (box[i] + 1)
    raise InternalCheckFailed(
        f"shell certification failed; module is not finitely generated over the "
        f"chosen variables {sorted(Z)}"
    )


def bf_betti_and_projdim(N, Z):
    """(Betti table {(j, degree): dim}, projective dimension) from the box scan."""
    betti = {
        (j, b): d
        for b, dims in bf_scan_koszul(N, Z).items()
        for j, d in enumerate(dims)
        if d
    }
    return betti, max((j for j, _ in betti), default=0)
