"""Independent brute-force oracles: local cohomology of S/I, the box walks, the
all-pairs minimal generators and the irreducible decomposition from every
candidate exponent vector.

The local cohomology oracle deliberately shares no code with the package: its
own divisibility, its own Cech complex built from literal large exponents (no
capped-class reasoning), and exact ranks over the rationals via Fraction
elimination.  Slow and only usable on tiny inputs, which is the point.

The Betti scan reference walks the whole exponent box plus a shell, doubling
the box where the shell is hit.  It reuses the package's per-degree Koszul
dimensions (in the ring's characteristic) and checks only which degrees the
lcm-lattice scan may skip.  Those per-degree dimensions are checked in turn,
over Q, by `bf_koszul_dims`, which shares no code with the package.

The fiber, local cohomology, growth and Ass references visit every exponent
of the box, one degree at a time, with the package's per-degree pieces.  They
check only which degrees the exponent-cell walks may skip.  The local
cohomology and growth references read one memoized walk per (I, Z), the
classes of `bf_fibers` with every index at every degree of each fiber's box.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from bigrade.errors import InternalCheckFailed
from bigrade.homology import (
    Subquotient,
    _cech_dims_at,
    koszul_dims_at,
    restrict_ideal,
)
from bigrade.invariants import FiberClass
from bigrade.local_cohomology import FiberLC
from bigrade.rings import MonomialIdeal, colon, support


def bf_divides(g, u):
    return all(a <= b for a, b in zip(g, u))


def bf_in_ideal(u, gens):
    return any(bf_divides(g, u) for g in gens)


def bf_box(N):
    """The lcm box of J/J': the largest exponent of each variable over the
    generators of J and J', 0 where none uses it."""
    gens = N.J.gens + N.Jp.gens
    return tuple(max((g[k] for g in gens), default=0) for k in range(N.ring.nvars))


def bf_minimal_generators(ring, raw):
    """Canonical form by testing every pair: keep u unless another v divides it."""
    gens = {tuple(int(e) for e in u) for u in raw}
    minimal = [u for u in gens if not any(v != u and bf_divides(v, u) for v in gens)]
    return MonomialIdeal(ring, tuple(sorted(minimal)))


def bf_irreducible_decomposition(I):
    """Irredundant irreducible components of I from every candidate exponent vector.

    A candidate a takes each a_i from {0} and the exponents of x_i in the
    generators (0 = x_i absent); it is kept when (x_i^{a_i} : a_i > 0) holds
    every generator of I, and the kept ideals minimal under inclusion are the
    components, each a lex-sorted tuple of pure powers, in sorted order.
    """
    nvars = I.ring.nvars
    choices = [sorted({0} | {g[i] for g in I.gens}) for i in range(nvars)]
    covers = []
    for a in product(*choices):
        powers = tuple(sorted(
            tuple(e if k == i else 0 for k in range(nvars)) for i, e in enumerate(a) if e
        ))
        if all(bf_in_ideal(g, powers) for g in I.gens):
            covers.append(powers)
    minimal = [
        q for q in covers
        if not any(o != q and all(bf_in_ideal(u, q) for u in o) for o in covers)
    ]
    return sorted(minimal)


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


def bf_rank_mod_p(rows, p):
    """Rank over GF(p) by Gauss-Jordan elimination, pivots inverted as a^(p-2)."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [a * inv % p for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fine_piece(N, c) -> int:
    """1 iff the monomial with exponent c >= 0 lies in J \\ J', by a direct
    membership test; the package reads membership off its bitset rule."""
    c = tuple(c)
    if any(e < 0 for e in c):
        return 0
    return 1 if (N.J.contains(c) and not N.Jp.contains(c)) else 0


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


def bf_koszul_dims(nvars, jgens, jpgens, zvars, b):
    """[H_0 .. H_k] over Q of the Koszul complex of J/J' on the variables zvars in degree b.

    The term for a subset sigma of zvars is the piece of J/J' in degree
    b - e_sigma: K iff that exponent is nonnegative, in J and not in J'.
    Dropping the variable z from sigma carries the sign (-1)^(place of z in
    sigma); the matrices are written out in full.
    """
    zvars = sorted(zvars)
    k = len(zvars)

    def term_nonzero(sigma):
        deg = tuple(e - (1 if idx in sigma else 0) for idx, e in enumerate(b))
        if any(e < 0 for e in deg):
            return False
        return bf_in_ideal(deg, jgens) and not bf_in_ideal(deg, jpgens)

    levels = [[s for s in combinations(zvars, j) if term_nonzero(s)] for j in range(k + 1)]

    def boundary_matrix(src, dst):
        mat = [[0] * len(src) for _ in dst]
        for ci, sigma in enumerate(src):
            for z in sigma:
                face = tuple(v for v in sigma if v != z)
                if face in dst:
                    mat[dst.index(face)][ci] = (-1) ** sigma.index(z)
        return mat

    ranks = [0] * (k + 2)
    for j in range(1, k + 1):
        ranks[j] = bf_rank(boundary_matrix(levels[j], levels[j - 1]))
    return [len(levels[j]) - ranks[j] - ranks[j + 1] for j in range(k + 1)]


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


def bf_cech_dims(nvars, jgens, jpgens, zvars, c):
    """[H^0 .. H^k] over Q of the Cech complex of J/J' on the variables zvars in degree c.

    The term for sigma is J/J' localized at prod(sigma); its degree-c piece
    is K iff c is nonnegative off sigma and the monomial with a large
    exponent added on sigma lies in J and not in J'.
    """
    zvars = sorted(zvars)
    k = len(zvars)
    c = tuple(c)
    if any(e < 0 for idx, e in enumerate(c) if idx not in zvars):
        return [0] * (k + 1)
    big = sum(max(g, default=0) for g in (*jgens, *jpgens)) + sum(abs(e) for e in c) + 5

    def term_nonzero(sigma):
        if any(c[idx] < 0 for idx in zvars if idx not in sigma):
            return False
        shifted = tuple(e + (big if idx in sigma else 0) for idx, e in enumerate(c))
        return bf_in_ideal(shifted, jgens) and not bf_in_ideal(shifted, jpgens)

    levels = [[s for s in combinations(zvars, j) if term_nonzero(s)] for j in range(k + 1)]

    def coboundary_matrix(src, dst):
        mat = [[0] * len(src) for _ in dst]
        for ci, sigma in enumerate(src):
            for ri, tau in enumerate(dst):
                if set(sigma) <= set(tau):
                    (z,) = set(tau) - set(sigma)
                    mat[ri][ci] = (-1) ** tau.index(z)
        return mat

    # ranks[j + 1] is the rank of the map from term j to term j + 1
    ranks = [0] * (k + 2)
    for j in range(k):
        ranks[j + 1] = bf_rank(coboundary_matrix(levels[j], levels[j + 1]))
    return [len(levels[j]) - ranks[j] - ranks[j + 1] for j in range(k + 1)]


def bf_subquotient_grade_cd(nvars, jgens, jpgens, zvars):
    """(grade, cd) of J/J' w.r.t. zvars: the least and largest index of a
    nonzero Cech cohomology piece over every degree of the box below.

    Membership of a monomial in J or J' reads each exponent only up to the
    largest exponent b of that variable in the generators, and a negative
    exponent on zvars only by its sign, since the term clears it.  So the
    degrees with entries from -1 (on zvars) or 0 up to b hold every piece."""
    gens = (*jgens, *jpgens)
    box = [max((g[v] for g in gens), default=0) for v in range(nvars)]
    degrees = product(*(range(-1 if v in zvars else 0, box[v] + 1) for v in range(nvars)))
    nonzero = set()
    for c in degrees:
        nonzero.update(j for j, d in enumerate(bf_cech_dims(nvars, jgens, jpgens, zvars, c)) if d)
    if not nonzero:
        return None, None
    return min(nonzero), max(nonzero)


def bf_scan_koszul(N, Z, max_retries=3):
    """Scan the certified box; returns {degree: [dims per j]} with zero rows dropped.

    The shell (some coordinate = box + 1) must vanish entirely; a violation
    doubles the offending coordinate and rescans.
    """
    box = list(bf_box(N))
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


def bf_fibers(N, Z):
    """Fiber decomposition by one colon pair per exponent of the capped box.

    Each class lists every capped pattern of the box it holds, each of length
    1 on a coordinate below its cap and None on a capped one.
    """
    ring = N.ring
    comp = tuple(sorted(set(range(ring.nvars)) - set(Z)))
    box = bf_box(N)
    caps = [box[i] for i in comp]
    Z = frozenset(Z)
    classes = {}
    for a in product(*(range(c + 1) for c in caps)):
        u = [0] * ring.nvars
        for idx, i in enumerate(comp):
            u[i] = a[idx]
        Ja = restrict_ideal(colon(N.J, tuple(u)), Z)
        Jpa = restrict_ideal(colon(N.Jp, tuple(u)), Z)
        classes.setdefault((Ja, Jpa), []).append(a)
    out = []
    for (Ja, Jpa), pats in classes.items():
        pats = sorted(pats)
        out.append(
            FiberClass(
                patterns=tuple(pats),
                lengths=tuple(
                    tuple(None if e == cap else 1 for e, cap in zip(a, caps)) for a in pats
                ),
                fiber=Subquotient(Ja, Jpa),
            )
        )
    return out


def _box_degrees(box, axis):
    """Every degree of the capped box: {-1} u [0, box_v] on a coordinate of
    the axis, [0, box_v] off it."""
    return product(*(([-1] if v in axis else []) + list(range(b + 1)) for v, b in enumerate(box)))


@lru_cache(maxsize=4)
def _bf_fiber_dims(I, Z):
    """(class, fiber box, [(degree, [H^0 .. H^k])]) for each nonzero class of
    `bf_fibers(S/I, Z)`: one walk per (I, Z), with the Cech dimensions of every
    index at every degree of the fiber's box, that each index reads."""
    out = []
    for fc in bf_fibers(Subquotient.cyclic(I), Z):
        fiber = fc.fiber
        if fiber.is_zero:
            continue
        allvars = fiber.ring.all_vars()
        box = bf_box(fiber)
        out.append((fc, box, [(c, _cech_dims_at(fiber, allvars, c)) for c in _box_degrees(box, allvars)]))
    return out


def bf_lc_report(I, i, Z):
    """(finitely generated, total dim, per-fiber data) of H^i_Z(S/I) from the box walks."""
    entries = []
    for fc, box, pieces in _bf_fiber_dims(I, frozenset(Z)):
        finite = True
        witness = None
        total = 0
        for c, dims in pieces:
            if dims[i] == 0:
                continue
            if any(e < 0 for e in c) or any(e == box[k] for k, e in enumerate(c)):
                finite = False
                if witness is None:
                    witness = c
            else:
                total += dims[i]
        entries.append(FiberLC(
            pattern=fc.patterns[0],
            infinite_family=fc.infinite_family,
            n_single=fc.n_single,
            finite_length=finite,
            total_dim=total if finite else None,
            witness_degree=witness,
        ))
    fin_gen = all(e.finite_length for e in entries)
    total = None
    if fin_gen and all(e.total_dim == 0 for e in entries if e.infinite_family):
        total = sum(e.n_single * e.total_dim for e in entries)
    return fin_gen, total, entries


def _bf_degrees_within(c, box, r):
    """The number of degrees with every coordinate within r that the capped
    box degree c stands for: -1 for the r negative ones, a cap for all from
    it, any other exponent for itself."""
    mult = 1
    for e, b in zip(c, box):
        if e == -1:
            mult *= r
        elif e == b:
            mult *= max(0, r - e + 1)
        else:
            mult *= 1 if e <= r else 0
    return mult


def bf_growth_scan(I, i, radii, Z):
    """Cumulative H^i_Z(S/I) piece dimensions over growing boxes, one box degree at a time.

    Over an axis, the degrees are each capped pattern of a class of
    `bf_fibers` with each degree of its fiber's box, read off the walk that
    `bf_lc_report` makes; over no axis, H^0 is S/I, one box degree at a time.
    """
    N = Subquotient.cyclic(I)
    box = bf_box(N)
    if Z:
        caps = tuple(b for k, b in enumerate(box) if k not in Z)
        points = [
            (a, caps, c, fbox, dims[i])
            for fc, fbox, pieces in _bf_fiber_dims(I, frozenset(Z))
            for a in fc.patterns
            for c, dims in pieces
        ]
    else:
        points = [(c, box, (), (), fine_piece(N, c)) for c in _box_degrees(box, ())]
    return [
        sum(d * _bf_degrees_within(a, caps, r) * _bf_degrees_within(c, fbox, r) for a, caps, c, fbox, d in points)
        for r in radii
    ]


def bf_ass_subquotient(J, Jp):
    """Ass of J/J' from the annihilator of every monomial of the capped box."""
    N = Subquotient(J, Jp)
    found = set()
    for u in product(*(range(e + 1) for e in bf_box(N))):
        if not fine_piece(N, u):
            continue
        ann = colon(Jp, u)
        if all(len(support(g)) == 1 and max(g) == 1 for g in ann.gens):
            found.add(frozenset(idx for g in ann.gens for idx in support(g)))
    return found
