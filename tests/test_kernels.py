import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigrade.kernels import rank, rank_char0, rank_mod_p
from bruteforce import bf_rank as rank_fraction_oracle
from bruteforce import bf_rank_mod_p


def test_empty_and_shapes():
    assert rank_char0([]) == 0
    assert rank_char0([[]]) == 0
    assert rank_mod_p([[]], 5) == 0
    with pytest.raises(ValueError):
        rank_char0([1, 2, 3])
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 1)


def test_non_integer_entries_are_refused():
    # int() would truncate 0.5 to 0 (rank 0, not 1) and parse "3"
    for bad in ([[0.5]], [["3"]], [[1, 2.0]]):
        for fn, args in ((rank_char0, ()), (rank_mod_p, (5,)), (rank, ())):
            name = "rank_mod_p" if fn is rank_mod_p else "rank_char0"
            with pytest.raises(ValueError, match=name):
                fn(bad, *args)
    assert rank_char0([[True, False], [False, True]]) == 2
    assert rank_mod_p([[True, True], [True, True]], 3) == 1


def test_numpy_integer_entries_are_accepted():
    np = pytest.importorskip("numpy")
    assert rank_char0([[np.int64(2), np.int32(1)], [np.int8(4), np.int64(2)]]) == 1
    assert rank(np.array([[1, 2], [3, 4]], dtype=np.int64), 5) == 2


def test_known_ranks():
    assert rank_char0([[1, 0], [0, 1]]) == 2
    assert rank_char0([[1, 2], [2, 4]]) == 1
    assert rank_char0([[0, 0], [0, 0]]) == 0
    # char 2 drops the rank of the doubled row matrix
    assert rank_mod_p([[1, 1], [1, -1]], 2) == 1
    assert rank_char0([[1, 1], [1, -1]]) == 2


small_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=nc, max_size=nc),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_matches_fraction_oracle(rows):
    assert rank_char0(rows) == rank_fraction_oracle(rows)


@settings(max_examples=80, deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 5, 7]))
def test_modp_rank_bounded_by_char0(rows, p):
    rp = rank_mod_p(rows, p)
    r0 = rank_char0(rows)
    assert rp <= r0
    # a matrix of full char-0 rank with unit pivots keeps rank mod p
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank_mod_p(ident, p) == 3


def test_modp_rank_matches_gauss_jordan_oracle():
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7, 32003, 4294967311):
        special = (0, 1, -1, p, -p)

        def entry():
            return rng.choice(special) if rng.random() < 0.5 else rng.randint(-2 * p, 2 * p)

        for _ in range(150):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                # the last row becomes a combination of two others, so the rows are dependent
                a, b = rng.randrange(nrows - 1), rng.randrange(nrows - 1)
                k, m = rng.choice(special), rng.randint(-2 * p, 2 * p)
                rows[-1] = [k * x + m * y for x, y in zip(rows[a], rows[b])]
            assert rank_mod_p(rows, p) == bf_rank_mod_p(rows, p), (p, rows)


def test_bigint_fallback_on_huge_entries():
    big = 1 << 40
    rows = [[big, 1], [1, big]]
    assert rank_char0(rows) == 2
    # genuinely rank 1 with huge entries
    rows1 = [[big, 2 * big], [3 * big, 6 * big]]
    assert rank_char0(rows1) == 1


def test_rank_dispatch():
    rows = [[2, 0], [0, 2]]
    assert rank(rows, 0) == 2
    assert rank(rows, 2) == 0


def test_modp_rank_exact_for_prime_above_32_bits():
    # p > 2**32, so products of reduced entries do not fit in 64 bits
    p = 4294967311
    rng = random.Random(20240811)
    for _ in range(300):
        r1 = [rng.randrange(p) for _ in range(3)]
        r2 = [rng.randrange(p) for _ in range(3)]
        if all((r1[i] * r2[j] - r1[j] * r2[i]) % p == 0 for i in range(3) for j in range(i)):
            continue  # rows 1 and 2 dependent mod p: rank would be 1
        k = rng.randrange(1, p)
        r3 = [(k * a + b) % p for a, b in zip(r1, r2)]
        assert rank_mod_p([r1, r2, r3], p) == 2
        assert rank_mod_p([r1, r2], p) == 2


# Two matrices on which Bareiss elimination goes wrong when the rows with a 0
# in the pivot column are not rescaled: it then reads ranks 5 and 4
BAREISS_RESCALE_CASES = [
    (
        [[0, 1, 0, 1, 1, 0], [0, -1, -1, -1, 0, 0], [1, -1, 0, 0, 0, -1],
         [-1, 0, 0, 1, 0, 0], [-1, 0, 0, 0, 0, 1], [1, -1, 0, 0, 1, 1]],
        6,
    ),
    ([[0, 1, 1, 0], [-2, -3, -1, 3], [3, 0, 2, -2], [1, 0, -2, -2]], 3),
]


def test_ranks_match_the_oracles_on_seeded_draws():
    # 300 draws of 4x4 to 8x8 matrices with entries 0/+-1, 300 with entries
    # in -3..3 and 300 with entries 0/+-2/+-3 (no unit pivot over Q, as in
    # what a unit-pivot pass leaves over), each ranked over Q and over GF(2),
    # GF(3), GF(5), GF(32003) and GF(4294967311), beside the two fixed cases:
    # a rare elimination fault (a skipped rescale goes wrong on about 1 % of
    # the 0/+-1 draws) is met on a fixed set every run
    rng = random.Random(20261019)
    cases = [rows for rows, _ in BAREISS_RESCALE_CASES]
    for entries in ((0, 1, -1), range(-3, 4), (0, 2, -2, 3, -3)):
        for _ in range(300):
            nrows, ncols = rng.randint(4, 8), rng.randint(4, 8)
            cases.append([[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)])
    for rows in cases:
        assert rank_char0(rows) == rank_fraction_oracle(rows), rows
        for p in (2, 3, 5, 32003, 4294967311):
            assert rank_mod_p(rows, p) == bf_rank_mod_p(rows, p), (p, rows)
    assert [rank_char0(rows) for rows, _ in BAREISS_RESCALE_CASES] == [6, 3]
