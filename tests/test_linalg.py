import random

import numpy as np

from helpers import from_int_matrix
from oracles.linalg_oracle import restrict_operator
from supvar.gfield import make_field
import supvar.linalg as la


def rand_mat(rng, F, m, n):
    return np.array([[rng.randrange(F.q) for _ in range(n)] for _ in range(m)], dtype=la.DT)


def test_rref_and_rank():
    F = la.tables(make_field(3, 1))
    A = from_int_matrix(F, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    R, piv = la.rref(F, A)
    assert piv == [0, 2]
    assert la.rank(F, A) == 2


def test_kernel_and_solve_random():
    rng = random.Random(0)
    for field in (make_field(3, 1), make_field(3, 2), make_field(5, 1)):
        F = la.tables(field)
        for _ in range(25):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            A = rand_mat(rng, F, m, n)
            K = la.right_kernel(F, A)
            assert K.shape[1] == n - la.rank(F, A)
            if K.size:
                assert not np.any(la.matmul(F, A, K))
            x = rand_mat(rng, F, n, 1)
            b = la.matmul(F, A, x)
            y = la.solve(F, A, b)
            assert y is not None
            assert np.array_equal(la.matmul(F, A, y), b)


def _right_kernel_loop(F, A):
    """The former fill of right_kernel, one entry at a time (reference)."""
    m, n = A.shape
    if n == 0:
        return la.zeros(0, 0)
    if m == 0:
        return la.identity(n)
    R, pivots = la.rref(F, A)
    free = [c for c in range(n) if c not in pivots]
    K = la.zeros(n, len(free))
    for idx, fcol in enumerate(free):
        K[fcol, idx] = 1
        for i, pcol in enumerate(pivots):
            K[pcol, idx] = F.neg[R[i, fcol]]
    return K


def test_right_kernel_matches_entrywise_fill():
    rng = random.Random(7)
    for field in (make_field(3, 1), make_field(3, 2), make_field(5, 2)):
        F = la.tables(field)
        mats = [la.zeros(3, 5), la.zeros(0, 4), la.zeros(4, 0), la.zeros(0, 0)]
        mats += [la.identity(4), np.concatenate([la.identity(3), rand_mat(rng, F, 3, 2)], axis=1)]
        for _ in range(30):
            m, n, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3)
            mats.append(rand_mat(rng, F, m, n))
            # rank at most k
            mats.append(la.matmul(F, rand_mat(rng, F, m, k), rand_mat(rng, F, k, n)))
        for A in mats:
            want = _right_kernel_loop(F, A)
            got = la.right_kernel(F, A)
            assert got.dtype == want.dtype and np.array_equal(got, want), (field, A)


def test_solve_inconsistent():
    F = la.tables(make_field(3, 1))
    A = from_int_matrix(F, [[1, 0], [0, 0]])
    b = np.array([0, 1], dtype=la.DT)
    assert la.solve(F, A, b) is None


def test_matmul_kron_agree_with_naive():
    rng = random.Random(1)
    field = make_field(3, 2)
    F = la.tables(field)
    A = rand_mat(rng, F, 3, 4)
    B = rand_mat(rng, F, 4, 2)
    C = la.matmul(F, A, B)
    for i in range(3):
        for j in range(2):
            acc = field.from_index(0)
            for k in range(4):
                acc = acc + field.from_index(int(A[i, k])) * field.from_index(int(B[k, j]))
            assert acc.index == C[i, j]
    K = la.kron(F, A[:2, :2], B[:2, :2])
    assert K.shape == (4, 4)
    assert K[3, 3] == F.mul[A[1, 1], B[1, 1]]


def test_complement_and_restrict():
    F = la.tables(make_field(3, 1))
    S = from_int_matrix(F, [[1, 0], [0, 1], [0, 0]])
    comp = la.complement_coords(F, S)
    assert comp == [2]
    T = from_int_matrix(F, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # shift operator
    K = from_int_matrix(F, [[0], [1], [0]])  # not invariant: T K = e3
    try:
        restrict_operator(F, K, T)
        assert False, "expected failure on a non-invariant subspace"
    except ValueError:
        pass
    K2 = from_int_matrix(F, [[0, 0], [1, 0], [0, 1]])
    X = restrict_operator(F, K2, T)
    assert np.array_equal(la.matmul(F, T, K2), la.matmul(F, K2, X))


def greedy_complement_coords(F, S):
    """The one-rank-per-coordinate loop that `complement_coords` replaced:
    keep e_i whenever it raises the rank of col(S) plus the e_j kept so far."""
    m = S.shape[0]
    cur = la.column_space(F, S) if S.size else la.zeros(m, 0)
    r = la.rank(F, cur) if cur.size else 0
    coords = []
    for i in range(m):
        e = la.zeros(m, 1)
        e[i, 0] = 1
        cand = np.concatenate([cur, e], axis=1)
        if la.rank(F, cand) > r:
            coords.append(i)
            cur = cand
            r += 1
        if r == m:
            break
    return coords


def _complement_inputs(rng, q):
    """Zero, m x 0, full-rank, wide rank-deficient, spans holding some e_i,
    and plain random matrices."""
    yield np.zeros((5, 3), dtype=la.DT)
    yield np.zeros((6, 0), dtype=la.DT)
    yield np.zeros((0, 0), dtype=la.DT)
    yield la.identity(4)
    yield rng.integers(0, q, (5, 5)).astype(la.DT)  # full rank for most draws
    yield rng.integers(0, q, (4, 9)).astype(la.DT)  # wide, full row rank
    low = rng.integers(0, q, (7, 2)).astype(la.DT)
    yield np.repeat(low, 6, axis=1)  # wide, rank at most 2
    # col(S) holds e_1 and e_4 plus a random direction, in scrambled columns
    S = la.zeros(6, 4)
    S[1, 0] = 1
    S[4, 2] = 1
    S[:, 3] = rng.integers(0, q, 6)
    yield S
    for m, n in ((3, 1), (6, 2), (8, 5), (6, 12)):
        yield rng.integers(0, q, (m, n)).astype(la.DT)


def test_complement_coords_matches_greedy_loop():
    rng = np.random.default_rng(11)
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        F = la.tables(make_field(p, n))
        for S in _complement_inputs(rng, F.q):
            got = la.complement_coords(F, S)
            assert got == greedy_complement_coords(F, S), (p, n, S.shape)
            # col(S) plus the chosen e_i is all of F^m, with no overlap
            m = S.shape[0]
            assert len(got) == m - (la.rank(F, S) if S.size else 0)
            E = la.identity(m)[:, got]
            assert la.rank(F, np.concatenate([S, E], axis=1)) == m


STACK_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]


def _stacks(rng, F):
    """Random, zero, full-rank, low-rank, nilpotent and rectangular stacks,
    and empty ones."""
    q = F.q
    yield rng.integers(0, q, (20, 6, 6)).astype(la.DT)
    yield np.zeros((5, 4, 4), dtype=la.DT)
    yield np.broadcast_to(la.identity(5), (3, 5, 5)).copy()
    A = rng.integers(0, q, (10, 7, 2)).astype(la.DT)
    B = rng.integers(0, q, (10, 2, 7)).astype(la.DT)
    yield la.bmatmul(F, A, B)  # rank at most 2
    yield np.tril(rng.integers(0, q, (6, 5, 5)), -1).astype(la.DT)  # N^5 = 0
    yield rng.integers(0, q, (8, 3, 9)).astype(la.DT)
    yield rng.integers(0, q, (8, 9, 3)).astype(la.DT)
    yield np.zeros((0, 4, 4), dtype=la.DT)
    yield np.zeros((3, 0, 4), dtype=la.DT)


def test_ranks_agree_with_rank():
    rng = np.random.default_rng(7)
    for p, n in STACK_FIELDS:
        F = la.tables(make_field(p, n))
        for S in _stacks(rng, F):
            got = la.ranks(F, S)
            assert got.shape == S.shape[:-2]
            assert list(got) == [la.rank(F, A) for A in S], (p, n, S.shape)
        # a single matrix is a stack with no leading axes
        A = rng.integers(0, F.q, (5, 6)).astype(la.DT)
        assert la.ranks(F, A).shape == ()
        assert int(la.ranks(F, A)) == la.rank(F, A)
        # invertible matrices have full rank in every field
        assert list(la.ranks(F, np.stack([la.identity(4)] * 2))) == [4, 4]


def test_stacked_matmul_and_matpow_agree_slice_by_slice():
    rng = np.random.default_rng(8)
    for p, n in STACK_FIELDS:
        F = la.tables(make_field(p, n))
        for S in _stacks(rng, F):
            m, k = S.shape[-2:]
            T = rng.integers(0, F.q, S.shape[:-2] + (k, 3)).astype(la.DT)
            C = la.bmatmul(F, S, T)
            assert C.shape == S.shape[:-2] + (m, 3)
            for A, B, AB in zip(S, T, C):
                assert np.array_equal(AB, la.matmul(F, A, B))
            if m != k:
                continue
            for e in (0, 1, 2, 5, 8):
                P = la.matpow(F, S, e)
                assert P.shape == S.shape
                for A, Ae in zip(S, P):
                    want = la.identity(m)
                    for _ in range(e):
                        want = la.matmul(F, want, A)
                    assert np.array_equal(Ae, want), (p, n, e)
        # one matrix against a stack broadcasts like numpy's matmul
        A = rng.integers(0, F.q, (4, 5)).astype(la.DT)
        B = rng.integers(0, F.q, (6, 5, 2)).astype(la.DT)
        C = la.bmatmul(F, A, B)
        assert all(np.array_equal(C[i], la.matmul(F, A, B[i])) for i in range(6))
