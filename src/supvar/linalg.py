"""Dense exact linear algebra over F_{p^n} on field indices.

Matrices are numpy int32 arrays whose entries are field element *indices*:
the integer whose base-p digits are the polynomial coefficients, low digit
first (so 0 is zero and 1 is one for every field).  Elimination works on
q x q addition and multiplication tables; products go through one exact
float64 kernel (`bmatmul`).  Both come from the field's multiplication
matrices `FieldDescriptor.mulmat`, the one definition of multiplication.
"""

from __future__ import annotations

import numpy as np

from .gfield import FieldDescriptor, FieldElement

DT = np.int32

_CHUNK = 64


class GFTables:
    """Cached index-arithmetic tables for one field descriptor."""

    def __init__(self, field: FieldDescriptor):
        self.field = field
        p, n, q = field.p, field.n, field.q
        self.p, self.n, self.q = p, n, q
        digits = field.digits
        self.powers = powers = p ** np.arange(n)
        # float64 copies, the operands of bmatmul
        self.digits = digits.astype(np.float64)
        self.mulmat = field.mulmat.astype(np.float64)

        self.add = np.empty((q, q), dtype=DT)
        self.mul = np.empty((q, q), dtype=DT)
        for lo in range(0, q, _CHUNK):
            hi = min(lo + _CHUNK, q)
            self.add[lo:hi] = ((digits[lo:hi, None, :] + digits[None, :, :]) % p) @ powers
            self.mul[lo:hi] = powers @ (field.mulmat[lo:hi] @ digits.T % p)
        self.neg = ((-digits) % p @ powers).astype(DT)

        self.inv = np.zeros(q, dtype=DT)
        ones = np.argwhere(self.mul == 1)
        self.inv[ones[:, 0]] = ones[:, 1]

        # x -> x^p, by p - 1 multiplications
        idx = np.arange(q)
        self.frob = idx.astype(DT)
        for _ in range(p - 1):
            self.frob = self.mul[self.frob, idx]

    def scalar(self, x) -> int:
        """Index of an int read in the prime field: its value mod p."""
        return int(x) % self.p

    def to_element(self, idx: int) -> FieldElement:
        return self.field.from_index(int(idx))


def tables(field: FieldDescriptor) -> GFTables:
    if field._tables is None:
        field._tables = GFTables(field)
    return field._tables


def grid(q: int, k: int) -> np.ndarray:
    """All k-tuples of field indices, one per row, in lexicographic order;
    for k = 0, one empty row."""
    return np.indices((q,) * k, dtype=DT).reshape(k, q**k).T


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=DT)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=DT)


def from_int_matrix(F: GFTables, rows) -> np.ndarray:
    """Integers (interpreted in the prime subfield) to an index matrix."""
    a = np.array(rows, dtype=np.int64) % F.p
    return a.astype(DT)


def madd(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return F.add[A, B]

def msub(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return F.add[A, F.neg[B]]


def scale(F: GFTables, c, A: np.ndarray) -> np.ndarray:
    """Scale by a plain int read as a prime-field value."""
    return F.mul[F.scalar(c), A]


def matmul(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of two matrices (see `bmatmul`, which also takes stacks)."""
    assert A.ndim == 2 and B.ndim == 2, (A.shape, B.shape)
    return bmatmul(F, A, B)


def bmatmul(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over any leading stack axes, broadcast as numpy's `@`.

    Restriction of scalars to F_p: each entry a of A becomes its n x n
    multiplication matrix `mulmat[a]`, each entry b of B its coefficient
    column, and one float64 product of size mn x kn x l gives the
    coefficients of every entry of AB; they are reduced mod p and packed
    back into indices.  For n = 1 the blocks are 1 x 1 and an index is its
    value, so the product is taken on the indices themselves, with no
    gather.

    float64 so that the product runs in BLAS; it is exact because every
    partial sum is an integer of at most k*n*(p-1)^2 < 2^53, so the
    reduction mod p can wait until the end (the delayed reduction of
    FFLAS, Dumas, Giorgi and Pernet, ACM TOMS 2008).  The sums are reduced
    as int64, which numpy does several times faster than a float64 fmod.
    `matmul` stays the entry point for single matrices: perfbench's tracer
    counts its calls and reads a 2-D shape from its arguments.
    """
    m, k = A.shape[-2:]
    k2, l = B.shape[-2:]
    assert k == k2, (A.shape, B.shape)
    n, p = F.n, F.p
    assert k * n * (p - 1) ** 2 < 2**53, (k, F.field)
    if n == 1:
        return ((A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p).astype(DT)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    Am = F.mulmat[A].swapaxes(-3, -2).reshape(A.shape[:-2] + (m * n, k * n))
    Bd = F.digits[B].swapaxes(-2, -1).reshape(B.shape[:-2] + (k * n, l))
    C = (Am @ Bd).astype(np.int64) % p
    return (F.powers @ C.reshape(lead + (m, n, l))).astype(DT)


def stack_nonzero(A: np.ndarray):
    """(rows, cols) of the entries that are nonzero in some matrix of a
    stack (..., m, n); for a single matrix, its nonzero entries."""
    return np.nonzero(A.any(axis=tuple(range(A.ndim - 2))))


def matvec(F: GFTables, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return matmul(F, A, v.reshape(-1, 1)).ravel()


def matpow(F: GFTables, A: np.ndarray, e: int) -> np.ndarray:
    """A^e for a square matrix or a stack of them (leading axes kept)."""
    out = None
    base = A
    while e:
        if e & 1:
            out = base.copy() if out is None else bmatmul(F, out, base)
        e >>= 1
        if e:
            base = bmatmul(F, base, base)
            if not base.any():  # every remaining factor is zero
                return np.zeros(A.shape, dtype=DT)
    if out is None:
        return np.broadcast_to(identity(A.shape[-1]), A.shape).copy()
    return out


def kron(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    m, n = A.shape
    r, s = B.shape
    out = F.mul[A[:, None, :, None], B[None, :, None, :]]
    return out.reshape(m * r, n * s).astype(DT)


def rref(F: GFTables, A: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_column_list)."""
    R = A.astype(DT)  # a copy
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = R[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        # row r is zero left of column c, so the updates start at c
        R[r, c:] = F.mul[F.inv[R[r, c]], R[r, c:]]
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            factors = F.neg[R[rows, c]]
            R[rows, c:] = F.add[R[rows, c:], F.mul[factors[:, None], R[r, c:]]]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F: GFTables, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(rref(F, A)[1])


def ranks(F: GFTables, A: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices (..., m, n), as an int array of shape (...).

    The whole stack is eliminated in lockstep, column by column: each
    matrix takes its first not yet used row with a nonzero entry in the
    column as pivot, and only the rows with a nonzero in that column are
    updated.  Agrees with `rank` slice by slice.
    """
    *lead, m, n = A.shape
    R = A.reshape(int(np.prod(lead)), m, n).astype(DT)
    out = np.zeros(R.shape[0], dtype=np.int64)
    used = np.zeros((R.shape[0], m), dtype=bool)
    for c in range(n):
        nz = (R[:, :, c] != 0) & ~used
        s = np.nonzero(nz.any(axis=1))[0]
        if not s.size:
            continue
        piv = nz[s].argmax(axis=1)
        prow = F.mul[F.inv[R[s, piv, c]][:, None], R[s, piv, c + 1 :]]
        nz[s, piv] = False
        used[s, piv] = True
        out[s] += 1
        ts, ti = np.nonzero(nz)
        if ts.size:
            f = F.neg[R[ts, ti, c]]
            rows = prow[np.searchsorted(s, ts)]
            R[ts, ti, c + 1 :] = F.add[R[ts, ti, c + 1 :], F.mul[f[:, None], rows]]
    return out.reshape(lead)


def right_kernel(F: GFTables, A: np.ndarray) -> np.ndarray:
    """Basis of {x : A x = 0}, returned as the columns of an n x k matrix."""
    m, n = A.shape
    if n == 0:
        return zeros(0, 0)
    if m == 0:
        return identity(n)
    R, pivots = rref(F, A)
    free = np.delete(np.arange(n), pivots)
    K = zeros(n, free.size)
    K[free, np.arange(free.size)] = 1
    K[pivots] = F.neg[R[: len(pivots), free]]
    return K


def solve(F: GFTables, A: np.ndarray, B: np.ndarray):
    """One solution X of A X = B, or None if the system is inconsistent."""
    m, n = A.shape
    if B.ndim == 1:
        X = solve(F, A, B.reshape(-1, 1))
        return None if X is None else X.ravel()
    k = B.shape[1]
    aug = np.concatenate([A, B], axis=1).astype(DT)
    R, pivots = rref(F, aug)
    for c in pivots:
        if c >= n:
            return None
    X = zeros(n, k)
    for i, c in enumerate(pivots):
        X[c] = R[i, n:]
    return X


def column_space(F: GFTables, A: np.ndarray) -> np.ndarray:
    """Independent columns of A spanning its column space."""
    _, pivots = rref(F, A)
    return A[:, pivots]


def descent(F: GFTables, X: np.ndarray, W: np.ndarray, steps: int):
    """Dimensions of W, sum_g X_g W, sum_g X_g (sum_g X_g W), ... down to
    the first that is 0, for a stack X of operators (g, m, m) and W given
    by independent columns (m, n); None if none of the first steps + 1 is 0.

    Each span is kept as the rows of an rref of its transpose, so a step is
    one stacked product with the X_g^T and one rref, on m columns.
    """
    B, dims = W.T, [W.shape[1]]
    Xt = np.swapaxes(X, -1, -2)
    for _ in range(steps):
        if not dims[-1]:
            break
        R, pivots = rref(F, bmatmul(F, B, Xt).reshape(-1, B.shape[1]))
        B = R[: len(pivots)]
        dims.append(len(pivots))
    return None if dims[-1] else dims


def complement_coords(F: GFTables, S: np.ndarray):
    """Coordinate indices extending col(S) to the full space.

    Returns the list of standard basis indices e_i (in increasing order)
    such that col(S) + span(e_i) is a direct sum filling F^m: the e_i that
    a greedy left-to-right pass keeps when each one is independent of
    col(S) and of the e_j kept before it.

    One rref of S^T with its columns reversed.  Keeping e_i adds one to the
    dimension of col(S) + span(e_0..e_{i-1}) exactly when projecting col(S)
    onto the coordinates i, i+1, .. has no larger rank than projecting onto
    i+1, ..; that is, when coordinate i is not a pivot of that rref, read
    from the right.
    """
    m = S.shape[0]
    _, pivots = rref(F, S.T[:, ::-1])
    taken = {m - 1 - c for c in pivots}
    return [i for i in range(m) if i not in taken]
