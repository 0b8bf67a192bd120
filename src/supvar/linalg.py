"""Dense exact linear algebra over F_{p^n} via lookup tables.

Matrices are numpy int32 arrays whose entries are field element *indices*:
the integer whose base-p digits are the polynomial coefficients, low digit
first (so 0 is zero and 1 is one for every field).  Addition and
multiplication of entries are q x q table lookups, which keeps Gaussian
elimination exact and lets numpy vectorise the row operations.
"""

from __future__ import annotations

import numpy as np

from .gfield import FieldDescriptor, FieldElement

DT = np.int32

_CHUNK = 512


class GFTables:
    """Cached index-arithmetic tables for one field descriptor."""

    def __init__(self, field: FieldDescriptor):
        self.field = field
        p, n, q = field.p, field.n, field.q
        self.p, self.n, self.q = p, n, q

        powers = p ** np.arange(n, dtype=np.int64)
        coeffs = np.zeros((q, n), dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        for i in range(n):
            coeffs[:, i] = (idx // powers[i]) % p
        self._coeffs = coeffs

        # reduction of x^k mod the modulus, as coefficient rows, k < 2n-1
        red = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(n):
            red[k, k] = 1
        mod = np.array(field.modulus, dtype=np.int64)
        for k in range(n, 2 * n - 1):
            # x^k = x * x^{k-1}, then reduce the overflow coefficient
            shifted = np.zeros(n + 1, dtype=np.int64)
            shifted[1:] = red[k - 1]
            shifted[:n] = (shifted[:n] - shifted[n] * mod[:n]) % p
            red[k] = shifted[:n] % p

        self.add = np.empty((q, q), dtype=DT)
        self.mul = np.empty((q, q), dtype=DT)
        for lo in range(0, q, _CHUNK):
            hi = min(lo + _CHUNK, q)
            block = coeffs[lo:hi]
            # addition: digitwise mod p
            s = (block[:, None, :] + coeffs[None, :, :]) % p
            self.add[lo:hi] = (s * powers[None, None, :]).sum(axis=2)
            # multiplication: convolution then reduction
            conv = np.zeros((hi - lo, q, 2 * n - 1), dtype=np.int64)
            for i in range(n):
                for j in range(n):
                    conv[:, :, i + j] += block[:, i, None] * coeffs[None, :, j]
            conv %= p
            prod = np.tensordot(conv, red, axes=([2], [0])) % p
            self.mul[lo:hi] = (prod * powers[None, None, :]).sum(axis=2)

        self._red = red

        negc = (-coeffs) % p
        self.neg = ((negc * powers[None, :]).sum(axis=1)).astype(DT)

        self.inv = np.zeros(q, dtype=DT)
        ones = np.argwhere(self.mul == 1)
        self.inv[ones[:, 0]] = ones[:, 1]

        # frobenius x -> x^p is linear: x^{ip} mod modulus per basis power
        frob_rows = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            c = [0] * n
            c[i] = 1
            e = FieldElement(field, tuple(c)) ** p
            frob_rows[i] = np.array(e.coeffs, dtype=np.int64)
        fc = (coeffs @ frob_rows) % p
        self.frob = ((fc * powers[None, :]).sum(axis=1)).astype(DT)

    def scalar(self, x) -> int:
        """Index of a FieldElement or small int in this field."""
        if isinstance(x, FieldElement):
            if x.field != self.field:
                raise ValueError("field mismatch")
            return x.index
        return self.field.element(int(x)).index

    def to_element(self, idx: int) -> FieldElement:
        return self.field.from_index(int(idx))


def tables(field: FieldDescriptor) -> GFTables:
    if field._tables is None:
        field._tables = GFTables(field)
    return field._tables


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


def mneg(F: GFTables, A: np.ndarray) -> np.ndarray:
    return F.neg[A]


def scale(F: GFTables, c, A: np.ndarray) -> np.ndarray:
    """Scale by a FieldElement or a plain int read as a prime-field value."""
    return F.mul[F.scalar(c), A]


def scale_index(F: GFTables, cidx: int, A: np.ndarray) -> np.ndarray:
    """Scale by the field element with the given index."""
    return F.mul[int(cidx), A]


def matmul(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of two matrices (see `bmatmul`, which also takes stacks)."""
    assert A.ndim == 2 and B.ndim == 2, (A.shape, B.shape)
    return bmatmul(F, A, B)


def bmatmul(F: GFTables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over any leading stack axes, broadcast as numpy's `@`.

    Integer arithmetic on coefficient digits, so the inner products run
    through numpy's fast integer matmul.  `matmul` stays the entry point for
    single matrices: perfbench's tracer counts its calls and reads a 2-D
    shape from its arguments.
    """
    m, k = A.shape[-2:]
    k2, n = B.shape[-2:]
    assert k == k2, (A.shape, B.shape)
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (m, n)
    if k == 0 or m == 0 or n == 0:
        return np.zeros(shape, dtype=DT)
    p = F.p
    if F.n == 1:
        return ((A.astype(np.int64) @ B.astype(np.int64)) % p).astype(DT)
    # split indices into base-p digits, convolve, reduce modulo the modulus
    nd = F.n
    Ad = [((A.astype(np.int64) // p**i) % p) for i in range(nd)]
    Bd = [((B.astype(np.int64) // p**i) % p) for i in range(nd)]
    conv = [np.zeros(shape, dtype=np.int64) for _ in range(2 * nd - 1)]
    for i in range(nd):
        for j in range(nd):
            conv[i + j] += Ad[i] @ Bd[j]
    red = F._red  # x^k mod modulus as coefficient rows
    out = np.zeros(shape, dtype=np.int64)
    powers = p ** np.arange(nd, dtype=np.int64)
    coeffs = [np.zeros(shape, dtype=np.int64) for _ in range(nd)]
    for kpow in range(2 * nd - 1):
        ck = conv[kpow] % p
        for t in range(nd):
            if red[kpow, t]:
                coeffs[t] += ck * int(red[kpow, t])
    for t in range(nd):
        out += (coeffs[t] % p) * powers[t]
    return out.astype(DT)


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
    R = A.astype(DT).copy()
    m, n = R.shape
    prime = F.n == 1
    p = F.p
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
        if prime:
            R[r] = (R[r].astype(np.int64) * int(F.inv[R[r, c]])) % p
        else:
            R[r] = F.mul[F.inv[R[r, c]], R[r]]
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            factors = F.neg[R[rows, c]]
            if prime:
                upd = R[rows].astype(np.int64) + factors[:, None].astype(np.int64) * R[r][None, :]
                R[rows] = (upd % p).astype(DT)
            else:
                R[rows] = F.add[R[rows], F.mul[factors[:, None], R[r][None, :]]]
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
    free = [c for c in range(n) if c not in pivots]
    K = zeros(n, len(free))
    for idx, fcol in enumerate(free):
        K[fcol, idx] = 1
        for i, pcol in enumerate(pivots):
            K[pcol, idx] = F.neg[R[i, fcol]]
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


def complement_coords(F: GFTables, S: np.ndarray):
    """Coordinate indices extending col(S) to the full space.

    Returns the list of standard basis indices e_i (in increasing order)
    such that col(S) + span(e_i) is a direct sum filling F^m.
    """
    m = S.shape[0]
    base = column_space(F, S) if S.size else zeros(m, 0)
    coords = []
    cur = base
    r = rank(F, cur) if cur.size else 0
    for i in range(m):
        e = zeros(m, 1)
        e[i, 0] = 1
        cand = np.concatenate([cur, e], axis=1)
        if rank(F, cand) > r:
            coords.append(i)
            cur = cand
            r += 1
        if r == m:
            break
    return coords


def restrict_operator(F: GFTables, K: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Matrix X with T K = K X, for T-invariant col(K) (K full column rank)."""
    X = solve(F, K, matmul(F, T, K))
    if X is None:
        raise ValueError("subspace is not invariant under the operator")
    return X
