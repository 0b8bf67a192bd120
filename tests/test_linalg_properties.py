"""Property tests of the index linear algebra over prime and extension fields.

`bmatmul` is checked against an entrywise product from the field's
addition and multiplication tables, on broadcast stacks, so both its
prime-field path (an index is its value) and the restriction of scalars
for n > 1 are covered.  The elimination routines are checked through the
identities they must satisfy.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import supvar.linalg as la  # noqa: E402
from supvar.gfield import make_field  # noqa: E402

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]

# (A's stack axes, B's stack axes), broadcast against each other
LEADS = [((), ()), ((2,), ()), ((), (3,)), ((1,), (2,)), ((2, 1), (3,))]


def _tables(field):
    return la.tables(make_field(*field))


@st.composite
def matrices(draw, F, shape):
    """Index matrices of the given shape, often sparse, sometimes of low rank."""
    size = int(np.prod(shape))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    cells = np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=la.DT)
    M = cells.reshape(shape)
    if len(shape) == 2 and min(shape) > 1 and draw(st.booleans()):
        # rank at most r: a product of m x r and r x n factors
        r = draw(st.integers(1, min(shape) - 1))
        left = draw(matrices(F, (shape[0], r)))
        right = draw(matrices(F, (r, shape[1])))
        M = la.matmul(F, left, right)
    return M


@st.composite
def field_and_matrix(draw, max_rows=6, max_cols=6):
    F = _tables(draw(st.sampled_from(FIELDS)))
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    return F, draw(matrices(F, (m, n)))


def _entrywise(F, A, B):
    """The product of broadcast stacks, one entry at a time."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    m, k = A.shape[-2:]
    out = np.zeros(lead + (m, B.shape[-1]), dtype=la.DT)
    for idx in np.ndindex(*out.shape):
        *s, i, j = idx
        acc = 0
        for t in range(k):
            acc = F.add[acc, F.mul[A[(*s, i, t)], B[(*s, t, j)]]]
        out[idx] = acc
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bmatmul_matches_entrywise_product(data):
    F = _tables(data.draw(st.sampled_from(FIELDS)))
    lead_a, lead_b = data.draw(st.sampled_from(LEADS))
    m, k, l = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = data.draw(matrices(F, lead_a + (m, k)))
    B = data.draw(matrices(F, lead_b + (k, l)))
    C = la.bmatmul(F, A, B)
    assert C.dtype == la.DT
    assert np.array_equal(C, _entrywise(F, A, B))


@settings(max_examples=80, deadline=None)
@given(case=field_and_matrix())
def test_rref_is_idempotent(case):
    F, A = case
    R, pivots = la.rref(F, A)
    R2, pivots2 = la.rref(F, R)
    assert pivots2 == pivots
    assert np.array_equal(R2, R)


@settings(max_examples=80, deadline=None)
@given(case=field_and_matrix())
def test_right_kernel_is_the_kernel(case):
    F, A = case
    n = A.shape[1]
    K = la.right_kernel(F, A)
    assert K.shape == (n, n - la.rank(F, A))
    assert not la.matmul(F, A, K).any()
    assert la.rank(F, K) == K.shape[1]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_exactly_when_consistent(data):
    F, A = data.draw(field_and_matrix(max_rows=5, max_cols=5))
    m, n = A.shape
    k = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        B = la.matmul(F, A, data.draw(matrices(F, (n, k))))  # consistent
    else:
        B = data.draw(matrices(F, (m, k)))
    X = la.solve(F, A, B)
    consistent = la.rank(F, np.concatenate([A, B], axis=1)) == la.rank(F, A)
    assert (X is not None) == consistent
    if X is not None:
        assert X.shape == (n, k)
        assert np.array_equal(la.matmul(F, A, X), B)


@pytest.mark.parametrize("field", FIELDS, ids=[f"F{p}^{n}" for p, n in FIELDS])
def test_exactness_bound_is_asserted(field):
    # the least k with k n (p-1)^2 >= 2^53; zero-stride operands allocate nothing
    F = _tables(field)
    k = -(-(2**53) // (F.n * (F.p - 1) ** 2))
    A = np.broadcast_to(la.zeros(1, 1), (1, k))
    B = np.broadcast_to(la.zeros(1, 1), (k, 1))
    with pytest.raises(AssertionError):
        la.bmatmul(F, A, B)
