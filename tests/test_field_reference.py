"""The field's one multiplication (`FieldDescriptor.mulmat`) against the
constructions it replaced, kept here as references: polynomial products
reduced by `_poly_mod`, the digit-convolution build of the index tables,
and an entry-wise table reduction for matrix products."""

import random

import numpy as np
import pytest

from oracles.points_oracle import elements
from supvar.gfield import MAX_DEGREE, SUPPORTED_PRIMES, _poly_mod, make_field
import supvar.linalg as la

FIELDS_UP_TO_625 = [
    (p, n) for p in SUPPORTED_PRIMES for n in range(1, MAX_DEGREE + 1) if p**n <= 625
]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _ref_product(field, a, b):
    """Coefficients of a * b by schoolbook product and reduction."""
    prod = _poly_mul(list(a), list(b), field.p)
    red = _poly_mod(prod, list(field.modulus), field.p) if field.n > 1 else prod
    return tuple((red + [0] * field.n)[: field.n])


def _convolution_tables(field):
    """add, mul, neg, inv and frob as the tables were first built: digit
    convolution, then reduction by the rows x^k mod the modulus."""
    p, n, q = field.p, field.n, field.q
    powers = p ** np.arange(n, dtype=np.int64)
    idx = np.arange(q, dtype=np.int64)
    coeffs = np.stack([(idx // powers[i]) % p for i in range(n)], axis=1)
    red = np.zeros((2 * n - 1, n), dtype=np.int64)
    for k in range(n):
        red[k, k] = 1
    mod = np.array(field.modulus, dtype=np.int64)
    for k in range(n, 2 * n - 1):
        shifted = np.zeros(n + 1, dtype=np.int64)
        shifted[1:] = red[k - 1]
        shifted[:n] = (shifted[:n] - shifted[n] * mod[:n]) % p
        red[k] = shifted[:n] % p
    add = ((coeffs[:, None, :] + coeffs[None, :, :]) % p * powers).sum(axis=2)
    conv = np.zeros((q, q, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            conv[:, :, i + j] += coeffs[:, i, None] * coeffs[None, :, j]
    mul = (np.tensordot(conv % p, red, axes=([2], [0])) % p * powers).sum(axis=2)
    neg = ((-coeffs) % p * powers).sum(axis=1)
    inv = np.zeros(q, dtype=np.int64)
    ones = np.argwhere(mul == 1)
    inv[ones[:, 0]] = ones[:, 1]
    # x -> x^p is F_p-linear: row i is x^(i p), by schoolbook products
    frob_rows = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        e = [1] + [0] * (n - 1)
        for _ in range(p):
            e = _ref_product(field, e, [int(i == t) for t in range(n)])
        frob_rows[i] = e
    frob = ((coeffs @ frob_rows) % p * powers).sum(axis=1)
    return {"add": add, "mul": mul, "neg": neg, "inv": inv, "frob": frob}


@pytest.mark.parametrize("p,n", FIELDS_UP_TO_625)
def test_tables_match_digit_convolution(p, n):
    field = make_field(p, n)
    F = la.GFTables(field)
    for name, want in _convolution_tables(field).items():
        got = getattr(F, name)
        assert got.dtype == la.DT, name
        assert np.array_equal(got, want), (name, p, n)


@pytest.mark.parametrize("p,n", FIELDS_UP_TO_625)
def test_element_product_matches_polynomial_product(p, n):
    field = make_field(p, n)
    elems = elements(field)
    if field.q <= 81:
        pairs = [(a, b) for a in elems for b in elems]
    else:
        rng = random.Random(p * 10 + n)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(3000)]
    for a, b in pairs:
        c = a * b
        assert c.coeffs == _ref_product(field, a.coeffs, b.coeffs), (a, b)
        assert all(type(x) is int for x in c.coeffs)


def _entrywise_product(F, A, B):
    """AB as a reduction over the inner index by the add and mul tables."""
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    acc = np.zeros(shape, dtype=la.DT)
    for t in range(A.shape[-1]):
        acc = F.add[acc, F.mul[A[..., :, t, None], B[..., None, t, :]]]
    return acc


PRODUCT_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)]
PRODUCT_SHAPES = [
    ((4, 5), (5, 3)),
    ((1, 1), (1, 1)),
    ((7, 9), (9, 6)),
    ((3, 4, 5), (3, 5, 2)),  # stacks
    ((4, 5), (6, 5, 3)),  # one matrix against a stack
    ((2, 1, 3, 4), (5, 4, 2)),  # stacks broadcast against each other
    ((0, 4), (4, 3)),  # empty dimensions
    ((3, 0), (0, 5)),
    ((3, 4), (4, 0)),
    ((0, 2, 3), (3, 3)),
]


@pytest.mark.parametrize("p,n", PRODUCT_FIELDS)
def test_bmatmul_matches_entrywise_reduction(p, n):
    F = la.tables(make_field(p, n))
    rng = np.random.default_rng(p * 10 + n)
    for sa, sb in PRODUCT_SHAPES:
        A = rng.integers(0, F.q, size=sa).astype(la.DT)
        B = rng.integers(0, F.q, size=sb).astype(la.DT)
        C = la.bmatmul(F, A, B)
        want = _entrywise_product(F, A, B)
        assert C.dtype == la.DT and C.shape == want.shape, (sa, sb)
        assert np.array_equal(C, want), (sa, sb)
    # sparse and all-(q-1) entries, the largest digits
    for fill in (0, F.q - 1):
        A = np.full((6, 40), fill, dtype=la.DT)
        A[::2, ::3] = rng.integers(0, F.q, size=A[::2, ::3].shape)
        B = np.full((40, 5), F.q - 1, dtype=la.DT)
        assert np.array_equal(la.bmatmul(F, A, B), _entrywise_product(F, A, B))


def test_bmatmul_refuses_inexact_sizes():
    # k n (p-1)^2 must stay below 2^53; zero-stride views allocate nothing
    F = la.tables(make_field(5, 3))
    k = 2**53 // (3 * 16) + 1
    A = np.broadcast_to(np.zeros(1, dtype=la.DT), (1, k))
    B = np.broadcast_to(np.zeros((1, 1), dtype=la.DT), (k, 1))
    with pytest.raises(AssertionError):
        la.bmatmul(F, A, B)
