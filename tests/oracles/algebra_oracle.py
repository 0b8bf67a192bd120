"""The algebra checks that the generator-based ones replaced, as oracles.

verify_algebra checks associativity as (xy)g = x(yg) and the augmentation
on (x, g) for the generators g; verify_hopf checks the coproduct on (x, g);
homalg._check_local builds each layer I^{n+1} from the generators.  Here
are the loops they replaced, unchanged: every basis triple and pair, and
layers built from the whole radical.  Each raises the error the library
raised, naming the first failure in lexicographic order.

tensor_algebra builds the coproduct of A (x) B as one Koszul-signed outer
product of the factors' tensors; tensor_coproduct is the loop over pairs of
coproduct terms that it replaced.  The oracles read the coproduct tensor
C[i, j, k] as lists of terms (j, k, c) through coproduct_triples.
"""

import numpy as np

from supvar import linalg
from supvar.errors import ValidationError
from supvar.superalg.algebra import AlgebraError


def verify_associative_d3(alg):
    """Associativity on every basis triple through the dense structure
    tensor T (b_i b_j = sum_k T[i, j, k] b_k): for each i, (b_i b_j) b_k and
    b_i (b_j b_k) over all (j, k) are two array products, so scratch memory
    stays O(d^3)."""
    d, F, T = alg.dim, alg.F, alg.tensor
    flat = T.reshape(d, d * d)
    for i in range(d):
        lhs = linalg.bmatmul(F, T[i], flat).reshape(d, d, d)
        rhs = linalg.bmatmul(F, flat.reshape(d * d, d), T[i]).reshape(d, d, d)
        if not np.array_equal(lhs, rhs):
            j, k = np.argwhere(lhs != rhs)[0][:2]
            raise AlgebraError(f"associativity fails at ({i},{j},{k})")


def verify_augmentation_pairs(alg):
    """The augmentation is multiplicative on all pairs, as one array
    comparison, its values taken one slice T[i] at a time."""
    d, F, aug, T = alg.dim, alg.F, alg.augmentation, alg.tensor
    counits = np.stack([linalg.matvec(F, T[i], aug) for i in range(d)])  # of b_i b_j
    want = F.mul[aug[:, None], aug[None, :]]
    if not np.array_equal(counits, want):
        i, j = np.argwhere(counits != want)[0]
        raise AlgebraError(f"augmentation not multiplicative at ({i},{j})")


def coproduct_triples(alg):
    """Delta(b_i) for every basis index i, as the tuple of terms (j, k, c)
    of C[i]'s nonzero entries in increasing (j, k)."""
    C = alg.hopf.coproduct
    return tuple(
        tuple((j, k, int(C[i, j, k])) for j, k in np.argwhere(C[i]).tolist())
        for i in range(alg.dim)
    )


def tensor_coproduct(F, factors):
    """coproduct_triples of the tensor product of the algebras `factors`,
    folded left: Delta(a (x) b) = sum (-1)^{|a2||b1|} (a1 (x) b1) (x)
    (a2 (x) b2) over the terms of Delta(a) and Delta(b), with a (x) b at
    index i * dim B + j."""
    cop, par = coproduct_triples(factors[0]), factors[0].parity
    for B in factors[1:]:
        cop_b, out = coproduct_triples(B), []
        for i in range(len(cop)):
            for j in range(B.dim):
                terms = {}
                for a1, a2, ca in cop[i]:
                    for b1, b2, cb in cop_b[j]:
                        c = int(F.mul[F.scalar(ca), F.scalar(cb)])
                        if par[a2] and B.parity[b1]:
                            c = int(F.neg[c])
                        key = (a1 * B.dim + b1, a2 * B.dim + b2)
                        terms[key] = int(F.add[terms.get(key, 0), c])
                out.append(tuple((a, b, v) for (a, b), v in sorted(terms.items()) if v))
        cop, par = tuple(out), (par[:, None] ^ B.parity[None, :]).ravel()
    return cop


def _tensor_square_product(alg, t1, t2):
    """Product of two sparse tensors {(j,k): c} in alg (x) alg, Koszul signs."""
    F = alg.F
    out = {}
    for (j1, k1), c1 in t1.items():
        for (j2, k2), c2 in t2.items():
            c = int(F.mul[c1, c2])
            if alg.parity[k1] and alg.parity[j2]:
                c = int(F.neg[c])
            for m1, cm1 in alg.products.get((j1, j2), ()):
                for m2, cm2 in alg.products.get((k1, k2), ()):
                    v = int(F.mul[c, int(F.mul[cm1, cm2])])
                    out[m1, m2] = int(F.add[out.get((m1, m2), 0), v])
    return {k: v for k, v in out.items() if v}


def verify_coproduct_pairs(alg):
    """The coproduct is an algebra map into the super tensor square, on
    every pair of basis elements."""
    F = alg.F
    cop = coproduct_triples(alg)
    d = alg.dim
    pairs = [(i, j) for i in range(d) for j in range(d)]
    for i, j in pairs:
        t1 = {(a, b): F.scalar(c) for a, b, c in cop[i]}
        t2 = {(a, b): F.scalar(c) for a, b, c in cop[j]}
        got = _tensor_square_product(alg, t1, t2)
        want = {}
        for k, c in alg.products.get((i, j), ()):
            for a, b, c2 in cop[k]:
                key = (a, b)
                want[key] = int(F.add[want.get(key, 0), F.mul[F.scalar(c), F.scalar(c2)]])
        want = {k: v for k, v in want.items() if v}
        if got != want:
            raise AlgebraError(f"coproduct not multiplicative at ({i},{j})")


def radical_layers(A):
    """Augmentation ideal I spanned by the non-unit basis and nilpotent;
    returns the dimensions of I, I^2, ..., ending in 0.

    The layer I^{n+1} = I I^n is spanned by the products b_r x = x T[r] of
    the radical basis b_r with a basis x of I^n, taken as one stacked
    product for sixteen r at a time (on the support s of the x), so no
    temporary grows with the whole tensor.  One rref keeps a basis.
    """
    F = linalg.tables(A.field)
    d, rad, T = A.dim, np.array(A.radical_coords(), dtype=int), A.tensor
    if A.augmentation[rad].any() or not A.augmentation[0]:
        raise ValidationError("algebra augmentation is not the unit indicator")
    layer, dims = linalg.identity(d)[rad], []
    for _ in range(d + 1):
        dims.append(len(layer))
        if not layer.size:
            return dims
        s = np.flatnonzero(layer.any(axis=0))
        prods = []
        for lo in range(0, len(rad), 16):
            P = linalg.bmatmul(F, layer[:, s], T[rad[lo : lo + 16]][:, s]).reshape(-1, d)
            prods.append(P[P.any(axis=1)])
        R, pivots = linalg.rref(F, np.concatenate(prods))
        layer = R[: len(pivots)]
    raise ValidationError("augmentation ideal is not nilpotent; algebra not local")
