"""A dense module check, the oracle of smod.validate_module.

validate_module checks a module against kG's product one generator at a
time: X_g rho(b_j) = sum_k T[g, j, k] rho(b_k).  Here is the check on every
pair of basis elements, with each rho(b_i) built from its stored monomial
here, by matrix powers: rho(b_i) rho(b_j) = sum_k T[i, j, k] rho(b_k).  The
monomial of the unit is empty, so rho(1) = I, and rho is then a unital
algebra map: the module is a kG-module exactly when the check holds.

monomial_actions, each monomial's own chain of matrix powers, is also the
reference of SuperModule.basis_actions, which walks every monomial's word
with one memo for all of them.
"""

import numpy as np

from supvar import linalg


def monomial_actions(M):
    """rho(b_i) for every basis index i, (algebra dim, dim, dim): the
    scalar times the product of the generators' matrix powers."""
    F, n = M.F, M.dim
    out = []
    for c, mon in M.algebra.monomials:
        R = linalg.identity(n)
        for g, e in mon:
            R = linalg.matmul(F, R, linalg.matpow(F, M.action[g], e))
        out.append(linalg.scale(F, c, R))
    return np.stack(out)


def is_module_dense(M) -> bool:
    """Whether rho(b_i) rho(b_j) = sum_k T[i, j, k] rho(b_k) for all (i, j),
    as one stacked product of size (dim A)^2 against the tensor."""
    A, F, n = M.algebra, M.F, M.dim
    d = A.dim
    R = monomial_actions(M)
    lhs = linalg.bmatmul(F, R[:, None], R[None, :])
    rhs = linalg.matmul(F, A.tensor.reshape(d * d, d), R.reshape(d, n * n))
    return np.array_equal(lhs.reshape(d * d, n * n), rhs)
