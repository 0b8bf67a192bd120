"""Restriction of an operator to an invariant subspace: the reference for
the implicit free modules of homalg.minimal_resolution."""

import numpy as np

from supvar.linalg import GFTables, matmul, solve


def restrict_operator(F: GFTables, K: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Matrix X with T K = K X, for T-invariant col(K) (K full column rank)."""
    X = solve(F, K, matmul(F, T, K))
    if X is None:
        raise ValueError("subspace is not invariant under the operator")
    return X
