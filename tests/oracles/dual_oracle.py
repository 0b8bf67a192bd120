"""The coordinate coalgebra k[M_{r;s}] and its dualization.

k[M_{r;s}] is the supercommutative algebra on the odd tau and even theta,
sigma_1, ..., sigma_{p^s - 1} with

    tau^2 = 0,   theta^{p^{r-1}} = sigma_1,   sigma_i sigma_j = C(i+j, i) sigma_{i+j},

and monomial basis {theta^i sigma_j tau^eps : i < p^{r-1}, j < p^s}.  The
coproduct is determined by tau and theta primitive and

    Delta(sigma_i) = sum_{u+v=i} sigma_u (x) sigma_v
                   + sum_{u+v+p=i} sigma_u tau (x) sigma_v tau.

Dualizing against this basis and rewriting in the divided-power basis
gives, independently of the closed-form formulas in pr.py, the
multiplication and coproduct tables of the group algebra kM_{r;s}.  This
is the oracle that cross-checks build_group_algebra and pr_coproduct.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from supvar import linalg
from supvar.errors import BoundExceeded, ValidationError
from supvar.superalg.algebra import DIM_CAP
from supvar.superalg.pr import digit_factorial_product


@dataclass
class CoordinateCoalgebraOracle:
    """k[M_{r;s}] tables plus the dualized group algebra tables.

    gamma-basis indexing matches build_group_algebra: index ell for
    gamma_ell and n_gamma + ell for v*gamma_ell.
    """

    p: int
    r: int
    s: int
    field: object
    dim: int
    basis: tuple  # monomials (eps, i, j)
    coord_mult: dict  # (a, b) -> tuple of (m, coeff_index)
    coord_coproduct: tuple  # per a: tuple of (b, c, coeff_index)
    change_of_basis: np.ndarray  # columns: gamma basis in dual-of-monomial coords
    gamma_mult: dict  # (x, y) -> tuple of (z, coeff_index)
    gamma_coproduct: tuple  # per x: tuple of (y, z, coeff_index)


def _coord_algebra(p, r, s, F):
    """Monomial basis and multiplication table of k[M_{r;s}]."""
    ptheta = p ** (r - 1)
    psig = p**s
    basis = []
    index = {}
    for eps in (0, 1):
        for i in range(ptheta):
            for j in range(psig):
                index[(eps, i, j)] = len(basis)
                basis.append((eps, i, j))
    dim = len(basis)

    def mono_mul(m1, m2):
        """Product of two basis monomials: list of (basis index, coeff mod p)."""
        e1, i1, j1 = m1
        e2, i2, j2 = m2
        if e1 and e2:
            return []
        q, i = divmod(i1 + i2, ptheta)
        # theta^(i1+i2) = theta^i * sigma_1^q with sigma_1^q = q! sigma_q
        coeff = 1
        for t in range(1, q + 1):
            coeff = coeff * t % p
        # sigma_q sigma_{j1} sigma_{j2}
        coeff = coeff * comb(q + j1, q) % p * comb(q + j1 + j2, j2) % p
        jj = q + j1 + j2
        if jj >= psig:
            if coeff % p:
                raise AssertionError("coordinate algebra not closed")
            return []
        if coeff % p == 0:
            return []
        return [(index[(e1 | e2, i, jj)], coeff % p)]

    mult = {}
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            ent = mono_mul(ma, mb)
            if ent:
                mult[(a, b)] = tuple((m, F.scalar(c)) for m, c in ent)
    return basis, index, mult


def _coord_coproduct(p, r, s, basis, index, mult, F):
    """Coproduct table of k[M_{r;s}] from the generator formulas."""
    ptheta = p ** (r - 1)
    psig = p**s

    def tensor_mul(t1, t2):
        """Multiply sparse tensors {(a,b): cidx} with the Koszul sign."""
        out = {}
        for (a1, b1), c1 in t1.items():
            pa = basis[b1][0]  # parity of the right factor = its tau exponent
            for (a2, b2), c2 in t2.items():
                sign = -1 if (pa and basis[a2][0]) else 1
                c = int(F.mul[c1, c2])
                if sign < 0:
                    c = int(F.neg[c])
                for ma, ca in mult.get((a1, a2), ()):
                    for mb, cb in mult.get((b1, b2), ()):
                        v = int(F.mul[c, int(F.mul[ca, cb])])
                        key = (ma, mb)
                        out[key] = int(F.add[out.get(key, 0), v])
        return {k: v for k, v in out.items() if v}

    one = index[(0, 0, 0)]

    def delta_theta_pow(i):
        out = {}
        for k in range(i + 1):
            c = comb(i, k) % p
            if c:
                out[(index[(0, k, 0)], index[(0, i - k, 0)])] = F.scalar(c)
        return out

    def delta_sigma(j):
        out = {}
        for u in range(j + 1):
            v = j - u
            if u < psig and v < psig:
                key = (index[(0, 0, u)], index[(0, 0, v)])
                out[key] = int(F.add[out.get(key, 0), 1])
        for u in range(max(0, j - p) + 1):
            v = j - p - u
            if v < 0:
                continue
            if u < psig and v < psig:
                key = (index[(1, 0, u)], index[(1, 0, v)])
                out[key] = int(F.add[out.get(key, 0), 1])
        return out

    delta_tau = {
        (index[(1, 0, 0)], one): 1,
        (one, index[(1, 0, 0)]): 1,
    }

    cop = []
    for eps, i, j in basis:
        t = {(one, one): 1}
        if eps:
            t = tensor_mul(t, delta_tau)
        if i:
            t = tensor_mul(t, delta_theta_pow(i))
        if j:
            t = tensor_mul(t, delta_sigma(j))
        cop.append(tuple((a, b, c) for (a, b), c in sorted(t.items())))
    return tuple(cop)


def _convolve(F, basis, cop, f, g, g_parity):
    """Convolution product of functionals on the coordinate algebra.

    (f g)(m) = sum over Delta(m) = sum c a (x) b of c (-1)^{|g||a|} f(a) g(b).
    """
    out = np.zeros(len(basis), dtype=linalg.DT)
    for m in range(len(basis)):
        acc = 0
        for a, b, c in cop[m]:
            if f[a] == 0 or g[b] == 0:
                continue
            v = int(F.mul[int(F.mul[f[a], g[b]]), c])
            if g_parity and basis[a][0]:
                v = int(F.neg[v])
            acc = int(F.add[acc, v])
        out[m] = acc
    return out


def km_r_dual_oracle(p: int, r: int, s: int, field=None) -> CoordinateCoalgebraOracle:
    """Build k[M_{r;s}], dualize, and return gamma-basis tables of kM_{r;s}."""
    from supvar.gfield import make_field

    if field is None:
        field = make_field(p, 1)
    n_gamma = p ** (r + s - 1)
    if 2 * n_gamma > DIM_CAP:
        raise BoundExceeded(f"dimension {2 * n_gamma} exceeds cap {DIM_CAP}")
    F = linalg.tables(field)
    basis, index, mult = _coord_algebra(p, r, s, F)
    cop = _coord_coproduct(p, r, s, basis, index, mult, F)
    dim = len(basis)
    assert dim == 2 * n_gamma

    # functionals u_0..u_{r-1} and v as dual-basis vectors
    def dual_vec(mono):
        v = np.zeros(dim, dtype=linalg.DT)
        v[index[mono]] = 1
        return v

    u_fun = [dual_vec((0, p**k, 0)) for k in range(r - 1)]
    u_fun.append(dual_vec((0, 0, 1)))  # u_{r-1}, dual to sigma_1
    v_fun = dual_vec((1, 0, 0))
    unit_fun = dual_vec((0, 0, 0))  # the counit of the coordinate algebra

    def gamma_fun(ell, has_v):
        out = unit_fun.copy()
        par = 0
        if has_v:
            out = _convolve(F, basis, cop, out, v_fun, 1)
            par = 1
        rest = ell
        for k in range(r - 1):
            for _ in range(rest % p):
                out = _convolve(F, basis, cop, out, u_fun[k], 0)
            rest //= p
        for _ in range(rest):
            out = _convolve(F, basis, cop, out, u_fun[r - 1], 0)
        inv_c = pow(digit_factorial_product(ell, p), p - 2, p)
        return F.mul[F.scalar(inv_c), out]

    cols = [gamma_fun(l, False) for l in range(n_gamma)]
    cols += [gamma_fun(l, True) for l in range(n_gamma)]
    C = np.stack(cols, axis=1)
    Cinv = linalg.solve(F, C, linalg.identity(dim))
    if Cinv is None:
        raise ValidationError("gamma functionals are not a basis; oracle failed")

    gparity = [basis_parity_of_gamma(i, n_gamma) for i in range(dim)]

    gamma_mult = {}
    for x in range(dim):
        for y in range(dim):
            prod = _convolve(F, basis, cop, C[:, x], C[:, y], gparity[y])
            z = linalg.matvec(F, Cinv, prod)
            ent = tuple((int(k), int(z[k])) for k in np.nonzero(z)[0])
            if ent:
                gamma_mult[(x, y)] = ent

    # dual coproduct: <Delta f, a (x) b> = f(ab) with the evaluation sign
    gamma_cop = []
    for x in range(dim):
        f = C[:, x]
        T = np.zeros((dim, dim), dtype=linalg.DT)
        for (a, b), ent in mult.items():
            acc = 0
            for m, c in ent:
                if f[m]:
                    acc = int(F.add[acc, int(F.mul[f[m], c])])
            if acc and basis[a][0] and basis[b][0]:
                acc = int(F.neg[acc])
            T[a, b] = acc
        X = linalg.matmul(F, linalg.matmul(F, Cinv, T), Cinv.T)
        terms = []
        for yy, zz in zip(*np.nonzero(X)):
            terms.append((int(yy), int(zz), int(X[yy, zz])))
        gamma_cop.append(tuple(sorted(terms)))

    return CoordinateCoalgebraOracle(
        p=p,
        r=r,
        s=s,
        field=field,
        dim=dim,
        basis=tuple(basis),
        coord_mult=mult,
        coord_coproduct=cop,
        change_of_basis=C,
        gamma_mult=gamma_mult,
        gamma_coproduct=tuple(gamma_cop),
    )


def basis_parity_of_gamma(i: int, n_gamma: int) -> int:
    return 1 if i >= n_gamma else 0
