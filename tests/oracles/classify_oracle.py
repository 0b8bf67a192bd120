"""The quotient classifier as a scan: one solve per gamma index.

classify_quotient reads the first linear dependence among the gamma images
off one rref of gamma_1 .. gamma_{dim+1} and checks surjectivity with one
rank over a bound it derives from that dependence.  This oracle finds the
dependence the direct way, solving for gamma_ell against gamma_1 ..
gamma_{ell-1} for ell = 1, 2, ..., and checks surjectivity with a separate
set of spanning images for each kind of label.  Both raise ValidationError
with the same texts, in the same order of checks.
"""

import numpy as np

from supvar import linalg
from supvar.errors import ValidationError
from supvar.superalg.morphisms import QuotientLabel
from supvar.superalg.pr import PrPresentation


def _gamma_images(B, p, imgs, v_img):
    """x -> image of the basis element x of P_max(s,1), u_i -> imgs[i]."""
    pres = PrPresentation(p, max(len(imgs), 1))
    images = {"u0": B.el_zero(), **{f"u{i}": g for i, g in enumerate(imgs)}, "v": v_img}
    memo = {}
    return lambda x: B.el_word(*pres.gamma_monomial(x), images, memo)


def classify_quotient_scan(phi) -> QuotientLabel:
    if not isinstance(phi.source, PrPresentation):
        raise ValidationError("classification needs a P_r presentation source")
    phi.verify_hopf()
    B = phi.target
    F = B.F
    p = phi.source.p

    # strip leading u-generators with zero image (P_r -> P_{r-1} descent)
    imgs = [phi.images[f"u{i}"] for i in range(phi.source.r)]
    v_img = phi.images["v"]
    while imgs and not np.any(imgs[0]):
        imgs.pop(0)
    s = len(imgs)

    if s == 0:
        label = (
            QuotientLabel("GaMinus") if np.any(v_img) else QuotientLabel("Gar", r=0)
        )
        _check_surjective(phi, label, imgs, v_img)
        return label

    gamma = _gamma_images(B, p, imgs, v_img)

    # scan gamma images for the first dependence
    cols = []
    ell = 0
    dep_index = None
    dep_coeffs = None
    while dep_index is None:
        ell += 1
        if ell > 2 * B.dim + 2:
            raise ValidationError("no dependence found; target not finite-dimensional?")
        vec = gamma(2 * ell)
        if cols:
            M = np.stack(cols, axis=1)
            sol = linalg.solve(F, M, vec)
        else:
            sol = np.zeros(0, dtype=linalg.DT) if not np.any(vec) else None
        if sol is not None:
            dep_index = ell
            dep_coeffs = sol
        else:
            cols.append(vec)

    # the dependence index must be a power p^{s+e}
    e = 0
    n = dep_index
    while n % p == 0:
        n //= p
        e += 1
    if n != 1 or e < s:
        raise ValidationError(
            f"dependence at index {dep_index}, not of the form p^(r+e); not a Hopf quotient"
        )
    e -= s
    allowed = {1} | {p ** (s + i) for i in range(e)}
    coeffs = {}
    for ldx, c in enumerate(dep_coeffs, start=1):
        if int(c) == 0:
            continue
        if ldx not in allowed:
            raise ValidationError(
                f"dependence involves gamma_{ldx}; not a Hopf quotient"
            )
        coeffs[ldx] = int(c)

    if not np.any(v_img):
        if e != 0 or coeffs:
            raise ValidationError("purely even quotient with nontrivial dependence")
        label = QuotientLabel("Gar", r=s)
        _check_surjective(phi, label, imgs, v_img)
        return label

    # f = T^{p^{e+1}} - sum a_{p^{s-1+i}} T^{p^i}, eta = -a_1
    fvec = [0] * (e + 1)
    for i in range(1, e + 1):
        a = coeffs.get(p ** (s - 1 + i), 0)
        fvec[i - 1] = int(F.neg[a])
    fvec[e] = 1
    eta = int(F.neg[coeffs.get(1, 0)])
    label = QuotientLabel("Mrf", r=s, f=tuple(fvec), eta=eta)
    _check_surjective(phi, label, imgs, v_img)
    return label


def _check_surjective(phi, label, imgs, v_img):
    """The spanned image must be all of the target."""
    B = phi.target
    F = B.F
    p = phi.source.p
    if label.kind == "GaMinus":
        gammas = [B.el_unit(), v_img]
    elif label.kind == "Gar":
        bound = p**label.r if label.r else 1
        gamma = _gamma_images(B, p, imgs, v_img)
        gammas = [gamma(x) for x in range(0, 2 * bound, 2)]
    else:
        bound = p ** (label.r + len(label.f) - 1)
        gamma = _gamma_images(B, p, imgs, v_img)
        gammas = [gamma(x) for x in range(2 * bound)]
    M = np.stack(gammas, axis=1)
    if linalg.rank(F, M) != B.dim:
        raise ValidationError("morphism is not surjective onto the target")
