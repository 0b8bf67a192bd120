"""Morphisms out of P_r presentations and the quotient classification.

A morphism is stored by generator images only; everything else (images of
the divided-power basis, Hopf compatibility, surjectivity) is derived on
demand.  classify_quotient implements the structure theorem for
finite-dimensional Hopf superalgebra quotients of P_r: every such quotient
is a group algebra kG_{a(s)}, kG_{a(s)} x kG_a^-, or kM_{s;f,eta}, and the
classification data is read off from the first linear dependence among the
images of gamma_1, gamma_2, gamma_3, ...
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cache

import numpy as np

from ..errors import ValidationError
from .. import linalg
from .algebra import GroupAlgebraSpec, PresentedSuperalgebra, canonical_images
from .pr import PrPresentation


@dataclass
class SuperalgebraMorphism:
    """Generator images of a map from a P_r presentation into a finite
    presented superalgebra."""

    source: PrPresentation
    target: PresentedSuperalgebra
    images: dict  # generator name -> (dim,) index vector over target basis
    _image_cache: dict = dfield(default_factory=dict)

    def live(self):
        """The source generators with a nonzero image."""
        return {g for g in self.source.gen_names if np.any(self.images[g])}

    def image_of_monomial(self, coeff, mon):
        """Image of coeff * prod gens^exp, multiplied in the target (el_word)."""
        return self.target.el_word(coeff, mon, self.images, self._image_cache)

    def gamma_image(self, x: int):
        """Image of the P_r basis element x = 2 ell + |x| (see pr)."""
        return self.image_of_monomial(*self.source.gamma_monomial(x))

    def verify_algebra(self):
        """Generator parities and the relations of P_r.  A term with a
        generator mapping to zero is zero with no product (el_word), and a
        relation with only such terms is never built."""
        B = self.target
        for g in self.source.gen_names:
            if g not in self.images:
                raise ValidationError(f"missing image for generator {g}")
            par = B.element_parity(self.images[g])
            if par is None or (par != self.source.gen_parity(g) and np.any(self.images[g])):
                raise ValidationError(f"image of {g} has wrong parity")
        for label, terms in self.source.relations_among(self.live()):
            if np.any(B.el_terms(terms, self.images, self._image_cache)):
                raise ValidationError(f"relation {label} not killed by the morphism")
        return self

    def verify_hopf(self):
        """verify_algebra, then coproduct and antipode compatibility on
        generators.  Of Delta(g) only the terms whose sides have no letter
        mapping to zero are visited (PrPresentation.gen_coproduct), and a
        right side is not built when the left image is zero."""
        self.verify_algebra()
        B, live = self.target, self.live()
        F, C, d = B.F, B.hopf.coproduct, B.dim
        for g in self.source.gen_names:
            # (phi (x) phi)(Delta g), the sum of c phi(left) (x) phi(right)
            lhs = np.zeros((d, d), dtype=linalg.DT)
            for le, ri, c in self.source.gen_coproduct(g, live):
                vl = self.gamma_image(le)
                if np.any(vl):
                    lhs = F.add[lhs, F.mul[B.el_scale(c, vl)[:, None], self.gamma_image(ri)]]
            # Delta_B(phi(g)), over the support of phi(g)
            img = self.images[g]
            s = np.flatnonzero(img)
            rhs = linalg.matmul(F, img[None, s], C[s].reshape(len(s), d * d)).reshape(d, d)
            if not np.array_equal(lhs, rhs):
                raise ValidationError(f"coproduct compatibility fails on {g}")
            # antipode: S(g) = -g on every generator of P_r
            want = B.el_scale(-1, img)
            got = linalg.matvec(F, B.hopf.antipode, img)
            if not np.array_equal(want, got):
                raise ValidationError(f"antipode compatibility fails on {g}")
        return self


def canonical_quotient_morphism(alg: PresentedSuperalgebra) -> SuperalgebraMorphism:
    """The canonical P_r -> kG map for a quotient-family group algebra."""
    pres, images = canonical_images(alg)
    return SuperalgebraMorphism(pres, alg, images)


@dataclass
class QuotientLabel:
    """Classification result: which multiparameter group algebra a quotient is."""

    kind: str  # "Gar" | "GaMinus" | "Mrf"
    r: int = 0
    f: tuple = ()  # field element indices (c_1, ..., c_t), c_t nonzero
    eta: int = 0  # field element index

    def text(self, field) -> str:
        if self.kind == "Gar":
            return f"G_a({self.r})"
        if self.kind == "GaMinus":
            return "G_a^-"
        enc = lambda idx: field.from_index(idx).encode()
        f = self.f
        if all(c == 0 for c in f[:-1]) and f[-1] == 1:
            s = len(f)
            if self.eta:
                return f"M_{{{self.r};{s},{enc(self.eta)}}}"
            return f"M_{{{self.r};{s}}}"
        fs = ",".join(enc(c) for c in f)
        return f"M_{{{self.r};f=[{fs}],{enc(self.eta)}}}"

    def to_spec(self, p: int) -> GroupAlgebraSpec:
        """Spec with prime-field parameters (raises when they are not)."""
        if self.kind == "Gar":
            return GroupAlgebraSpec("Gar", p, r=self.r)
        if self.kind == "GaMinus":
            return GroupAlgebraSpec("GaMinus", p)
        if any(c >= p for c in self.f) or self.eta >= p:
            raise ValidationError("label parameters lie outside the prime field")
        f = tuple(int(c) for c in self.f)
        if all(c == 0 for c in f[:-1]) and f[-1] == 1:
            return GroupAlgebraSpec("Mrs", p, r=self.r, s=len(f), eta=int(self.eta))
        return GroupAlgebraSpec("Mrf", p, r=self.r, eta=int(self.eta), f=f)


def classify_quotient(phi: SuperalgebraMorphism) -> QuotientLabel:
    """Classify a finite-dimensional Hopf superalgebra quotient of P_r.

    One pass over one set of images, after verify_hopf.  Strip the leading
    u-generators with zero image (the descent P_r -> P_s) and read the
    images of P_s's basis elements x through one memo.  The dim + 1 columns
    gamma_1 .. gamma_{dim+1} are dependent, and the first dependence is at
    the first non-pivot column c of their rref: gamma_{c+1} is R[:c, c]
    against gamma_1 .. gamma_c.  It must occur at an index p^{s+e} and may
    only involve gamma_1 and the tower indices p^s, ..., p^{s+e-1};
    anything else means the input was not a Hopf morphism.  The map is onto
    when the images of x < 2 bound have rank dim, with bound the dependence
    index, or 1 when s = 0 (for G_a(s) the odd images are zero).
    """
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
    # P_0 is read as P_1 with u0 -> 0: its basis images are 1 and v
    sub, memo = PrPresentation(p, max(s, 1)), {}
    images = {"u0": B.el_zero(), **{f"u{i}": g for i, g in enumerate(imgs)}, "v": v_img}
    image = cache(lambda x: B.el_word(*sub.gamma_monomial(x), images, memo))

    label, bound = QuotientLabel("GaMinus" if np.any(v_img) else "Gar"), 1
    if s:
        gammas = np.stack([image(2 * ell) for ell in range(1, B.dim + 2)], axis=1)
        R, pivots = linalg.rref(F, gammas)
        c = next((j for j, q in enumerate(pivots) if j != q), len(pivots))
        bound = dep_index = c + 1
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
        coeffs = {ldx: a for ldx, a in enumerate(R[:c, c].tolist(), start=1) if a}
        stray = sorted(set(coeffs) - {1} - {p ** (s + i) for i in range(e)})
        if stray:
            raise ValidationError(f"dependence involves gamma_{stray[0]}; not a Hopf quotient")
        if not np.any(v_img):
            if e != 0 or coeffs:
                raise ValidationError("purely even quotient with nontrivial dependence")
            label = QuotientLabel("Gar", r=s)
        else:
            # f = T^{p^{e+1}} - sum a_{p^{s-1+i}} T^{p^i}, eta = -a_1
            f = [int(F.neg[coeffs.get(p ** (s - 1 + i), 0)]) for i in range(1, e + 1)]
            label = QuotientLabel("Mrf", r=s, f=(*f, 1), eta=int(F.neg[coeffs.get(1, 0)]))

    if linalg.rank(F, np.stack([image(x) for x in range(2 * bound)], axis=1)) != B.dim:
        raise ValidationError("morphism is not surjective onto the target")
    return label
