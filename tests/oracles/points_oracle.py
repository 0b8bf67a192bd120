"""Points of V_r(G) as tuples of FieldElements: the reference for the index
arrays of supvar.varieties.

Each candidate tuple is built from FieldElements and tested with their own
operators, one tuple at a time; the result is sorted on the tuples of
element texts, the order the program prints.  Nothing here uses GFTables,
so the enumeration, the constraint mu^2 = a_0^{p^r}, psi and the canonical
order are checked against an independent arithmetic.

Also here: the field helpers that the program no longer needs, kept as the
reference their tests compare the tables with.
"""

import itertools


def elements(field):
    """All field elements in index order."""
    return [field.from_index(i) for i in range(field.q)]


def inv(x):
    """Multiplicative inverse; raises FieldError on zero."""
    return x.inverse()


def frobenius(x):
    """The p-power map x -> x^p, a field automorphism of F_{p^n}."""
    return x**x.field.p


def inverse_frobenius(x):
    """The inverse of x -> x^p, i.e. x -> x^{p^{n-1}}."""
    out = x
    for _ in range(x.field.n - 1):
        out = frobenius(out)
    return out


def embed(x, field):
    """Embed a prime-field element into an extension of the same p."""
    if x.field == field:
        return x
    if x.field.n != 1 or x.field.p != field.p:
        raise ValueError(f"no canonical embedding {x.field.encode()} -> {field.encode()}")
    return field.element(x.coeffs[0])


def _sorted(pts):
    """Distinct tuples, sorted on their element texts."""
    uniq = {tuple(c.index for c in pt): pt for pt in pts}
    return sorted(uniq.values(), key=lambda pt: tuple(c.encode() for c in pt))


def family_points(spec, field):
    """Parametrized F_q points, as sorted tuples of FieldElements."""
    els = elements(field)
    p, r = spec.p, spec.r
    if spec.family == "GaMinus":
        return _sorted((d,) for d in els)
    if spec.family == "Gar":
        return _sorted(itertools.product(els, repeat=r))
    assert spec.family == "Mrs" and (spec.eta == 0 or r >= 2), spec
    pts = []
    for mu in els:
        for avec in itertools.product(els, repeat=r):
            if spec.eta == 0 and spec.s == 1:
                pts.append((mu,) + avec)
            elif (mu * mu).index == (avec[0] ** (p**r)).index:
                tails = [(b,) for b in els] if spec.eta == 0 else [()]
                pts += [(mu,) + avec + tail for tail in tails]
    return _sorted(pts)


def psi_target_points(spec, field):
    """F_q points of the cohomological spectrum, as sorted tuples."""
    els = elements(field)
    r = spec.r
    if spec.family == "GaMinus":
        return _sorted((d,) for d in els)
    if spec.family == "Gar":
        return _sorted(itertools.product(els, repeat=r))
    assert spec.family == "Mrs" and (spec.eta == 0 or r >= 2), spec
    if spec.eta == 0 and spec.s == 1:
        return _sorted(itertools.product(els, repeat=1 + r))
    # (d, c_1, ..., c_m, e) with the top c equal to d^2
    out = []
    for d in els:
        for cvec in itertools.product(els, repeat=r if spec.eta == 0 else r - 1):
            if cvec[-1].index == (d * d).index:
                out += [(d,) + cvec + (e,) for e in els]
    return _sorted(out)


def psi_map(spec, pt):
    """The point's image in the cohomological spectrum, coordinatewise."""
    p = spec.p
    if spec.family == "GaMinus":
        return pt
    if spec.family == "Gar":
        return tuple(pt[spec.r - 1 - i] ** (p ** (i + 1)) for i in range(spec.r))
    r = spec.r
    mu, avec = pt[0], pt[1 : 1 + r]
    if spec.eta == 0:
        out = [mu] + [avec[r - 1 - i] ** (p ** (i + 1)) for i in range(r)]
        if spec.s >= 2:
            out.append(pt[1 + r] ** p)
        return tuple(out)
    # (mu, a_{r-2}^{p^2}, ..., a_0^{p^r}, (-eta^{-1})^p a_{r-1}^p)
    out = [mu] + [avec[r - 1 - i] ** (p ** (i + 1)) for i in range(1, r)]
    minus_inv_eta = mu.field.element(-1) * mu.field.element(spec.eta).inverse()
    out.append(minus_inv_eta**p * avec[r - 1] ** p)
    return tuple(out)


def indices(pts):
    """The tuples as rows of element indices."""
    return [[c.index for c in pt] for pt in pts]
