"""The Hom-scheme ideal built whole: the oracle for the streamed build.

Every coproduct component (a, b) of a generator is accumulated beside its
mirror (b, a) from each product, as the library did before it built the
components a <= b only and took the others from super-cocommutativity.
A generator's coproduct is read from pr_coproduct of its basis element,
not from the walk the library uses, and images are products of powers.
"""

from dataclasses import dataclass

import numpy as np

from supvar.superalg.homscheme import SLOT_MASK, PolyRing, _Memo, _SVec
from supvar.superalg.pr import pr_coproduct

from oracles.algebra_oracle import coproduct_triples


def _tensor_components(A: _SVec, B: _SVec, c: int, out: dict, mirror: bool):
    """Add c * (A (x) B) into out, {(c, d): terms} over (S (x) S) (x) T, with
    the Koszul reordering sign; with mirror, add c * (B (x) A) too.

    Each product P_a Q_b is formed once: the (b, a) component of B (x) A is
    Q_b P_a = (-1)^{|P_a||Q_b|} P_a Q_b, moved past s_a, which leaves the
    sign (-1)^{|Q_b||A|}."""
    ring, par, neg = A.ring, A.alg.parity.tolist(), A.ring.neg
    for a, P in enumerate(A.comps):
        if not P:
            continue
        pa = (A.parity + par[a]) % 2
        for b, Q in enumerate(B.comps):
            if Q:
                targets = [(out.setdefault((a, b), {}), neg[c] if pa and par[b] else c)]
                if mirror:
                    qb = (B.parity + par[b]) % 2
                    targets.append((out.setdefault((b, a), {}), neg[c] if qb and A.parity else c))
                ring.addmul(targets, P, Q)


def materialise(ideal):
    """((label, SuperPoly), ...) of a PolynomialIdeal's stream, in order,
    with a repeat as the identical object of the generator it names."""
    by_label = {}
    for label, P in ideal.items():
        by_label[label] = by_label[P] if isinstance(P, str) else P
    return tuple(by_label.items())


def hom_scheme_generators(source, alg):
    """((label, SuperPoly), ...) of the Hom-scheme ideal, every coproduct
    component (a, b) and (b, a) built in one accumulator dict per generator
    (the full computation that the stream replaced)."""
    gens = source.gen_names
    nonunit = range(1, alg.dim)
    variables = [
        (f"x_{gi}_{j}", (source.gen_parity(g) + int(alg.parity[j])) % 2)
        for gi, g in enumerate(gens, start=1)
        for j in nonunit
    ]
    ring = PolyRing(alg.field, variables)
    F = alg.F
    neg1 = ring.neg[1]

    def x(gi, j):
        return 1 << ring.shift[ring.name_index[f"x_{gi}_{j}"]]

    rho = {}
    for gi, g in enumerate(gens, start=1):
        comps = [{} for _ in range(alg.dim)]
        for j in nonunit:
            comps[j] = {x(gi, j): 1}
        rho[g] = _SVec(alg, ring, comps, source.gen_parity(g))

    def scalar(c):
        comps = [{} for _ in range(alg.dim)]
        comps[0] = {0: c}
        return _SVec(alg, ring, comps, 0)

    def power(g, e):
        return scalar(1) if e == 0 else powers[(g, e - 1)].mul(rho[g])

    def eval_monomial(coeff, mon):
        """The image of coeff * mon, or None when it is zero; a zero factor
        makes it zero before any product."""
        factors = [powers[(g, e)] for g, e in mon]
        if not all(any(f.comps) for f in factors):
            return None
        out = scalar(F.scalar(coeff))
        for f in factors:
            out = out.mul(f)
        return out if any(out.comps) else None

    powers = _Memo(lambda key: power(*key))  # (gen, exp) -> image of gen^exp
    gammas = {}  # P_r basis element x -> its image, if nonzero

    def gamma(x):
        image = gammas.get(x)
        if image is None:
            image = eval_monomial(*source.gamma_monomial(x))
            if image:
                gammas[x] = image
        return image

    out = []

    # algebra relations of the source
    for label, terms in source.relations():
        acc = [{} for _ in range(alg.dim)]
        for coeff, mon in terms:
            image = eval_monomial(coeff, mon)
            for a, P in zip(acc, image.comps if image else ()):
                ring.accumulate(a, P)
        for j, P in enumerate(map(ring.poly, acc)):
            if P.terms:
                out.append((f"rel:{label}[{j}]", P))

    cop = coproduct_triples(alg)

    # coproduct compatibility on each generator: lhs - rhs accumulated in place.
    # Delta(g) is cocommutative: with (le, ri, c) it has (ri, le, c), and no
    # Koszul sign as one side is even; so each pair is added from one term.
    for gi, g in enumerate(gens, start=1):
        acc = {}
        x_g = 1 if g == "v" else 2 * source.p ** int(g[1:])  # g's basis element
        for le, ri, c in pr_coproduct(source.p, source.r, x_g):
            if ri < le:
                continue
            # B is skipped when A is zero; zero images are not memoised, as for
            # a large source nearly all p^(r-1) gammas are zero and distinct
            A = gamma(le)
            B = A and gamma(ri)
            if B:
                _tensor_components(A, B, F.scalar(c), acc, le != ri)
        for j in nonunit:
            for a, b, c in cop[j]:
                ring.accumulate(acc.setdefault((a, b), {}), {x(gi, j): F.scalar(c)}, neg1)
        for cc, dd in sorted(acc):
            P = ring.poly(acc[(cc, dd)])
            if P.terms:
                out.append((f"cop:{g}[{cc},{dd}]", P))

    # antipode compatibility: rho(S g) = S(rho(g)), with S g = -g
    for gi, g in enumerate(gens, start=1):
        acc = [{} for _ in range(alg.dim)]
        for j in nonunit:
            ring.accumulate(acc[j], {x(gi, j): neg1})
            for m in np.nonzero(alg.hopf.antipode[:, j])[0]:
                ring.accumulate(acc[m], {x(gi, j): int(alg.hopf.antipode[m, j])}, neg1)
        for m, P in enumerate(map(ring.poly, acc)):
            if P.terms:
                out.append((f"ant:{g}[{m}]", P))

    return tuple(out)


# -- polynomials with tuple monomials, read and evaluated term by term ------


@dataclass(frozen=True)
class Monomial:
    """even: sorted ((var, exp), ...); odd: strictly increasing var tuple."""

    even: tuple
    odd: tuple

    def degree(self):
        return sum(e for _, e in self.even) + len(self.odd)


def as_monomials(ring, P):
    """The terms of a SuperPoly as {Monomial: coefficient}, each packed
    monomial read one variable slot at a time."""
    out = {}
    for m, c in P.terms.items():
        exps = [(m >> s) & SLOT_MASK for s in ring.shift]
        out[Monomial(
            tuple((v, e) for v, e in enumerate(exps) if e and not ring.parity[v]),
            tuple(v for v, e in enumerate(exps) if e and ring.parity[v]),
        )] = c
    return out


def oracle_evaluate(F, P, assignment):
    """The value of {Monomial: coefficient} at a point, given as one field
    index per variable, one product of scalars at a time."""
    total = 0
    for m, c in P.items():
        val = c
        for v, e in m.even:
            for _ in range(e):
                val = int(F.mul[val, assignment[v]])
        for v in m.odd:
            val = int(F.mul[val, assignment[v]])
        total = int(F.add[total, val])
    return total
