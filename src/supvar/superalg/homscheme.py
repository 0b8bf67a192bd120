"""Representing Hom(P_r, kG) as the zero set of an explicit polynomial ideal.

A Hopf superalgebra map rho: P_r (x) A -> kG (x) A is determined by scalars
x_{i,j} with rho(r_i) = sum_j s_j (x) x_{i,j} over the non-unit basis s_j of
kG, where x_{i,j} has parity |r_i| + |s_j|.  The conditions "rho kills the
relations of P_r", "rho commutes with the coproducts", and "rho commutes
with the antipodes" are polynomial in the x_{i,j}; this module emits those
polynomials and enumerates their even points over the base field by brute
force (odd variables are set to zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterprod

from ..errors import BoundExceeded, ValidationError
from .. import linalg
from .algebra import PresentedSuperalgebra
from .pr import PrPresentation

SOLVE_ASSIGNMENT_CAP = 3**8


@dataclass(frozen=True)
class Monomial:
    """even: sorted ((var, exp), ...); odd: strictly increasing var tuple."""

    even: tuple
    odd: tuple

    def degree(self):
        return sum(e for _, e in self.even) + len(self.odd)


def _merge_odd(a: tuple, b: tuple):
    """Concatenate odd variable lists; Koszul sign, or None if a square appears."""
    if set(a) & set(b):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    a, b = list(a), list(b)
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] < b[j]):
            merged.append(a[i])
            i += 1
        else:
            # b[j] moves left past the remaining elements of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            merged.append(b[j])
            j += 1
    return tuple(merged), sign


class PolyRing:
    """Supercommutative polynomials over F_q in named graded variables."""

    def __init__(self, field, variables):
        self.field = field
        self.F = linalg.tables(field)
        self.variables = tuple(variables)  # ((name, parity), ...)
        self.name_index = {name: i for i, (name, _) in enumerate(self.variables)}
        self.parity = tuple(par for _, par in self.variables)

    def zero(self, parity=0):
        return SuperPoly(self, {}, parity)

    def one(self):
        return SuperPoly(self, {Monomial((), ()): 1}, 0)

    def const(self, cidx):
        cidx = int(cidx)
        if cidx == 0:
            return self.zero()
        return SuperPoly(self, {Monomial((), ()): cidx}, 0)

    def var(self, name):
        i = self.name_index[name]
        par = self.parity[i]
        if par:
            mon = Monomial((), (i,))
        else:
            mon = Monomial(((i, 1),), ())
        return SuperPoly(self, {mon: 1}, par)


class SuperPoly:
    """Parity-homogeneous polynomial: dict Monomial -> field element index."""

    __slots__ = ("ring", "terms", "parity")

    def __init__(self, ring, terms, parity):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self.parity = parity

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        F = self.ring.F
        if not other.is_zero() and not self.is_zero() and self.parity != other.parity:
            raise ValidationError("adding polynomials of different parity")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = int(F.add[out.get(m, 0), c])
        par = self.parity if self.terms else other.parity
        return SuperPoly(self.ring, out, par)

    def __neg__(self):
        F = self.ring.F
        return SuperPoly(self.ring, {m: int(F.neg[c]) for m, c in self.terms.items()}, self.parity)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, cidx):
        F = self.ring.F
        cidx = int(cidx)
        return SuperPoly(self.ring, {m: int(F.mul[cidx, c]) for m, c in self.terms.items()}, self.parity)

    def __mul__(self, other):
        F = self.ring.F
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                odd, sign = _merge_odd(m1.odd, m2.odd)
                if odd is None:
                    continue
                ev = dict(m1.even)
                for v, e in m2.even:
                    ev[v] = ev.get(v, 0) + e
                mon = Monomial(tuple(sorted(ev.items())), odd)
                c = int(F.mul[c1, c2])
                if sign < 0:
                    c = int(F.neg[c])
                out[mon] = int(F.add[out.get(mon, 0), c])
        return SuperPoly(self.ring, out, (self.parity + other.parity) % 2)

    def evaluate(self, assignment):
        """Value at a point; odd variables evaluate to the assigned value too
        (pass zeros for even points)."""
        F = self.ring.F
        total = 0
        for m, c in self.terms.items():
            val = c
            for v, e in m.even:
                a = assignment[v]
                for _ in range(e):
                    val = int(F.mul[val, a])
            for v in m.odd:
                val = int(F.mul[val, assignment[v]])
            total = int(F.add[total, val])
        return total

    def render(self):
        """Deterministic text: graded lex monomial order, descending."""
        if not self.terms:
            return "0"
        names = [n for n, _ in self.ring.variables]

        def key(m):
            expvec = [0] * len(names)
            for v, e in m.even:
                expvec[v] = e
            for v in m.odd:
                expvec[v] = 1
            return (m.degree(), expvec)

        parts = []
        for m in sorted(self.terms, key=key, reverse=True):
            c = self.ring.F.to_element(self.terms[m]).encode()
            factors = []
            for v, e in sorted(m.even + tuple((v, 1) for v in m.odd)):
                factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
            if not factors:
                parts.append(c)
            else:
                parts.append("*".join([c] + factors))
        return " + ".join(parts)


@dataclass
class PolynomialIdeal:
    """Named generators of the Hom-scheme ideal in a fixed variable order."""

    ring: PolyRing
    generators: tuple  # (label, SuperPoly)
    source: PrPresentation
    target: PresentedSuperalgebra

    def render(self):
        lines = []
        seen = set()
        for _, g in self.generators:
            if g.is_zero():
                continue
            text = g.render()
            if text not in seen:
                seen.add(text)
                lines.append(text)
        return "\n".join(lines)

    def even_variable_names(self):
        return [n for n, par in self.ring.variables if par == 0]


class _SVec:
    """Element of kG (x) T: one SuperPoly per kG basis index, fixed parity."""

    __slots__ = ("alg", "ring", "comps", "parity")

    def __init__(self, alg, ring, comps, parity):
        self.alg = alg
        self.ring = ring
        self.comps = comps  # list of SuperPoly, length alg.dim
        self.parity = parity

    @staticmethod
    def zero(alg, ring, parity=0):
        return _SVec(alg, ring, [ring.zero() for _ in range(alg.dim)], parity)

    @staticmethod
    def unit(alg, ring):
        v = _SVec.zero(alg, ring)
        v.comps[alg.unit_index] = ring.one()
        return v

    def add(self, other):
        return _SVec(
            self.alg,
            self.ring,
            [a + b for a, b in zip(self.comps, other.comps)],
            self.parity if any(not c.is_zero() for c in self.comps) else other.parity,
        )

    def scale(self, cidx):
        return _SVec(self.alg, self.ring, [c.scale(cidx) for c in self.comps], self.parity)

    def mul(self, other):
        alg, ring = self.alg, self.ring
        F = alg.F
        out = [ring.zero() for _ in range(alg.dim)]
        for j, P in enumerate(self.comps):
            if P.is_zero():
                continue
            pj = (self.parity + alg.parity[j]) % 2  # parity of the coefficient poly
            for k, Q in enumerate(other.comps):
                if Q.is_zero():
                    continue
                PQ = P * Q
                if pj and alg.parity[k]:
                    PQ = -PQ
                for m, c in alg.mult.get((j, k), ()):
                    out[m] = out[m] + PQ.scale(c)
        return _SVec(alg, ring, out, (self.parity + other.parity) % 2)

    def pow(self, e):
        out = _SVec.unit(self.alg, self.ring)
        for _ in range(e):
            out = out.mul(self)
        return out


def _tensor_components(A: _SVec, B: _SVec):
    """(S (x) S) (x) T components of A (x) B with the Koszul reordering sign."""
    alg = A.alg
    out = {}
    for c, P in enumerate(A.comps):
        if P.is_zero():
            continue
        pc = (A.parity + alg.parity[c]) % 2
        for d, Q in enumerate(B.comps):
            if Q.is_zero():
                continue
            PQ = P * Q
            if pc and alg.parity[d]:
                PQ = -PQ
            key = (c, d)
            if key in out:
                out[key] = out[key] + PQ
            else:
                out[key] = PQ
    return out


def hom_scheme_ideal(source: PrPresentation, alg: PresentedSuperalgebra) -> PolynomialIdeal:
    """Ideal presenting Hom_{Hopf}(P_r, kG) in the variables x_{i}_{j}.

    The target algebra must carry its Hopf data.  Variables are ordered
    generator-major then by basis index; x_{i}_{j} carries parity
    |r_i| + |s_j|.
    """
    if alg.hopf is None:
        raise ValidationError("target needs Hopf structure")

    gens = source.gen_names
    nonunit = [j for j in range(alg.dim) if j != alg.unit_index]
    variables = []
    for gi, g in enumerate(gens, start=1):
        for j in nonunit:
            par = (source.gen_parity(g) + int(alg.parity[j])) % 2
            variables.append((f"x_{gi}_{j}", par))
    ring = PolyRing(alg.field, variables)
    F = alg.F

    rho = {}
    for gi, g in enumerate(gens, start=1):
        v = _SVec.zero(alg, ring, parity=source.gen_parity(g))
        for j in nonunit:
            v.comps[j] = ring.var(f"x_{gi}_{j}")
        rho[g] = v

    def eval_monomial(coeff, mon):
        out = _SVec.unit(alg, ring)
        for g, e in mon:
            out = out.mul(rho[g].pow(e))
        return out.scale(F.scalar(coeff))

    def eval_terms(terms):
        acc = None
        for coeff, mon in terms:
            t = eval_monomial(coeff, mon)
            acc = t if acc is None else acc.add(t)
        return acc

    out = []

    # algebra relations of the source
    for label, terms in source.relations():
        vec = eval_terms(terms)
        for j, P in enumerate(vec.comps):
            if not P.is_zero():
                out.append((f"rel:{label}[{j}]", P))

    # coproduct compatibility on each generator
    for gi, g in enumerate(gens, start=1):
        lhs = {}
        for le, ri, c in source.gen_coproduct(g):
            A = eval_monomial(*source.gamma_monomial(le.ell, le.has_v))
            B = eval_monomial(*source.gamma_monomial(ri.ell, ri.has_v))
            for (cc, dd), P in _tensor_components(A, B).items():
                P = P.scale(F.scalar(c))
                lhs[(cc, dd)] = lhs[(cc, dd)] + P if (cc, dd) in lhs else P
        rhs = {}
        for j in nonunit:
            xv = ring.var(f"x_{gi}_{j}")
            for a, b, c in alg.hopf.coproduct[j]:
                P = xv.scale(F.scalar(c))
                rhs[(a, b)] = rhs[(a, b)] + P if (a, b) in rhs else P
        keys = set(lhs) | set(rhs)
        for cc, dd in sorted(keys):
            P = lhs.get((cc, dd), ring.zero()) - rhs.get((cc, dd), ring.zero())
            if not P.is_zero():
                out.append((f"cop:{g}[{cc},{dd}]", P))

    # antipode compatibility: rho(S g) = S(rho(g)), with S g = -g
    for gi, g in enumerate(gens, start=1):
        lhs = [ring.zero() for _ in range(alg.dim)]
        rhs = [ring.zero() for _ in range(alg.dim)]
        for j in nonunit:
            xv = ring.var(f"x_{gi}_{j}")
            lhs[j] = -xv
            for m in range(alg.dim):
                c = alg.hopf.antipode[m, j]
                if c:
                    rhs[m] = rhs[m] + xv.scale(c)
        for m in range(alg.dim):
            P = lhs[m] - rhs[m]
            if not P.is_zero():
                out.append((f"ant:{g}[{m}]", P))

    return PolynomialIdeal(ring, tuple(out), source, alg)


def solve_even_points(ideal: PolynomialIdeal, field=None):
    """All even F_q points by brute force (odd variables forced to zero).

    Returns a list of morphism image dictionaries {generator: vector}.
    """
    alg = ideal.target
    field = field or alg.field
    if field != alg.field:
        raise ValidationError("solver field must match the target algebra field")
    q = field.q
    even_vars = [i for i, (_, par) in enumerate(ideal.ring.variables) if par == 0]
    count = q ** len(even_vars)
    if count > SOLVE_ASSIGNMENT_CAP:
        raise BoundExceeded(
            f"{count} candidate assignments exceed the cap {SOLVE_ASSIGNMENT_CAP}"
        )
    gens = ideal.source.gen_names
    nonunit = [j for j in range(alg.dim) if j != alg.unit_index]
    nvars = len(ideal.ring.variables)
    polys = [g for _, g in ideal.generators if not g.is_zero()]

    solutions = []
    for combo in iterprod(range(q), repeat=len(even_vars)):
        assignment = [0] * nvars
        for pos, v in zip(even_vars, combo):
            assignment[pos] = v
        if all(P.evaluate(assignment) == 0 for P in polys):
            images = {}
            pos = 0
            for gi, g in enumerate(gens, start=1):
                vec = alg.el_zero()
                for j in nonunit:
                    vec[j] = assignment[ideal.ring.name_index[f"x_{gi}_{j}"]]
                images[g] = vec
            solutions.append(images)
    return solutions
