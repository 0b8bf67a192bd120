"""The Hom-scheme ideal built whole, on packed-int monomials: the oracle for
the streamed build on numpy term tables.

Every coproduct component (a, b) of a generator is accumulated beside its
mirror (b, a) from each product, as the library did before it built the
components a <= b only and took the others from super-cocommutativity.
A generator's coproduct is read from pr_coproduct of its basis element,
not from the walk the library uses, and images are products of powers.
Its arithmetic is the library's before the term tables: a monomial is one
int with a SLOT_BITS-wide slot per variable, a polynomial a dict, and a
product one Python loop over pairs of terms.  Tables are turned into term
dicts only here (terms), to compare the two.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import or_

import numpy as np

from supvar import linalg
from supvar.errors import ValidationError
from supvar.superalg.homscheme import MAX_EXPONENT
from supvar.superalg.pr import pr_coproduct

from oracles.algebra_oracle import coproduct_triples, products

SLOT_BITS = 8  # per variable of a packed monomial: the top bit is a guard
SLOT_MASK = (1 << SLOT_BITS) - 1


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        val = self[key] = self.fn(key)
        return val


def _odd_below(a: int, odd: int) -> int:
    """The bits of odd at which a has an odd number of bits at or below.

    For b disjoint from a, (b & _odd_below(a, odd)).bit_count() is then
    odd exactly when an odd number of pairs (bit of b, lower bit of a)
    exist.  With a and b the odd variables of two monomials, those pairs
    are the transpositions that bring the odd variables of a*b into order,
    as a lower slot holds a later variable."""
    flip = 0
    while a:
        low = a & -a
        flip ^= -low  # every bit from low up
        a ^= low
    return flip & odd


class PackedRing:
    """Supercommutative polynomials over F_q as dicts packed monomial ->
    field element index, variable 0 in the highest slot.  The top bit of
    every slot is a guard: an exponent above MAX_EXPONENT sets it and raises
    ValidationError instead of carrying into the next slot."""

    def __init__(self, field, variables):
        self.field = field
        self.variables = tuple(variables)
        self.name_index = {name: i for i, (name, _) in enumerate(self.variables)}
        self.parity = tuple(par for _, par in self.variables)
        n = len(self.variables)
        self.shift = tuple(SLOT_BITS * (n - 1 - i) for i in range(n))
        self.guard = sum(1 << (s + SLOT_BITS - 1) for s in self.shift)
        self.high = sum(3 << (s + SLOT_BITS - 2) for s in self.shift)
        self.oddmask = sum(1 << s for s, par in zip(self.shift, self.parity) if par)
        self.add_rows = _Memo(lambda c: self.F.add[c].tolist())
        self.mul_rows = _Memo(lambda c: self.F.mul[c].tolist())

    F = cached_property(lambda self: linalg.tables(self.field))
    neg = cached_property(lambda self: self.F.neg.tolist())

    def poly(self, terms):
        """A PackedPoly of terms, its parity read off a monomial; zero
        coefficients are dropped."""
        par = (next(iter(terms)) & self.oddmask).bit_count() % 2 if terms else 0
        return PackedPoly(self, terms, par)

    def accumulate(self, acc: dict, terms: dict, c: int = 1):
        """acc += c * terms, in place (cancelled terms stay as zeros)."""
        add, row = self.add_rows, self.mul_rows[c]
        for m, v in terms.items():
            acc[m] = add[acc.get(m, 0)][row[v]]

    def addmul(self, targets, A: dict, B: dict):
        """For each (acc, c) of targets, acc += c * A * B, in place, with A's
        monomials on the left (Koszul signs).  Products are tested against
        the exponent guard only when a slot of A or B reaches half of it."""
        guard, odd, neg = self.guard, self.oddmask, self.neg
        check = (reduce(or_, A, 0) | reduce(or_, B, 0)) & self.high
        add, mul = self.add_rows, self.mul_rows
        targets = [(acc, mul[c]) for acc, c in targets]
        for m1, c1 in A.items():
            o1 = m1 & odd
            below = _odd_below(o1, odd)
            row = mul[c1]
            for m2, c2 in B.items():
                if o1 & m2:
                    continue
                m = m1 + m2
                if check and m & guard:
                    raise ValidationError(f"a monomial exponent exceeds {MAX_EXPONENT}")
                v = row[c2]
                if below and (m2 & below).bit_count() & 1:
                    v = neg[v]
                for acc, crow in targets:
                    acc[m] = add[acc.get(m, 0)][crow[v]]

class PackedPoly:
    """Parity-homogeneous polynomial: dict packed monomial -> nonzero field
    element index."""

    __slots__ = ("ring", "terms", "parity")

    def __init__(self, ring, terms, parity):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self.parity = parity


@dataclass(slots=True)
class _SVec:
    """Element of kG (x) T: one term dict per kG basis index, fixed parity."""

    alg: object
    ring: PackedRing
    comps: list  # nonzero-term dicts, one per basis index
    parity: int

    def mul(self, other, table):
        """The product in kG (x) T, table the nonzero entries of kG's
        product tensor (algebra_oracle.products)."""
        alg, ring = self.alg, self.ring
        par, neg = alg.parity.tolist(), ring.neg
        out = [{} for _ in range(alg.dim)]
        for j, P in enumerate(self.comps):
            if not P:
                continue
            pj = (self.parity + par[j]) % 2  # parity of the coefficient poly
            for k, Q in enumerate(other.comps):
                ent = table.get((j, k))
                if Q and ent:
                    ring.addmul([(out[m], neg[c] if pj and par[k] else c) for m, c in ent], P, Q)
        return _SVec(alg, ring, [{m: c for m, c in d.items() if c} for d in out], (self.parity + other.parity) % 2)


def terms(P) -> dict:
    """{packed monomial: coefficient} of a PackedPoly, or of a term table (the
    library's SuperPoly): as SLOT_BITS is 8, a row's bytes, big-endian, are
    its packed monomial."""
    if isinstance(P, PackedPoly):
        return P.terms
    n = P.E.shape[1]
    if not n:  # no variables: at most the constant term
        return {0: c for c in P.c.tolist()}
    rows = np.ascontiguousarray(P.E).view(np.dtype((np.void, n))).ravel().tolist()
    return dict(zip(map(int.from_bytes, rows, repeat("big")), P.c.tolist()))


def exponents(m: int, n: int) -> tuple:
    """The exponent vector of the packed monomial m in n variables."""
    return tuple((m >> (SLOT_BITS * (n - 1 - v))) & SLOT_MASK for v in range(n))


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
    """((label, PackedPoly), ...) of the Hom-scheme ideal, every coproduct
    component (a, b) and (b, a) built in one accumulator dict per generator
    (the full computation that the stream replaced)."""
    gens = source.gen_names
    nonunit = range(1, alg.dim)
    variables = [
        (f"x_{gi}_{j}", (source.gen_parity(g) + int(alg.parity[j])) % 2)
        for gi, g in enumerate(gens, start=1)
        for j in nonunit
    ]
    ring = PackedRing(alg.field, variables)
    F, table = alg.F, products(alg)
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
        return scalar(1) if e == 0 else powers[(g, e - 1)].mul(rho[g], table)

    def eval_monomial(coeff, mon):
        """The image of coeff * mon, or None when it is zero; a zero factor
        makes it zero before any product."""
        factors = [powers[(g, e)] for g, e in mon]
        if not all(any(f.comps) for f in factors):
            return None
        out = scalar(F.scalar(coeff))
        for f in factors:
            out = out.mul(f, table)
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
    """The terms of a SuperPoly as {Monomial: coefficient}, each row read as
    its packed monomial, one variable slot at a time."""
    out = {}
    for m, c in terms(P).items():
        exps = exponents(m, len(ring.variables))
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
