"""Representing Hom(P_r, kG) as the zero set of an explicit polynomial ideal.

A Hopf superalgebra map rho: P_r (x) A -> kG (x) A is determined by scalars
x_{i,j} with rho(r_i) = sum_j s_j (x) x_{i,j} over the non-unit basis s_j of
kG, where x_{i,j} has parity |r_i| + |s_j|.  The conditions "rho kills the
relations of P_r", "rho commutes with the coproducts", and "rho commutes
with the antipodes" are polynomial in the x_{i,j}; this module emits those
polynomials.  Their even points over the base field (odd variables set to
zero) are found without the polynomials, from the target's structure
tensors: rho(g) solves a linear system, one generator at a time
(solve_even_points).

kG is dual to the supercommutative k[G], so its coproduct is
super-cocommutative, and so is that of P_r.  The target's is checked when
its algebra is built.  The source's is a function of (p, r) alone, and the
tests check it for every (p, r) that check_source accepts.  So the
coproduct generators satisfy cop:g[b,a] = (-1)^{|s_a||s_b|} cop:g[a,b],
and only the components with a <= b are built.  The ideal is a
stream: its generators are built one at a time, and the CLI formats them
a chunk at a time, so the whole ideal is never held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import or_
from typing import Callable

import numpy as np

from ..errors import BoundExceeded, ValidationError
from .. import linalg
from .algebra import PresentedSuperalgebra, walk_word
from .pr import PrPresentation

SOLVE_ASSIGNMENT_CAP = 3**8
# P_r sources are refused before any work once the coproduct of u_{r-1}, with
# p^{r-1} + 1 terms, outgrows this: r <= 12 at p = 3, 8 at p = 5, 7 at p = 7.
SOURCE_TERM_CAP = 3**11
SLOT_BITS = 8  # per variable of a packed monomial: the top bit is a guard
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1
SLOT_MASK = (1 << SLOT_BITS) - 1
RENDER_CHUNK = 4096  # monomials per chunk of generators that PolyRing.render formats together


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


class PolyRing:
    """Supercommutative polynomials over F_q in named graded variables.

    A monomial is one int with a SLOT_BITS-wide slot per variable, variable 0
    in the highest slot; the slot of an odd variable holds 0 or 1.  So a
    product of monomials is one addition, an odd square shows as
    `m1 & m2 & oddmask`, and comparing two monomials compares their exponent
    vectors lexicographically.  The top bit of every slot is a guard: an
    exponent above MAX_EXPONENT sets it and raises ValidationError instead of
    carrying into the next slot.  A sum of two slots below half the guard
    value cannot reach it, so `addmul` tests every product only when a slot
    of a factor reaches that half (`high` masks those bits).

    Coefficients are field element indices.  The ring keeps, as lists, the
    rows of the field's add and mul tables for the coefficients that occur
    (never a whole q x q table), and the text of every coefficient and
    factor x^e it renders.  Monomial texts are not kept: `render` names the
    monomials of each chunk in a table of its own.  Variable names are
    distinct identifiers, so that the text of a polynomial determines it
    (see `render`).
    """

    def __init__(self, field, variables):
        self.field = field
        self.variables = tuple(variables)  # ((name, parity), ...)
        names = [name for name, _ in self.variables]
        if len(set(names)) < len(names) or not all(name.isidentifier() for name in names):
            raise ValidationError("variable names must be distinct identifiers")
        self.name_index = {name: i for i, (name, _) in enumerate(self.variables)}
        self.parity = tuple(par for _, par in self.variables)
        n = len(self.variables)
        self.shift = tuple(SLOT_BITS * (n - 1 - i) for i in range(n))
        self.guard = sum(1 << (s + SLOT_BITS - 1) for s in self.shift)
        self.high = sum(3 << (s + SLOT_BITS - 2) for s in self.shift)
        self.oddmask = sum(1 << s for s, par in zip(self.shift, self.parity) if par)
        self.add_rows = _Memo(lambda c: self.F.add[c].tolist())
        self.mul_rows = _Memo(lambda c: self.F.mul[c].tolist())
        self.coeff_text = _Memo(lambda c: self.F.to_element(c).encode())
        self.factor_text = _Memo(self._factor_text)

    # built when the ring first computes, so a caller can check its own cap first
    F = cached_property(lambda self: linalg.tables(self.field))
    neg = cached_property(lambda self: self.F.neg.tolist())

    def poly(self, terms):
        """A SuperPoly of terms, its parity read off a monomial; zero
        coefficients are dropped."""
        par = (next(iter(terms)) & self.oddmask).bit_count() % 2 if terms else 0
        return SuperPoly(self, terms, par)

    def _factor_text(self, key: int):
        """"*name" or "*name^e" of key = (variable << SLOT_BITS) | e, e >= 1;
        key 0 is the separator, a newline."""
        if not key:
            return "\n"
        name, e = self.variables[key >> SLOT_BITS][0], key & SLOT_MASK
        return f"*{name}" if e == 1 else f"*{name}^{e}"

    def _monomial_table(self, mons: list):
        """(degree array, ["*x*y^2", ...]) of the monomials, "" for 1.

        A monomial's bytes are its exponent vector (SLOT_BITS is 8), so the
        monomials are one uint8 matrix: a row sum is a degree, and its
        nonzero entries in row-major order are the factors in variable
        order.  All factor texts, with a separator after each row, are
        joined and split in one pass.
        """
        n = len(self.variables)
        E = np.frombuffer(b"".join([m.to_bytes(n, "big") for m in mons]), dtype=np.uint8)
        E = E.reshape(len(mons), n)
        rows, cols = np.divmod(np.flatnonzero(E), n)
        ends = np.cumsum(np.bincount(rows, minlength=len(mons)))
        keys = np.insert((cols << SLOT_BITS) | E[rows, cols], ends, 0)
        texts = "".join(map(self.factor_text.__getitem__, keys.tolist())).split("\n")[:-1]
        return E.sum(axis=1, dtype=np.int64), texts

    def render(self, polys):
        """One line per distinct nonzero term dict of polys, first occurrence
        first: "c*x*y^2 + ...", monomials by (degree, exponent vector)
        descending.

        polys is read once, and may be a generator.  Consecutive dicts are
        formatted together, a chunk of about RENDER_CHUNK monomials at a
        time, so only one chunk's dicts and tables are alive beside the
        lines.  Repeats are dropped by their line: a line determines its
        dict, since variable names are distinct identifiers and coefficient
        texts hold no "*", "^" or " ".  All lines are returned together, so
        an error raised by polys leaves none.
        """
        lines = {}  # line -> None, in first-occurrence order
        chunk, size = [], 0
        for terms in polys:
            if terms:
                chunk.append(terms)
                size += len(terms)
                if size >= RENDER_CHUNK:
                    self._render_chunk(chunk, lines)
                    chunk, size = [], 0
        self._render_chunk(chunk, lines)
        return list(lines)

    def _render_chunk(self, chunk: list, lines: dict):
        """Add the line of each dict of chunk to lines.  One table ranks and
        names every monomial of the chunk, so a dict sorts by small ints."""
        if not chunk:
            return
        mons = sorted(set().union(*chunk), reverse=True)
        deg, texts = self._monomial_table(mons)
        # a stable sort by degree keeps equal degrees in exponent-vector order
        order = np.argsort(-deg, kind="stable").tolist()
        rank = dict(zip([mons[i] for i in order], range(len(order))))
        text = [texts[i] for i in order]
        coeff = self.coeff_text
        for terms in chunk:
            ranked = sorted(zip(map(rank.__getitem__, terms), terms.values()))
            lines.setdefault(" + ".join([coeff[c] + text[k] for k, c in ranked]))

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


def _nonzero(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


class SuperPoly:
    """Parity-homogeneous polynomial: dict packed monomial (see PolyRing) ->
    nonzero field element index."""

    __slots__ = ("ring", "terms", "parity")

    def __init__(self, ring, terms, parity):
        self.ring = ring
        self.terms = _nonzero(terms)
        self.parity = parity

    def is_zero(self):
        return not self.terms

    def __mul__(self, other):
        out = {}
        self.ring.addmul([(out, 1)], self.terms, other.terms)
        return SuperPoly(self.ring, out, (self.parity + other.parity) % 2)

    def render(self):
        """Deterministic text (PolyRing.render), "0" for zero."""
        return self.ring.render([self.terms])[0] if self.terms else "0"


@dataclass
class PolynomialIdeal:
    """Named generators of the Hom-scheme ideal in a fixed variable order.

    The ideal is a stream: `items()` returns a fresh iterator over its
    generators, in order, as (label, P).  P is a SuperPoly, or the label of
    an earlier generator that this one equals.  Nothing is held between
    calls: `render` reads a fresh stream, skips the repeats, and never holds
    the whole ideal.
    """

    ring: PolyRing
    items: Callable  # () -> iterator of (label, SuperPoly or earlier label)
    source: PrPresentation
    target: PresentedSuperalgebra

    def render(self):
        """The lines of the distinct nonzero generators, first occurrence
        first (PolyRing.render), from a fresh stream: a generator that
        repeats an earlier one is skipped unformatted.  The stream is built
        as it is formatted, so an error in either raises before any line is
        returned."""
        return self.ring.render(P.terms for _, P in self.items() if not isinstance(P, str))

    def even_variable_names(self):
        return [n for n, par in self.ring.variables if par == 0]


@dataclass(slots=True)
class _SVec:
    """Element of kG (x) T: one term dict per kG basis index, fixed parity."""

    alg: PresentedSuperalgebra
    ring: PolyRing
    comps: list  # nonzero-term dicts, one per basis index
    parity: int

    def mul(self, other):
        alg, ring = self.alg, self.ring
        par, neg = alg.parity.tolist(), ring.neg
        out = [{} for _ in range(alg.dim)]
        for j, P in enumerate(self.comps):
            if not P:
                continue
            pj = (self.parity + par[j]) % 2  # parity of the coefficient poly
            for k, Q in enumerate(other.comps):
                ent = alg.products.get((j, k))
                if Q and ent:
                    ring.addmul([(out[m], neg[c] if pj and par[k] else c) for m, c in ent], P, Q)
        return _SVec(alg, ring, [_nonzero(d) for d in out], (self.parity + other.parity) % 2)


def _tensor_products(A: _SVec, B: _SVec, c: int, mirror: bool, out: dict):
    """List the products whose sum is c * (A (x) B), and with mirror also
    c * (B (x) A), at each s_a (x) s_b with a <= b: out[(a, b)] gains
    (P, Q, coefficients), the product P Q taken once per coefficient, with
    the Koszul reordering signs.

    The component of B (x) A at (a, b) is B_a A_b = (-1)^{|A_b||B_a|}
    A_b B_a, moved past s_a, which leaves the sign (-1)^{|B_a||A|}.  So
    each product A_i B_j is listed once: at (i, j) for A (x) B if i <= j,
    at (j, i) for B (x) A if j <= i, and with both coefficients at i = j."""
    par, neg = A.alg.parity.tolist(), A.ring.neg
    for i, P in enumerate(A.comps):
        if not P:
            continue
        for j, Q in enumerate(B.comps):
            if not Q:
                continue
            coefs = []
            if i <= j:
                coefs.append(neg[c] if (A.parity + par[i]) % 2 and par[j] else c)
            if mirror and j <= i:
                coefs.append(neg[c] if (B.parity + par[j]) % 2 and A.parity else c)
            if coefs:
                out.setdefault((min(i, j), max(i, j)), []).append((P, Q, coefs))


def check_source(source: PrPresentation, p: int):
    """A P_r source for a target of characteristic p: exit-2 errors for
    r < 1 or another p, BoundExceeded above source_r_cap(p)."""
    if source.p != p:
        raise ValidationError(f"source p = {source.p} differs from the target's p = {p}")
    if source.r < 1:
        raise ValidationError("the source P_r needs r >= 1")
    cap = source_r_cap(p)
    if source.r > cap:
        raise BoundExceeded(f"source r = {source.r} exceeds the cap {cap} at p = {p}")


def source_r_cap(p: int) -> int:
    """The largest r with p^(r-1) <= SOURCE_TERM_CAP."""
    r = 1
    while p**r <= SOURCE_TERM_CAP:
        r += 1
    return r


def hom_scheme_ideal(source: PrPresentation, alg: PresentedSuperalgebra) -> PolynomialIdeal:
    """Ideal presenting Hom_{Hopf}(P_r, kG) in the variables x_{i}_{j}.

    The target's coproduct is checked super-cocommutative when it is
    built.  Variables are
    ordered generator-major then by basis index; x_{i}_{j} carries parity
    |r_i| + |s_j|.  Only the checks and the ring are made here: the
    generators are built as the ideal's stream is read (_generators).
    """
    check_source(source, alg.field.p)
    variables = [
        (f"x_{gi}_{j}", (source.gen_parity(g) + int(alg.parity[j])) % 2)
        for gi, g in enumerate(source.gen_names, start=1)
        for j in range(1, alg.dim)
    ]
    ring = PolyRing(alg.field, variables)
    return PolynomialIdeal(ring, partial(_generators, source, alg, ring), source, alg)


def _generators(source: PrPresentation, alg: PresentedSuperalgebra, ring: PolyRing):
    """The generators of hom_scheme_ideal, in order, as PolynomialIdeal.items
    yields them: the relations of the source, the coproduct compatibility of
    each generator, then the antipode compatibility.

    Each nonzero image of a word is built once, from its longest prefix
    built before (walk_word); zero images are not kept, as for a large
    source nearly all p^(r-1) gammas are zero and distinct.  A word's
    coefficient enters where its products are accumulated.  For
    each generator, the products behind every coproduct component (a, b)
    with a <= b are listed first (_tensor_products); then each component is
    accumulated into its own term dict and yielded at its place.  At (b, a)
    the stream repeats it, by label, when |s_a||s_b| is even, and yields
    its negation, kept until then, when it is odd.
    """
    gens = source.gen_names
    nonunit = range(1, alg.dim)
    F, par, neg = alg.F, alg.parity.tolist(), ring.neg
    neg1 = neg[1]

    def x(gi, j):
        return 1 << ring.shift[ring.name_index[f"x_{gi}_{j}"]]

    rho = {}
    for gi, g in enumerate(gens, start=1):
        comps = [{} for _ in range(alg.dim)]
        for j in nonunit:
            comps[j] = {x(gi, j): 1}
        rho[g] = _SVec(alg, ring, comps, source.gen_parity(g))

    unit = _SVec(alg, ring, [{0: 1}] + [{} for _ in nonunit], 0)
    live = {g for g in gens if any(rho[g].comps)}
    words = {}  # word -> its nonzero image, for every prefix walked

    def times(A, B):
        out = A.mul(B)
        return out if any(out.comps) else None

    def image(mon):
        """The image of the monomial mon, or None when it is zero: a zero
        letter makes it zero before any product (walk_word, as el_word)."""
        if not live.issuperset(g for g, _ in mon):
            return None
        return walk_word(mon, rho.__getitem__, times, words) if mon else unit

    # algebra relations of the source
    for label, terms in source.relations():
        acc = [{} for _ in range(alg.dim)]
        for coeff, mon in terms:
            A = image(mon)
            for a, P in zip(acc, A.comps if A else ()):
                ring.accumulate(a, P, F.scalar(coeff))
        for j, P in enumerate(map(ring.poly, acc)):
            if P.terms:
                yield f"rel:{label}[{j}]", P

    # coproduct compatibility on each generator: the component at
    # s_a (x) s_b of (rho (x) rho)(Delta g) - Delta(rho(g)), a <= b.
    # Delta(s_j) at s_a (x) s_b, a <= b, as [(j, c), ...]:
    cop = {}
    C = alg.hopf.coproduct
    for a, b, j in np.argwhere(C[1:].transpose(1, 2, 0)).tolist():
        if a <= b:
            cop.setdefault((a, b), []).append((j + 1, int(C[j + 1, a, b])))
    for gi, g in enumerate(gens, start=1):
        # one term of each cocommuting pair, ri < le in P_r's basis order,
        # of those with no zero letter; B is skipped when A is zero
        products = {}  # (a, b), a <= b -> [(P, Q, coefficients), ...]
        for le, ri, c in source.gen_coproduct(g, live):
            if ri < le:
                continue
            (cl, ml), (cr, mr) = source.gamma_monomial(le), source.gamma_monomial(ri)
            A = image(ml)
            B = A and image(mr)
            if B:
                _tensor_products(A, B, F.scalar(c * cl * cr), le != ri, products)
        upper = products.keys() | cop.keys()
        lower = {}  # (b, a) -> the label of (a, b), or its negation
        for a, b in sorted(upper | {(b, a) for a, b in upper}):
            label = f"cop:{g}[{a},{b}]"
            if a > b:
                if (a, b) in lower:
                    yield label, lower.pop((a, b))
                continue
            acc = {}
            for P, Q, coefs in products.get((a, b), ()):
                ring.addmul([(acc, k) for k in coefs], P, Q)
            for j, c in cop.get((a, b), ()):
                ring.accumulate(acc, {x(gi, j): c}, neg1)
            P = ring.poly(acc)
            if P.terms:
                yield label, P
                if a < b:
                    odd = par[a] and par[b]
                    lower[(b, a)] = ring.poly({m: neg[c] for m, c in P.terms.items()}) if odd else label

    # antipode compatibility: rho(S g) = S(rho(g)), with S g = -g
    for gi, g in enumerate(gens, start=1):
        acc = [{} for _ in range(alg.dim)]
        for j in nonunit:
            ring.accumulate(acc[j], {x(gi, j): neg1})
            for m in np.nonzero(alg.hopf.antipode[:, j])[0]:
                ring.accumulate(acc[m], {x(gi, j): int(alg.hopf.antipode[m, j])}, neg1)
        for m, P in enumerate(map(ring.poly, acc)):
            if P.terms:
                yield f"ant:{g}[{m}]", P


def check_solver_cap(source: PrPresentation, alg: PresentedSuperalgebra) -> int:
    """q^(number of even variables), read from the presentation and the
    algebra's parities before any ideal is built.  It bounds the even points,
    so what `points --method solve` may print, not the solver's work; above
    SOLVE_ASSIGNMENT_CAP it raises BoundExceeded (exit 3) before any work."""
    odd = int(alg.parity.sum())  # odd basis elements; the unit is even
    n_even = sum(odd if source.gen_parity(g) else alg.dim - 1 - odd for g in source.gen_names)
    count = alg.field.q**n_even
    if count > SOLVE_ASSIGNMENT_CAP:
        raise BoundExceeded(f"{count} candidate assignments exceed the cap {SOLVE_ASSIGNMENT_CAP}")
    return count


def solve_even_points(ideal: PolynomialIdeal):
    """All even F_q points of the ideal (odd variables zero), as a list of
    morphism image dictionaries {generator: vector}: _solve, after
    check_solver_cap.  Only the ideal's source and target are read."""
    check_solver_cap(ideal.source, ideal.target)
    return _solve(ideal.source, ideal.target)


def _solve(source: PrPresentation, alg: PresentedSuperalgebra):
    """The even Hopf maps rho: P_r -> kG, one generator g at a time.

    On a stack of partial solutions, rho(g) = x solves A x = b
    (_layer_system): its reduced coproduct is the sum b of the terms
    c rho(s) (x) rho(t) of (rho (x) rho)(Delta g) with s, t not the unit,
    words in earlier generators, and S x = -x.  A row with no solution is dropped, the others
    spread over their cosets x + ker A, and the leaves are kept where the
    relations of P_r vanish."""
    F, d = alg.F, alg.dim
    systems = [_layer_system(alg, parity) for parity in (0, 1)]
    images, n = {}, 1  # generator -> (n, d) images, a row per partial solution
    for g in source.gen_names:
        cols, live, A, indep, E, pivots, coset = systems[source.gen_parity(g)]
        b, memo = linalg.zeros(n, len(live)), {}
        for s, t, c in source.gen_coproduct(g):
            if s and t:
                x, y = (alg.el_word(*source.gamma_monomial(e), images, memo)[:, 1:] for e in (s, t))
                outer = F.mul[F.mul[F.scalar(c), x[:, :, None]], y[:, None, :]]
                b[:, d:] = F.add[b[:, d:], outer.reshape(n, -1)]  # n >= 1: rho = 0 is a row
        X = linalg.zeros(n, len(cols))
        X[:, pivots] = linalg.bmatmul(F, b[:, live][:, indep], E.T)
        ok = (linalg.bmatmul(F, X, A.T) == b[:, live]).all(axis=1) & ~b[:, ~live].any(axis=1)
        n = int(ok.sum()) * len(coset)
        images = {h: np.repeat(y[ok], len(coset), axis=0) for h, y in images.items()}
        images[g] = linalg.zeros(n, d)
        images[g][:, cols] = F.add[X[ok, None], coset].reshape(n, len(cols))
    ok, memo = np.ones(n, dtype=bool), {}
    for _, terms in source.relations():
        ok &= ~alg.el_terms(terms, images, memo).any(axis=1)
    return [{g: y[i] for g, y in images.items()} for i in np.flatnonzero(ok)]


def _layer_system(alg: PresentedSuperalgebra, parity: int):
    """(cols, live, A, indep, E, pivots, coset) for a generator of the parity.

    cols are the non-unit basis elements of the parity.  On their span, x ->
    (S x + x, Delta x - x (x) 1 - 1 (x) x) is a (d + (d-1)^2) x len(cols)
    matrix; by the counit axiom, its second part is C[x, a, b] at a, b > 0.
    A holds its nonzero rows, marked in live.  The rows indep of A span its
    row space, and E A[indep] is reduced echelon with pivot columns pivots,
    so x[pivots] = E b[indep] solves A x = b if anything does.  The rows of
    coset are ker A."""
    F, d = alg.F, alg.dim
    cols = np.flatnonzero(alg.parity[1:] == parity) + 1
    C, S = alg.hopf.coproduct[cols, 1:, 1:], F.add[alg.hopf.antipode, linalg.identity(d)]
    A = np.vstack([S[:, cols], C.reshape(len(cols), (d - 1) ** 2).T])
    live = A.any(axis=1)
    A = A[live]
    indep = linalg.rref(F, A.T)[1]
    R, pivots = linalg.rref(F, np.hstack([A[indep], linalg.identity(len(indep))]))
    K = linalg.right_kernel(F, A[indep])
    coset = linalg.bmatmul(F, linalg.grid(alg.field.q, K.shape[1]), K.T)
    return cols, live, A, indep, R[:, len(cols) :], pivots, coset
