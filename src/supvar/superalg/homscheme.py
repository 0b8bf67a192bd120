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

Polynomials are numpy term tables (PolyRing), and every generator is a sum
of products of tables, formed a batch of RENDER_CHUNK rows at a time; a
batch grows past that only to hold the terms of one component.

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
from functools import cached_property, partial
from heapq import heappop, heappush
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
MAX_EXPONENT = 127  # exponents are uint8, so a sum of two cannot wrap
RENDER_CHUNK = 2048  # rows per batch of products, and per chunk of the render


class PolyRing:
    """Supercommutative polynomials over F_q in named graded variables.

    A polynomial is a term table: a uint8 matrix E with one exponent row per
    monomial, the entries of odd variables 0 or 1, and an array c of nonzero
    field element indices.  Tables are canonical: distinct monomials, by
    (degree, exponent row) descending, the order of `render`.  An element of
    kG (x) T is a table with a basis index per row, ordered by it first.

    `_sums` forms sums of products a batch of rows at a time; `_combine`
    sums like terms in one sort.  Variable names are distinct identifiers,
    so that the text of a polynomial determines it (see `render`).
    """

    def __init__(self, field, variables):
        self.field = field
        self.variables = tuple(variables)  # ((name, parity), ...)
        names = [name for name, _ in self.variables]
        if len(set(names)) < len(names) or not all(name.isidentifier() for name in names):
            raise ValidationError("variable names must be distinct identifiers")
        self.name_index = {name: i for i, (name, _) in enumerate(self.variables)}
        self.parity = tuple(par for _, par in self.variables)
        self.odd = np.flatnonzero(self.parity)  # the columns of odd variables

    # built when the ring first computes, so a caller can check its own cap first
    F = cached_property(lambda self: linalg.tables(self.field))

    @cached_property
    def _texts(self):
        """(texts, known) of the render's tokens: 3 c + s the coefficient c
        after the separator s ("", a newline or " + "), and 3 q + 128 v + e
        the factor "*x^e" of variable v; known marks those filled in."""
        size = 3 * self.field.q + (MAX_EXPONENT + 1) * len(self.variables)
        return np.empty(size, dtype=object), np.zeros(size, dtype=bool)

    def _combine(self, k, E, c, deg=None):
        """The terms (k, E, c) sorted by k, then canonically, with like terms
        summed digitwise mod p and zeros dropped: the one sort of every sum.
        deg holds the row sums of E, if known.  A row's sort key is its bytes:
        k and the degree's complement, big-endian, then 255 - E."""
        t, n = E.shape
        if not t:
            return k, E, c
        deg = E.sum(axis=1, dtype=np.uint32) if deg is None else deg
        words = np.zeros((t, (n + 15) // 8), dtype=np.uint64)
        words[:, 0] = (k.astype(np.uint64) << 32 | ~deg.astype(np.uint32)).astype(">u8").view(np.uint64)
        np.subtract(255, E, out=words.view(np.uint8)[:, 8 : 8 + n])
        order = np.argsort(words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel())
        words = words[order]
        first = np.ones(t, dtype=bool)
        np.any(words[1:] != words[:-1], axis=1, out=first[1:])
        starts = np.flatnonzero(first)
        F = self.F
        c = (np.add.reduceat(F.digits[c[order]], starts) % F.p @ F.powers).astype(np.int64)
        rows = order[starts[c != 0]]
        return k[rows], E[rows], c[c != 0]

    def _sums(self, ops):
        """Yield blocks (k, E, c) of a sum of products, whole keys in
        increasing order: at each key, the sum of coef * A_a B_b over the jobs
        (a, b, key, coef) of every op (A, B, a, b, key, coef), where A_a is
        component a of the table A = (k, E, c), on the left (Koszul signs).

        The products are one range of rows, ordered by key, formed a batch
        of max(RENDER_CHUNK, carried rows) at a time: the rows of a key that
        runs on into the next batch are carried there and merged.  An odd
        square drops its row; an exponent above MAX_EXPONENT raises."""
        if not ops:
            return
        F, odd = self.F, self.odd
        jobs, offA, offB = [], 0, 0
        for (kA, _, cA), (kB, _, cB), a, b, key, coef in ops:
            sa, sb = np.searchsorted(kA, a), np.searchsorted(kB, b)
            la, lb = np.searchsorted(kA, a, "right") - sa, np.searchsorted(kB, b, "right") - sb
            jobs.append((sa + offA, sb + offB, lb, la * lb, key, coef))
            offA, offB = offA + len(cA), offB + len(cB)
        order = np.argsort(np.concatenate([job[4] for job in jobs]), kind="stable")
        a0, b0, lb, size, key, coef = (np.concatenate(x)[order] for x in zip(*jobs))
        EA, cA, EB, cB = (np.concatenate([op[i][j] for op in ops]) for i in (0, 1) for j in (1, 2))
        dA, dB = (X.sum(axis=1, dtype=np.uint32) for X in (EA, EB))
        # bits of A's and B's odd variables, and for A's rows the parity of
        # their odd variables after each odd variable
        OA, OB = EA[:, odd], EB[:, odd]
        SA = (np.cumsum(OA[:, ::-1], axis=1, dtype=np.uint8)[:, ::-1] - OA) & 1
        OA, OB, SA = map(_bits, (OA, OB, SA))
        end = np.cumsum(size)
        total, lo = int(size.sum()), 0
        carry = np.zeros(0, np.int64), EA[:0], cA[:0]
        while lo < total:
            hi = min(total, lo + max(RENDER_CHUNK, len(carry[0])))
            row = np.arange(lo, hi)
            j = np.searchsorted(end, row, side="right")
            ia, ib = np.divmod(row - (end - size)[j], lb[j])
            ia, ib = ia + a0[j], ib + b0[j]
            live = ~np.any(OA[ia] & OB[ib], axis=1)
            ia, ib, j = ia[live], ib[live], j[live]
            E = np.take(EA, ia, axis=0)
            E += np.take(EB, ib, axis=0)
            if E.size and E.max() > MAX_EXPONENT:
                raise ValidationError(f"a monomial exponent exceeds {MAX_EXPONENT}")
            c = F.mul[F.mul[cA[ia], cB[ib]], coef[j]]
            c = np.where(np.bitwise_count(SA[ia] & OB[ib]).sum(axis=1) & 1, F.neg[c], c)
            deg = np.concatenate([carry[1].sum(axis=1, dtype=np.uint32), dA[ia] + dB[ib]])
            k, E, c = self._combine(*(np.concatenate(x) for x in zip(carry, (key[j], E, c))), deg)
            cut = len(k)
            if hi < total and cut and k[-1] == key[np.searchsorted(end, hi, side="right")]:
                cut = np.searchsorted(k, k[-1])
            carry = k[cut:], E[cut:], c[cut:]
            if cut:
                yield k[:cut], E[:cut], c[:cut]
            lo = hi

    def render(self, polys):
        """One line per distinct nonzero polynomial of polys, first occurrence
        first: "c*x*y^2 + ...", monomials in table order, by (degree,
        exponent row) descending.

        polys is read once, and may be a generator.  Consecutive polynomials
        are formatted together, a chunk of about RENDER_CHUNK terms at a time,
        so only one chunk's tables are alive beside the lines.  Repeats are
        dropped by their line: a line determines its polynomial, since
        variable names are distinct identifiers and coefficient texts hold no
        "*", "^" or " ".  All lines are returned together, so an error raised
        by polys leaves none.
        """
        lines = {}  # line -> None, in first-occurrence order
        chunk, size = [], 0
        for P in polys:
            if len(P.c):
                chunk.append(P)
                size += len(P.c)
                if size >= RENDER_CHUNK:
                    self._render_chunk(chunk, size, lines)
                    chunk, size = [], 0
        self._render_chunk(chunk, size, lines)
        return list(lines)

    def _render_chunk(self, chunk: list, t: int, lines: dict):
        """Add the line of each polynomial of chunk, t terms, to lines.  The
        chunk is one token sequence, joined once: per term its coefficient
        with the separator before it, then its factors in variable order.
        Those are the nonzero entries of its row in row-major order, found
        a word of 8 exponents at a time."""
        if not chunk:
            return
        n = len(self.variables)
        E, c = np.zeros((t, (n + 7) // 8 * 8), dtype=np.uint8), np.concatenate([P.c for P in chunk])
        np.concatenate([P.E for P in chunk], out=E[:, :n])
        sep = np.full(t, 2)  # " + ", a newline before each polynomial but the first
        sep[np.cumsum([0] + [len(P.c) for P in chunk[:-1]])] = 1
        sep[0] = 0
        words = np.flatnonzero(E.view(np.uint64))
        ones = np.flatnonzero(E.view(np.uint64).ravel()[words].view(np.uint8))
        rows, cols = np.divmod(words[ones >> 3] * 8 + (ones & 7), E.shape[1])
        factors = np.bincount(rows, minlength=t).cumsum()
        seq = np.empty(len(rows) + t, dtype=np.int64)
        seq[factors - np.diff(factors, prepend=0) + np.arange(t)] = 3 * c + sep
        seq[np.arange(len(rows)) + rows + 1] = 3 * self.field.q + (MAX_EXPONENT + 1) * cols + E[rows, cols]
        texts, known = self._texts
        for tok in np.flatnonzero(np.bincount(seq[~known[seq]], minlength=len(known))).tolist():
            v, e = divmod(tok - 3 * self.field.q, MAX_EXPONENT + 1)
            if v < 0:
                texts[tok] = ("", "\n", " + ")[tok % 3] + self.F.to_element(tok // 3).encode()
            else:
                texts[tok] = f"*{self.variables[v][0]}" + (f"^{e}" if e > 1 else "")
            known[tok] = True
        lines.update(dict.fromkeys("".join(texts[seq].tolist()).split("\n")))


def _bits(M):
    """The rows of the 0/1 matrix M as uint64 words of bits."""
    out = np.zeros((len(M), (M.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (M.shape[1] + 7) // 8] = np.packbits(M, axis=1)
    return out.view(np.uint64)


def _gather(blocks, n: int):
    """One table (k, E, c) of the blocks of PolyRing._sums."""
    blocks = list(blocks) or [(np.zeros(0, np.int64), np.zeros((0, n), np.uint8), np.zeros(0, np.int64))]
    return tuple(np.concatenate(x) for x in zip(*blocks))


class SuperPoly:
    """Parity-homogeneous polynomial: a canonical term table (see PolyRing),
    exponent rows E and nonzero field element indices c."""

    __slots__ = ("ring", "E", "c")

    def __init__(self, ring, E, c):
        self.ring, self.E, self.c = ring, E, c

    @property
    def table(self):
        return np.zeros(len(self.c), np.int64), self.E, self.c

    def is_zero(self):
        return not len(self.c)

    def __mul__(self, other):
        ring, zero = self.ring, np.zeros(1, np.int64)
        ops = [(self.table, other.table, zero, zero, zero, zero + 1)]
        return SuperPoly(ring, *_gather(ring._sums(ops), len(ring.variables))[1:])

    def render(self):
        """Deterministic text (PolyRing.render), "0" for zero."""
        return self.ring.render([self])[0] if len(self.c) else "0"


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
        return self.ring.render(P for _, P in self.items() if not isinstance(P, str))

    def even_variable_names(self):
        return [n for n, par in self.ring.variables if par == 0]


@dataclass(slots=True)
class _SVec:
    """Element of kG (x) T of fixed parity: a table (k, E, c), k the kG basis
    index of a row."""

    alg: PresentedSuperalgebra
    ring: PolyRing
    table: tuple
    parity: int

    def mul(self, other):
        """The product in kG (x) T, s_j P s_k Q = (-1)^{|P||s_k|} s_j s_k PQ,
        over the nonzero entries of kG's product tensor."""
        alg, ring = self.alg, self.ring
        j, k, m, c = alg.products
        c = np.where((self.parity + alg.parity[j]) % 2 & alg.parity[k], ring.F.neg[c], c)
        table = _gather(ring._sums([(self.table, other.table, j, k, m, c)]), len(ring.variables))
        return _SVec(alg, ring, table, (self.parity + other.parity) % 2)


def _tensor_jobs(A: _SVec, B: _SVec, c: int, mirror: bool):
    """The op of PolyRing._sums whose sum is c * (A (x) B), and with mirror
    also c * (B (x) A), at each s_a (x) s_b with a <= b, keyed a * dim + b:
    the product P Q of components A_i, B_j with the Koszul reordering signs.

    The component of B (x) A at (a, b) is B_a A_b = (-1)^{|A_b||B_a|}
    A_b B_a, moved past s_a, which leaves the sign (-1)^{|B_a||A|}.  So
    each product A_i B_j is listed once: at (i, j) for A (x) B if i <= j,
    at (j, i) for B (x) A if j <= i, and with both coefficients at i = j."""
    par, neg, add = A.alg.parity, A.ring.F.neg, A.ring.F.add
    present = (np.flatnonzero(np.bincount(X.table[0], minlength=A.alg.dim)) for X in (A, B))
    i, j = (x.ravel() for x in np.meshgrid(*present, indexing="ij"))
    coef = np.where((A.parity + par[i]) % 2 & par[j], neg[c], c)
    if mirror:
        back = np.where((B.parity + par[j]) % 2 & A.parity, neg[c], c)
        coef = np.where(i < j, coef, np.where(i > j, back, add[coef, back]))
    keep = (i <= j) | mirror
    key = np.minimum(i, j) * A.alg.dim + np.maximum(i, j)
    return A.table, B.table, i[keep], j[keep], key[keep], coef[keep]


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

    The target's coproduct is checked super-cocommutative when it is built.
    Variables are ordered generator-major then by basis index; x_{i}_{j}
    carries parity |r_i| + |s_j|.  Only the checks and the ring are made
    here: the generators are built as the ideal's stream is read
    (_generators).
    """
    check_source(source, alg.field.p)
    variables = [
        (f"x_{gi}_{j}", (source.gen_parity(g) + int(alg.parity[j])) % 2)
        for gi, g in enumerate(source.gen_names, start=1)
        for j in range(1, alg.dim)
    ]
    ring = PolyRing(alg.field, variables)
    return PolynomialIdeal(ring, partial(_generators, source, alg, ring), source, alg)


def _polys(ring: PolyRing, ops):
    """(key, SuperPoly) of each nonzero key of the sums of ops (PolyRing._sums)."""
    for k, E, c in ring._sums(ops):
        cuts = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
        for lo, hi in zip(cuts, cuts[1:]):
            yield int(k[lo]), SuperPoly(ring, E[lo:hi], c[lo:hi])


def _generators(source: PrPresentation, alg: PresentedSuperalgebra, ring: PolyRing):
    """The generators of hom_scheme_ideal, in order, as PolynomialIdeal.items
    yields them: the relations of the source, the coproduct compatibility of
    each generator, then the antipode compatibility.  Each is a sum of
    products that PolyRing._sums builds a batch at a time: a sum of words,
    of a generator's image times the unit, or of tensor products.

    Each nonzero image of a word is built once, from its longest prefix
    built before (walk_word); zero images are not kept, as for a large
    source nearly all p^(r-1) gammas are zero and distinct.  The coproduct
    components of a generator come out of one sum, in order (_tensor_jobs):
    (a, b) with a <= b, and (b, a) when |s_a||s_b| is odd, as the negation
    of (a, b), from the same products.  When it is even, the stream repeats
    (a, b) at (b, a), by label.
    """
    gens, d, n = source.gen_names, alg.dim, len(ring.variables)
    F, par, neg, odd = alg.F, alg.parity.tolist(), ring.F.neg, alg.parity.astype(bool)
    nonunit = np.arange(1, d)

    X, ones = np.eye(n, dtype=np.uint8), np.ones(d - 1, np.int64)  # X[v]: the variable v
    rho = {
        g: _SVec(alg, ring, (nonunit, X[gi * (d - 1) : (gi + 1) * (d - 1)], ones), source.gen_parity(g))
        for gi, g in enumerate(gens)
    }
    unit = _SVec(alg, ring, (np.zeros(1, np.int64), np.zeros((1, n), np.uint8), np.ones(1, np.int64)), 0)
    live = {g for g in gens if d > 1}
    words = {}  # word -> its nonzero image, for every prefix walked

    def times(A, B):
        out = A.mul(B)
        return out if len(out.table[2]) else None

    def image(mon):
        """The image of the monomial mon, or None when it is zero: a zero
        letter makes it zero before any product (walk_word, as el_word)."""
        if not live.issuperset(g for g, _ in mon):
            return None
        return walk_word(mon, rho.__getitem__, times, words) if mon else unit

    def by_unit(A, a, key, coef):
        return A.table, unit.table, a, np.zeros(len(a), np.int64), key, coef

    def negated_below(A, B, a, b, key, coef):
        """The op with its jobs at each odd x odd (a, b), a < b, again at
        (b, a), negated: that component's sum, in key order."""
        x, y = np.divmod(key, d)
        m = (x < y) & odd[x] & odd[y]
        pairs = (a, a[m]), (b, b[m]), (key, y[m] * d + x[m]), (coef, neg[coef[m]])
        return A, B, *(np.concatenate(v) for v in pairs)

    # algebra relations of the source
    every = np.arange(d)
    for label, terms in source.relations():
        images = [(image(mon), F.scalar(coeff)) for coeff, mon in terms]
        ops = [by_unit(A, every, every, np.full(d, c)) for A, c in images if A]
        for j, P in _polys(ring, ops):
            yield f"rel:{label}[{j}]", P

    # coproduct compatibility on each generator: the component at
    # s_a (x) s_b of (rho (x) rho)(Delta g) - Delta(rho(g)), a <= b, with
    # Delta(s_j) = sum C[j, a, b] s_a (x) s_b
    C = alg.hopf.coproduct
    cj, ca, cb = np.nonzero(C[1:] * np.triu(np.ones((d, d), dtype=C.dtype)))
    for g in gens:
        ops = [by_unit(rho[g], cj + 1, ca * d + cb, neg[C[cj + 1, ca, cb]])]
        # one term of each cocommuting pair, ri < le in P_r's basis order,
        # of those with no zero letter; B is skipped when A is zero
        for le, ri, c in source.gen_coproduct(g, live):
            if ri < le:
                continue
            (cl, ml), (cr, mr) = source.gamma_monomial(le), source.gamma_monomial(ri)
            A = image(ml)
            B = A and image(mr)
            if B:
                ops.append(_tensor_jobs(A, B, F.scalar(c * cl * cr), le != ri))
        repeats = []  # heap of (the key of (b, a), its label, the label of (a, b))
        for key, P in _polys(ring, [negated_below(*op) for op in ops]):
            while repeats and repeats[0][0] < key:
                yield heappop(repeats)[1:]
            a, b = divmod(key, d)
            yield f"cop:{g}[{a},{b}]", P
            if a < b and not (par[a] and par[b]):
                heappush(repeats, (b * d + a, f"cop:{g}[{b},{a}]", f"cop:{g}[{a},{b}]"))
        while repeats:
            yield heappop(repeats)[1:]

    # antipode compatibility: rho(S g) = S(rho(g)), with S g = -g
    S = alg.hopf.antipode
    sm, sj = np.nonzero(S[:, 1:])
    a, key = np.concatenate([nonunit, sj + 1]), np.concatenate([nonunit, sm])
    coef = np.concatenate([np.full(d - 1, neg[1]), neg[S[sm, sj + 1]]])
    for g in gens:
        for m, P in _polys(ring, [by_unit(rho[g], a, key, coef)]):
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
