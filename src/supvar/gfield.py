"""Exact arithmetic in small finite fields F_{p^n} of odd characteristic.

Elements are dense coefficient vectors over F_p in the polynomial basis
1, x, ..., x^{n-1} modulo a canonical irreducible polynomial.  For fixed
(p, n) the modulus is the lexicographically least monic irreducible
polynomial, ordered by the coefficient tuple (a_0, ..., a_{n-1}), so that
element encodings are identical across runs and platforms.

Multiplication has one definition: `FieldDescriptor.mulmat`, the F_p-matrix
of x -> a*x for every element a.  `FieldElement.__mul__`, the index tables
of `linalg.GFTables` and every matrix product in `linalg` are derived from it.

Text encodings: a descriptor prints as "p^n"; an element of a prime field
prints as a single digit, and an element of an extension field as a
colon-joined coefficient list "c0:c1:...", low degree first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

SUPPORTED_PRIMES = (3, 5, 7)
MAX_DEGREE = 4


class FieldError(ValidationError):
    """Invalid field construction or element operation."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and _poly_trim(a):
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        a = _poly_trim(a)
    return _poly_trim(a)


def _poly_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _monic_irreducibles(p: int, deg: int):
    """All monic irreducible polynomials of the given degree, lex order."""
    from itertools import product

    out = []
    for tail in product(range(p), repeat=deg):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            out.append(f)
    return out


def _is_irreducible(f, p: int) -> bool:
    deg = len(f) - 1
    if deg == 1:
        return True
    if any(_poly_eval(f, x, p) == 0 for x in range(p)):
        return False
    if deg <= 3:
        return True
    # Degree 4: also rule out products of two irreducible quadratics.
    for g in _monic_irreducibles(p, 2):
        if not _poly_mod(f, g, p):
            return False
    return True


def canonical_modulus(p: int, n: int):
    """Lexicographically least monic irreducible of degree n over F_p."""
    if n == 1:
        return (0, 1)
    from itertools import product

    for tail in product(range(p), repeat=n):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")


class FieldDescriptor:
    """A fixed finite field F_{p^n} with its canonical modulus."""

    __slots__ = ("p", "n", "q", "modulus", "_tables", "_mulmat")

    def __init__(self, p: int, n: int, modulus):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = tuple(modulus)
        self._tables = None
        self._mulmat = None

    @property
    def digits(self) -> np.ndarray:
        """Coefficient vectors of all q elements in index order: shape (q, n)."""
        return (np.arange(self.q)[:, None] // self.p ** np.arange(self.n)) % self.p

    @property
    def mulmat(self) -> np.ndarray:
        """The multiplication matrices of the field, shape (q, n, n), int64.

        mulmat[a] is the matrix over F_p of x -> a*x in the basis
        1, x, ..., x^{n-1}, so a*b has coefficients mulmat[a] @ b.  Column j
        is a*x^j = sum_i a_i x^{i+j}, reduced through the rows x^k mod the
        modulus (k < 2n - 1).  Built once per descriptor.
        """
        if self._mulmat is None:
            p, n = self.p, self.n
            red = [_poly_mod([0] * k + [1], self.modulus, p) for k in range(2 * n - 1)]
            red = [(r + [0] * n)[:n] for r in red]  # x^k mod the modulus
            shift = np.array([[red[i + j] for j in range(n)] for i in range(n)])  # [i, j, t]
            self._mulmat = np.einsum("ai,ijt->atj", self.digits, shift) % p
        return self._mulmat

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def element(self, value) -> "FieldElement":
        """Coerce an int (prime subfield) or coefficient list into the field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldError("field mismatch")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.n - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.n:
            raise FieldError(f"need {self.n} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise FieldError(f"index {idx} out of range for {self}")
        coeffs = []
        for _ in range(self.n):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, tuple(coeffs))

    def encode(self) -> str:
        return f"{self.p}^{self.n}"

    def __repr__(self):
        return f"GF({self.p}^{self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))


class FieldElement:
    """An element of a fixed F_{p^n}, stored as its coefficient vector.

    The program meets elements only as text: parse_element reads one and
    encode writes one.  All its arithmetic runs on element indices through
    linalg.GFTables; the operators here are the tests' independent
    reference for those tables.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def index(self) -> int:
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.p + c
        return idx

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.element(other)
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("field mismatch")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, ((f.mulmat[self.index] @ other.coeffs) % f.p).tolist())

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise FieldError("cannot invert zero")
        # x^(q-2) = x^(-1) in F_q
        return self ** (self.field.q - 2)

    def encode(self) -> str:
        if self.field.n == 1:
            return str(self.coeffs[0])
        return ":".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"{self.encode()}∈{self.field.encode()}"


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldDescriptor:
    """Construct (and cache) the canonical F_{p^n}.

    Requires p in {3, 5, 7} and 1 <= n <= 4; construction is pure, so two
    calls with the same arguments return the identical descriptor object.
    """
    if not isinstance(p, int) or not isinstance(n, int):
        raise FieldError("p and n must be integers")
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p == 2:
        raise FieldError("characteristic 2 is not supported")
    if p not in SUPPORTED_PRIMES:
        raise FieldError(f"p must be one of {SUPPORTED_PRIMES}, got {p}")
    if not 1 <= n <= MAX_DEGREE:
        raise FieldError(f"extension degree must be in [1, {MAX_DEGREE}], got {n}")
    return FieldDescriptor(p, n, canonical_modulus(p, n))


def parse_field(text: str) -> FieldDescriptor:
    """Parse a descriptor encoding like "3^2" (plain "3" means n = 1)."""
    text = text.strip()
    try:
        if "^" in text:
            ps, ns = text.split("^", 1)
            return make_field(int(ps), int(ns))
        return make_field(int(text), 1)
    except ValueError as e:
        if isinstance(e, FieldError):
            raise
        raise FieldError(f"bad field descriptor {text!r}") from None


def parse_element(field: FieldDescriptor, text: str) -> FieldElement:
    """Parse the element text encoding for the given field."""
    parts = text.strip().split(":")
    try:
        ints = [int(s) for s in parts]
    except ValueError:
        raise FieldError(f"bad element {text!r} for {field.encode()}") from None
    if field.n == 1:
        if len(ints) != 1:
            raise FieldError(f"bad element {text!r} for {field.encode()}")
        return field.element(ints[0])
    if len(ints) == 1:
        # allow prime-subfield shorthand
        return field.element(ints[0])
    if len(ints) != field.n:
        raise FieldError(f"bad element {text!r} for {field.encode()}")
    return field.element(ints)

