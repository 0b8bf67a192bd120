import numpy as np
import pytest

from oracles.points_oracle import elements, embed, frobenius, inv, inverse_frobenius
from supvar.gfield import FieldError, make_field, parse_element, parse_field
import supvar.linalg as la


def test_make_field_examples():
    F3 = make_field(3, 1)
    assert F3.q == 3 and F3.modulus == (0, 1)
    F9 = make_field(3, 2)
    assert F9.q == 9
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(2, 1)
    with pytest.raises(FieldError):
        make_field(3, 5)


def test_canonical_moduli_golden():
    # lexicographically least monic irreducibles, stable across runs
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(3, 3).modulus == (1, 0, 2, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)
    assert make_field(7, 2).modulus == (1, 0, 1)
    assert make_field(3, 2) is make_field(3, 2)  # cached, reproducible


def test_inverse_examples():
    F3 = make_field(3, 1)
    assert inv(F3.element(2)).index == 2  # 2*2 = 4 = 1
    F9 = make_field(3, 2)
    assert inv(F9.one()).index == 1
    for x in elements(F9):
        if not x.is_zero():
            assert (x * inv(x)).index == 1
            assert la.tables(F9).inv[x.index] == inv(x).index  # the table the program uses
    with pytest.raises(FieldError):
        inv(F9.from_index(0))


def test_frobenius():
    F3 = make_field(3, 1)
    for x in elements(F3):
        assert frobenius(x).index == x.index  # x^3 = x on F_3
    F9 = make_field(3, 2)
    t = F9.from_index(3)  # the generator x
    assert frobenius(t).index == (t**3).index
    assert frobenius(frobenius(t)).index == t.index
    for F in (F3, F9, make_field(5, 1)):
        images = {frobenius(x).index for x in elements(F)}
        assert images == set(range(F.q))
        assert la.tables(F).frob.tolist() == [frobenius(x).index for x in elements(F)]
        for x in elements(F):
            assert inverse_frobenius(frobenius(x)).index == x.index
            assert frobenius(x + F.one()).index == (frobenius(x) + F.one()).index


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
def test_field_axioms_exhaustive(p, n):
    F = la.tables(make_field(p, n))
    a = np.arange(F.q)
    aa, bb, cc = a[:, None, None], a[None, :, None], a[None, None, :]
    assert (F.add[F.add[aa, bb], cc] == F.add[aa, F.add[bb, cc]]).all()
    assert (F.mul[F.mul[aa, bb], cc] == F.mul[aa, F.mul[bb, cc]]).all()
    assert (F.add[aa[:, :, 0], bb[:, :, 0]] == F.add[bb[:, :, 0], aa[:, :, 0]]).all()
    assert (F.mul[aa[:, :, 0], bb[:, :, 0]] == F.mul[bb[:, :, 0], aa[:, :, 0]]).all()
    assert (F.mul[aa, F.add[bb, cc]] == F.add[F.mul[aa, bb], F.mul[aa, cc]]).all()
    assert (F.add[a, 0] == a).all() and (F.mul[a, 1] == a).all()
    assert (F.add[a, F.neg[a]] == 0).all()
    nz = a[1:]
    assert (F.mul[nz, F.inv[nz]] == 1).all()


def test_encodings():
    F3 = make_field(3, 1)
    F9 = make_field(3, 2)
    assert F3.encode() == "3^1" and F9.encode() == "3^2"
    assert parse_field("3^2") is F9
    assert parse_field("5") is make_field(5, 1)
    x = F9.element([1, 2])
    assert x.encode() == "1:2"
    assert parse_element(F9, "1:2").coeffs == x.coeffs
    assert parse_element(F3, "2").encode() == "2"
    assert parse_element(F9, "2").coeffs == (2, 0)  # prime subfield shorthand
    with pytest.raises(FieldError):
        parse_element(F9, "1:2:0")


def test_embed_prime_subfield_preserves_index():
    F3 = make_field(3, 1)
    F9 = make_field(3, 2)
    for x in elements(F3):
        assert embed(x, F9).index == x.index
