"""The coordinate coalgebra k[M_{r;s}] dualized against the divided-power
basis must reproduce the built group algebra tables exactly."""

import pytest

from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra
from oracles.algebra_oracle import coproduct_triples, products
from oracles.dual_oracle import km_r_dual_oracle


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_dual_tables_match_built_algebra(r, s):
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=r, s=s))
    orc = km_r_dual_oracle(3, r, s)
    assert orc.dim == alg.dim
    assert {k: tuple(v) for k, v in orc.gamma_mult.items()} == {
        k: tuple(v) for k, v in products(alg).items()
    }
    assert tuple(tuple(sorted(t)) for t in orc.gamma_coproduct) == coproduct_triples(alg)


def test_counit_unit_duality():
    # the counit of k[M_{r;s}] dualizes to gamma_0 = the unit of kM_{r;s}
    orc = km_r_dual_oracle(3, 1, 1)
    C = orc.change_of_basis
    unit_col = C[:, 0]
    one_index = [m for m, mono in enumerate(orc.basis) if mono == (0, 0, 0)][0]
    for m in range(orc.dim):
        assert unit_col[m] == (1 if m == one_index else 0)


def test_coordinate_algebra_bialgebra_axioms():
    orc = km_r_dual_oracle(3, 2, 1)
    mult, cop = orc.coord_mult, orc.coord_coproduct
    dim = orc.dim
    # coassociativity of the coordinate coproduct
    for i in range(dim):
        lhs, rhs = {}, {}
        for a, b, c in cop[i]:
            for a1, a2, c2 in cop[a]:
                key = (a1, a2, b)
                lhs[key] = (lhs.get(key, 0) + c * c2) % 3
            for b1, b2, c2 in cop[b]:
                key = (a, b1, b2)
                rhs[key] = (rhs.get(key, 0) + c * c2) % 3
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
    # associativity of the coordinate product
    import random

    rng = random.Random(0)
    for _ in range(300):
        i, j, k = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
        lhs, rhs = {}, {}
        for m, c in mult.get((i, j), ()):
            for n, c2 in mult.get((m, k), ()):
                lhs[n] = (lhs.get(n, 0) + c * c2) % 3
        for m, c in mult.get((j, k), ()):
            for n, c2 in mult.get((i, m), ()):
                rhs[n] = (rhs.get(n, 0) + c * c2) % 3
        assert {k2: v for k2, v in lhs.items() if v} == {k2: v for k2, v in rhs.items() if v}


def test_oracles_live_outside_the_package():
    # the oracles are test code: the package neither ships nor imports them
    import ast
    import importlib.util
    import pathlib

    import supvar
    import supvar.homalg
    import supvar.linalg

    assert importlib.util.find_spec("supvar.superalg.dual_oracle") is None
    assert not hasattr(supvar.homalg, "ext_dims_untwisted")
    assert not hasattr(supvar.linalg, "restrict_operator")
    for path in pathlib.Path(supvar.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(n.split(".")[0] in ("oracles", "tests") for n in names), path
