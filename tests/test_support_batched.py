"""The chunked, stacked support decision against the per-point oracle, and
the checks that now run once per chunk."""

import json

import numpy as np
import pytest

import supvar.varieties as varieties
from supvar.cli import main
from supvar.errors import ValidationError
from supvar.gfield import make_field
from supvar.homalg import PD_INFINITE, ext_dims, pd_class
from supvar.smod import (
    SuperModule,
    build_L,
    extend_scalars,
    module_to_json,
    p1_trivial,
    random_module,
    tensor_module,
)
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra
from supvar.varieties import enumerate_points, point_pullback, support_set

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F27 = make_field(3, 3)
M11 = GroupAlgebraSpec("Mrs", 3, r=1, s=1)
M21 = GroupAlgebraSpec("Mrs", 3, r=2, s=1)
M12 = GroupAlgebraSpec("Mrs", 3, r=1, s=2)
M11P5 = GroupAlgebraSpec("Mrs", 5, r=1, s=1)


def _random(spec, field, seed, dim_bound):
    alg, _ = build_group_algebra(spec, field)
    return random_module(seed, alg, dim_bound)


def oracle(spec, M, field):
    """Keys of the points whose own pullback has infinite pd, one at a time."""
    MF = extend_scalars(M, field)
    out = set()
    for pt in enumerate_points(spec, field).points:
        view = point_pullback(spec, pt, MF)
        infinite = pd_class(view) == PD_INFINITE
        # Ext^2(M, k) through the parity-split complex and the one-matrix rank
        assert infinite == (ext_dims(view, p1_trivial(field), 2).total(2) > 0)
        if infinite:
            out.add(pt.key())
    return out


CASES = [
    # the random modules' seeds give dimensions 6, 5 and 5 with proper supports
    ("L/F9", M11, lambda: build_L(F3.element(0), F3.element(1)), F9),
    ("L/F27", M11, lambda: build_L(F3.element(1), F3.element(2)), F27),
    ("M21/F9", M21, lambda: _random(M21, F3, 2, 6), F9),
    ("M12/F9", M12, lambda: _random(M12, F3, 4, 5), F9),
    ("p5/F25", M11P5, lambda: _random(M11P5, F5, 0, 5), F25),
    (
        "LxL/F9",
        M11,
        lambda: tensor_module(
            build_L(F3.element(1), F3.element(1)), build_L(F3.element(1), F3.element(1))
        ),
        F9,
    ),
]


@pytest.mark.parametrize("name,spec,make,field", CASES, ids=[c[0] for c in CASES])
def test_support_matches_per_point_oracle(name, spec, make, field):
    M = make()
    sup = support_set(spec, M, field)
    npts = len(enumerate_points(spec, field).points)
    assert 1 < len(sup.points) < npts  # a proper support: both verdicts occur
    assert {pt.key() for pt in sup.points} == oracle(spec, M, field)


def test_chunk_boundaries(monkeypatch):
    M = build_L(F3.element(1), F3.element(2))
    want = [pt.key() for pt in support_set(M11, M, F9).points]
    cells = (2 * M.dim) ** 2
    for per in (1, 7):  # 81 points: one per chunk, and chunks of 7 with a short last one
        monkeypatch.setattr(varieties, "_CHUNK_CELLS", per * cells)
        assert [pt.key() for pt in support_set(M11, M, F9).points] == want


def _bad_modules():
    """M_{1;1}-modules built directly, skipping validate_module: the
    actions of u0 and v do not commute, or v^2 != -u0^p."""
    alg, _ = build_group_algebra(M11)
    # e0, e2 even and e1 odd; U: e0 -> e2, V: e2 -> e1, so VU != 0 = UV
    U = np.zeros((3, 3), dtype=np.int32)
    V = np.zeros((3, 3), dtype=np.int32)
    U[2, 0] = 1
    V[1, 2] = 1
    noncommuting = SuperModule(alg, 3, np.array([0, 1, 0], dtype=np.int8), {"u0": U, "v": V})
    # V swaps an even and an odd vector, so V^2 = 1 while U = 0
    V = np.array([[0, 1], [1, 0]], dtype=np.int32)
    U = np.zeros((2, 2), dtype=np.int32)
    bad_square = SuperModule(alg, 2, np.array([0, 1], dtype=np.int8), {"u0": U, "v": V})
    return [("do not commute", noncommuting), ("V^2 != -U^p", bad_square)]


@pytest.mark.parametrize("message,M", _bad_modules(), ids=["commute", "square"])
def test_moved_checks_still_fire(message, M, tmp_path, capsys):
    with pytest.raises(ValidationError, match=message.replace("^", r"\^")):
        support_set(M11, M, F3)
    mod = tmp_path / "bad.json"
    mod.write_text(json.dumps(module_to_json(M)))
    grp = tmp_path / "m11.json"
    grp.write_text(json.dumps(M11.to_json()))
    code = main(["support", "-g", str(grp), "-m", str(mod), "-F", "3^1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
