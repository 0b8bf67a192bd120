"""The chunked, stacked support decision against the per-point oracle, and
the checks that now run once per chunk or where the data enters."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import supvar
import supvar.homalg as homalg
import supvar.smod as smod
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
    p1_view_from_images,
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
M21ETA = GroupAlgebraSpec("Mrs", 3, r=2, s=1, eta=1)
GAR2 = GroupAlgebraSpec("Gar", 3, r=2)


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
            out.add(tuple(pt.tolist()))
    return out


CASES = [
    # the random modules' seeds give dimensions 6, 5 and 5 with proper supports
    ("L/F9", M11, lambda: build_L(F3.element(0), F3.element(1)), F9),
    ("L/F27", M11, lambda: build_L(F3.element(1), F3.element(2)), F27),
    ("M21/F9", M21, lambda: _random(M21, F3, 2, 6), F9),
    ("M12/F9", M12, lambda: _random(M12, F3, 4, 5), F9),
    ("p5/F25", M11P5, lambda: _random(M11P5, F5, 0, 5), F25),
    # dimension 5 over M_{2;1,1}, where mu^2 = a_0^9, and dimension 6 over
    # G_a(2), whose points all have v = 0
    ("eta/F9", M21ETA, lambda: _random(M21ETA, F3, 4, 5), F9),
    ("Gar2/F9", GAR2, lambda: _random(GAR2, F3, 9, 6), F9),
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
    assert {tuple(pt) for pt in sup.points.tolist()} == oracle(spec, M, field)


@pytest.mark.parametrize("name,spec,make,field", CASES, ids=[c[0] for c in CASES])
def test_support_keeps_enumeration_order(name, spec, make, field):
    # support_set keeps the order in which enumerate_points lists the
    # points, with no second sort; the result must equal its own re-sort
    pts = support_set(spec, make(), field).points
    assert np.array_equal(pts, varieties._canonical(field, pts))
    texts = [field.from_index(i).encode() for i in range(field.q)]
    keys = [tuple(texts[c] for c in pt) for pt in pts.tolist()]
    assert keys == sorted(set(keys))
    order = {tuple(pt): i for i, pt in enumerate(enumerate_points(spec, field).points.tolist())}
    at = [order[tuple(pt)] for pt in pts.tolist()]
    assert at == sorted(at)


def test_chunk_boundaries(monkeypatch):
    M = build_L(F3.element(1), F3.element(2))
    want = support_set(M11, M, F9).points.tolist()
    cells = (2 * M.dim) ** 2
    for per in (1, 7):  # 81 points: one per chunk, and chunks of 7 with a short last one
        monkeypatch.setattr(varieties, "_CHUNK_CELLS", per * cells)
        assert support_set(M11, M, F9).points.tolist() == want


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


@pytest.mark.parametrize("name,spec,make,field", CASES, ids=[c[0] for c in CASES])
def test_checked_path_matches_default(name, spec, make, field, monkeypatch):
    """check=True adds the stacked U^dim = 0 and d.d = 0 checks and changes
    no verdict."""
    seen = {"nilpotent": [], "complex": []}
    validate = smod.P1ModuleView.validate
    post_init = homalg.CochainComplex.__post_init__

    def counting_validate(self, nilpotent=True):
        seen["nilpotent"].append(nilpotent)
        return validate(self, nilpotent)

    def counting_post_init(self):
        seen["complex"].append(self.check)
        post_init(self)

    monkeypatch.setattr(smod.P1ModuleView, "validate", counting_validate)
    monkeypatch.setattr(homalg.CochainComplex, "__post_init__", counting_post_init)
    M = make()
    default = support_set(spec, M, field)
    assert seen["complex"] and seen["nilpotent"]
    assert not any(seen["complex"]) and not any(seen["nilpotent"])
    seen = {"nilpotent": [], "complex": []}
    checked = support_set(spec, M, field, check=True)
    assert seen["complex"] and all(seen["complex"])
    assert seen["nilpotent"] and all(seen["nilpotent"])
    assert np.array_equal(checked.points, default.points)


def _files(tmp_path, M):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(module_to_json(M)))
    grp = tmp_path / "m11.json"
    grp.write_text(json.dumps(M11.to_json()))
    return str(grp), str(mod)


def _cli_fails(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_radical_not_nilpotent(tmp_path, capsys, monkeypatch):
    """U = I and V^2 = -I pass the stacked parity, commute and square checks
    at u -> u0, v -> v, and at the zero point; the radical check rejects them."""
    alg, _ = build_group_algebra(M11)
    V = np.array([[0, 2], [1, 0]], dtype=np.int32)
    U = np.eye(2, dtype=np.int32)
    M = SuperModule(alg, 2, np.array([0, 1], dtype=np.int8), {"u0": U, "v": V})
    radical = "radical of the algebra does not act nilpotently"
    with pytest.raises(ValidationError, match=radical):
        p1_view_from_images(M, alg.el_gen("u0"), alg.el_gen("v"))
    with pytest.raises(ValidationError, match="U is not nilpotent"):
        p1_view_from_images(M, alg.el_gen("u0"), alg.el_gen("v"), check=True)
    # one point per chunk: the first, (0, 0), passes the stacked checks
    monkeypatch.setattr(varieties, "_CHUNK_CELLS", 4 * M.dim**2)
    with pytest.raises(ValidationError, match=radical):
        support_set(M11, M, F3)
    grp, mod = _files(tmp_path, M)
    argv = ["support", "-g", grp, "-m", mod, "-F", "3^2"]
    _cli_fails(argv, capsys)  # rejected at load: u0^3 != 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(supvar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "supvar.cli"] + argv, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "case,message", [("counit", "nonzero counit"), ("parity", "must be even and odd")]
)
def test_bad_point_images_rejected(case, message, tmp_path, capsys, monkeypatch):
    """Images that satisfy u^3 + v^2 = 0 in kM_{1;1} but have a nonzero
    counit (u -> -1, v -> 1) or the wrong parity (u -> v, v -> 0)."""
    alg, _ = build_group_algebra(M11)
    u, v = alg.el_zero(), alg.el_zero()
    if case == "counit":
        u[0], v[0] = alg.F.neg[1], 1  # basis 0 is the unit
    else:
        u[alg.generators["v"]] = 1
    M = build_L(F3.element(1), F3.element(1))
    with pytest.raises(ValidationError, match=message):
        p1_view_from_images(M, u, v)
    monkeypatch.setattr(
        varieties,
        "_images",
        lambda spec, alg, pts: {"u0": np.tile(u, (len(pts), 1)), "v": np.tile(v, (len(pts), 1))},
    )
    for fld in (F3, F9):
        with pytest.raises(ValidationError, match=message):
            support_set(M11, M, fld)
    grp, mod = _files(tmp_path, M)
    assert message in _cli_fails(["support", "-g", grp, "-m", mod, "-F", "3^2"], capsys)
    assert message in _cli_fails(["pd", "-g", grp, "-m", mod, "-P", "1,1"], capsys)


def _brute_force_orbits(F, u, v):
    """Each pair (u, v) as its least scaled copy (a u, b v) over all q - 1
    choices of b != 0, with a the p-th root of b^2."""
    least = [None] * len(u)
    for b in range(1, F.q):
        a = int(np.nonzero(F.frob == F.mul[b, b])[0][0])
        scaled = np.hstack([F.mul[a, u], F.mul[b, v]])
        for i, row in enumerate(map(tuple, scaled.tolist())):
            if least[i] is None or row < least[i]:
                least[i] = row
    return least


@pytest.mark.parametrize(
    "spec,field,npts,norbits",
    [
        (M11, F9, 81, 12),
        (M11, F27, 729, 30),
        (M21, F9, 729, 102),
        (M12, F9, 81, 12),
        (M11P5, F25, 625, 28),
        (M21ETA, F9, 81, 12),
        (GAR2, F9, 81, 21),  # v = 0: a runs over the 4 nonzero squares
    ],
    ids=["M11/F9", "M11/F27", "M21/F9", "M12/F9", "p5/F25", "eta/F9", "Gar2/F9"],
)
def test_orbit_keys_partition_like_brute_force(spec, field, npts, norbits):
    alg, _ = build_group_algebra(spec, field)
    pts = enumerate_points(spec, field).points
    u, v = varieties._p1_pair(spec, varieties._images(spec, alg, pts))
    keys = [row.tobytes() for row in varieties._orbit_keys(alg.F, u, v)]
    least = _brute_force_orbits(alg.F, u, v)
    assert len(pts) == npts
    # the same partition: the pairing (key, least) is one-to-one
    assert len(set(keys)) == len(set(least)) == len(set(zip(keys, least))) == norbits
