"""Property test of the premise of the orbit-wise support decision: the
dilations u -> a u, v -> b v with a^p = b^2 keep the projective dimension
of a pulled-back module."""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from supvar.gfield import make_field  # noqa: E402
from supvar.homalg import pd_infinite  # noqa: E402
from supvar.smod import P1ModuleView, extend_scalars, random_module  # noqa: E402
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra  # noqa: E402
from supvar.varieties import enumerate_points, point_pullback  # noqa: E402

F3, F5 = make_field(3, 1), make_field(5, 1)
CASES = [
    (GroupAlgebraSpec("Mrs", 3, r=1, s=1), F3, make_field(3, 2)),
    (GroupAlgebraSpec("Mrs", 3, r=2, s=1), F3, make_field(3, 2)),
    (GroupAlgebraSpec("Mrs", 3, r=1, s=2), F3, make_field(3, 2)),
    (GroupAlgebraSpec("Mrs", 3, r=1, s=1), F3, make_field(3, 3)),
    (GroupAlgebraSpec("Mrs", 5, r=1, s=1), F5, make_field(5, 2)),
]


@functools.lru_cache(maxsize=None)
def _points(spec, field):
    return enumerate_points(spec, field).points


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    seed=st.integers(0, 10**6),
    point=st.integers(0, 10**6),
    b=st.integers(0, 10**6),
)
def test_pd_infinite_invariant_under_dilations(case, seed, point, b):
    spec, prime, field = case
    M = extend_scalars(random_module(seed, build_group_algebra(spec, prime)[0], 6), field)
    pts = _points(spec, field)
    view = point_pullback(spec, pts[point % len(pts)], M)
    F = M.F
    b = 1 + b % (F.q - 1)
    a = int(np.nonzero(F.frob == F.mul[b, b])[0][0])  # a^p = b^2
    scaled = P1ModuleView(field, view.dim, view.parity, F.mul[a, view.U], F.mul[b, view.V])
    scaled.validate()
    assert pd_infinite(scaled, check=True) == pd_infinite(view, check=True)
