"""Property tests of the group spec parser on arbitrary JSON values."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from supvar.errors import ValidationError  # noqa: E402
from supvar.superalg.algebra import GroupAlgebraSpec  # noqa: E402

FAMILIES = ["Mrs", "Mrf", "Gar", "GaMinus", "TruncEven", "Tensor", "P1", "Nope"]
KEYS = ["p", "r", "s", "t", "eta", "f", "factors"]

# what json.load can return, non-finite floats included (1e400 reads as inf)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.sampled_from(["3", "1", "0", "-1", "1.5", "1e400"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def specs(draw, depth=0):
    """Well-formed specs of every family with one or two keys deleted or
    replaced by an arbitrary JSON value or a likely mistake."""
    d = {"family": draw(st.sampled_from(FAMILIES)), "p": draw(st.sampled_from([3, 5, 7]))}
    for key in ("r", "s", "t", "eta"):
        d[key] = draw(st.integers(0, 3))
    d["f"] = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    d["factors"] = draw(st.lists(specs(depth + 1), max_size=2)) if depth < 2 else []
    mistakes = st.sampled_from([0, 1, 2, 4, -3, 1.5, 2.0, 1e400, True, "x", None, []])
    for key in draw(st.lists(st.sampled_from(["family"] + KEYS), unique=True, max_size=2)):
        if draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw(mistakes | json_values)
    return d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(specs(), json_values))
def test_from_json_returns_a_spec_or_raises_validation_error(d):
    try:
        spec = GroupAlgebraSpec.from_json(d)
    except ValidationError:
        return
    assert isinstance(spec, GroupAlgebraSpec)
    assert GroupAlgebraSpec.from_json(spec.to_json()) == spec
