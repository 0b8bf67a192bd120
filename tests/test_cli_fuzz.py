"""The CLI contract on fuzzed inputs: `supvar.cli.main` returns 0, 2 or 3,
no exception escapes it, and a non-zero exit leaves stdout empty.

Inputs are kept small (P_r sources with r <= 2 at p = 3, targets of small
dimension, fields of at most 49 elements) so that every example runs in
milliseconds; what is fuzzed is their shape, not their size.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from supvar.cli import main  # noqa: E402
from supvar.gfield import make_field  # noqa: E402
from supvar.smod import build_L, module_to_json  # noqa: E402

# what json.load can return, non-finite floats included (1e400 reads as inf)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 13)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
    | st.sampled_from(["3", "1", "0", "-1", "1.5", "1e400", "p1", "u0", "v"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
mistakes = st.sampled_from([0, 1, 2, 4, 13, -3, 1.5, 2.0, 1e400, True, "3", "x", None, [], {}])

# small well-formed specs, one key of which may be deleted or replaced
SPECS = [
    {"family": "Gar", "p": 3, "r": 1},
    {"family": "Gar", "p": 3, "r": 2},
    {"family": "GaMinus", "p": 3},
    {"family": "Mrs", "p": 3, "r": 1, "s": 1},
    {"family": "Mrs", "p": 3, "r": 1, "s": 1, "eta": "2"},
    {"family": "Mrs", "p": 5, "r": 1, "s": 1},
    {"family": "Mrf", "p": 3, "r": 1, "f": [0, 1]},
    {"family": "TruncEven", "p": 3, "t": 1},
    {"family": "Tensor", "p": 3, "factors": [{"family": "GaMinus", "p": 3}, {"family": "Gar", "p": 3, "r": 1}]},
]


@st.composite
def edited(draw, base):
    """base with up to two keys deleted or replaced by a likely mistake or
    an arbitrary JSON value, or an extra key added."""
    d = dict(base)
    keys = sorted(d) + ["extra"]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        if key in d and draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw(mistakes | json_values)
    return d


specs = st.sampled_from(SPECS).flatmap(edited)
spec_args = specs.map(lambda d: json.dumps(d)) | st.sampled_from(["p1", "P1", " p1 ", "p2", "{", "[]", "3", ""])
sources = (
    st.sampled_from(["p1", " P1 ", "p2", "", "{}", "[1]", "3", "null", '"p1"', "{"])
    | edited({"p": 3, "r": 1}).map(json.dumps)
    | edited({"p": 3, "r": 2}).map(json.dumps)
    | st.fixed_dictionaries({"p": mistakes | st.sampled_from([3, 5, 7]), "r": mistakes}).map(json.dumps)
    | json_values.map(json.dumps)
)
fields = st.sampled_from(["3", "3^1", "3^2", "5", "7^2", "9", "2", "3^0", "3^9", "x", "", "3^", "^2", " 3 "])


def _call(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3), (argv, code)
    assert code == 0 or out == "", (argv, code, out)
    return code


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(source=sources, target=spec_args)
def test_homscheme_fuzz(capsys, source, target):
    _call(capsys, ["homscheme", "--source", source, "--target", target])


@FUZZ
@given(group=spec_args, field=fields, solve=st.booleans())
def test_points_fuzz(capsys, group, field, solve):
    _call(capsys, ["points", "-g", group, "-F", field] + (["--method", "solve"] if solve else []))


QUOT = {
    "p": 3,
    "r": 1,
    "field": "3",
    "target": {"family": "Mrs", "p": 3, "r": 1, "s": 1, "eta": "2"},
    "images": {"u0": ["0", "1", "0", "0", "0", "0"], "v": ["0", "0", "0", "1", "0", "0"]},
}


@st.composite
def classify_files(draw):
    d = draw(edited(QUOT))
    if isinstance(d.get("images"), dict) and draw(st.booleans()):
        d["images"] = draw(edited(d["images"]))
    if isinstance(d.get("target"), dict) and draw(st.booleans()):
        d["target"] = draw(edited(d["target"]))
    return json.dumps(d)


@FUZZ
@given(text=classify_files() | json_values.map(json.dumps) | st.text(max_size=8))
def test_classify_fuzz(capsys, tmp_path_factory, text):
    path = tmp_path_factory.mktemp("classify") / "quot.json"
    path.write_text(text)
    _call(capsys, ["classify", "-f", str(path)])


F3 = make_field(3, 1)
M11 = json.dumps(SPECS[3])
# well-formed module files: L_{0,1} and the trivial module over M_{1;1}, and
# the odd trivial P_1 module, as `support`, `pd` and `ext` read them
MODULES = [
    module_to_json(build_L(F3.element(0), F3.element(1))),
    {"group": SPECS[3], "field": "3", "dim": 1, "parity": [0], "action": {"s": [[0]], "t": [[0]]}},
    {
        "group": {"family": "P1"}, "field": "3", "dim": 1, "parity": [1],
        "action": {"u": [[0]], "v": [[0]]},
    },
]


@st.composite
def module_files(draw):
    """A module file with up to two keys, of itself or of its group or its
    action, deleted or replaced, or arbitrary JSON or text."""
    d = draw(edited(draw(st.sampled_from(MODULES))))
    for key in ("group", "action"):
        if isinstance(d.get(key), dict) and draw(st.booleans()):
            d[key] = draw(edited(d[key]))
    return json.dumps(d)


module_texts = module_files() | json_values.map(json.dumps) | st.text(max_size=8)


def _module_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("module") / "module.json"
    path.write_text(text)
    return str(path)


@FUZZ
@given(text=module_texts, field=st.sampled_from(["3", "3^2"]))
def test_support_module_fuzz(capsys, tmp_path_factory, text, field):
    _call(capsys, ["support", "-g", M11, "-m", _module_path(tmp_path_factory, text), "-F", field])


@FUZZ
@given(text=module_texts, point=st.sampled_from(["0,0", "0,1", "2,1", "1", "x,0", ""]))
def test_pd_module_fuzz(capsys, tmp_path_factory, text, point):
    _call(capsys, ["pd", "-g", M11, "-m", _module_path(tmp_path_factory, text), "-P", point])


@FUZZ
@given(text=module_texts, text2=st.none() | module_texts)
def test_ext_module_fuzz(capsys, tmp_path_factory, text, text2):
    argv = ["ext", "-g", "p1", "-m", _module_path(tmp_path_factory, text), "-d", "3"]
    if text2 is not None:
        argv += ["-m2", _module_path(tmp_path_factory, text2)]
    _call(capsys, argv)


def test_the_fuzzed_inputs_reach_every_exit(capsys):
    # the generators above are not all refusals: each exit code occurs
    codes = {
        _call(capsys, ["homscheme", "--source", "p1", "--target", json.dumps(SPECS[3])]),
        _call(capsys, ["homscheme", "--source", '{"p": 3, "r": 13}', "--target", json.dumps(SPECS[3])]),
        _call(capsys, ["homscheme", "--source", '{"p": 3, "r": 1.5}', "--target", json.dumps(SPECS[3])]),
    }
    assert codes == {0, 2, 3}


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: None,
        lambda d: list(d),
        lambda d: {**d, "field": 3},
        lambda d: {**d, "images": []},
        lambda d: {**d, "images": {**d["images"], "u0": 5}},
        lambda d: {**d, "r": -1},
        lambda d: {**d, "p": 0},
        lambda d: {**d, "p": 5},
        lambda d: {**d, "r": 10**6, "images": {}},
    ],
    ids=["null", "list", "field-int", "images-list", "image-int", "r-negative", "p-zero", "p-other", "r-huge"],
)
def test_classify_file_shapes_exit_2(capsys, tmp_path, edit):
    # all but images-list and p-other ended in a traceback before the
    # file's shape and its p and r were checked.  A huge r with no images
    # named all r + 1 generators (about 65 MB at r = 10^6) before it looked
    # for the first one missing; the bound leaves room for classify's imports
    import tracemalloc

    path = tmp_path / "quot.json"
    path.write_text(json.dumps(edit(QUOT)))
    tracemalloc.start()
    try:
        code = main(["classify", "-f", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert peak < 8 * 2**20, peak
