"""Golden-file coverage of every CLI path."""

import hashlib
import json

import pytest

from supvar.cli import main, parse_spec
from supvar.gfield import make_field
from supvar.superalg.algebra import build_group_algebra

M11 = '{"family":"Mrs","p":3,"r":1,"s":1,"eta":"0"}'

# a map P_1 -> kM_{1;1,2} by its generators' images, as `classify` reads it
QUOT = {
    "p": 3,
    "r": 1,
    "field": "3",
    "target": {"family": "Mrs", "p": 3, "r": 1, "s": 1, "eta": "2"},
    "images": {
        "u0": ["0", "1", "0", "0", "0", "0"],
        "v": ["0", "0", "0", "1", "0", "0"],
    },
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def m11_file(tmp_path):
    return write(tmp_path, "m11.json", M11)


@pytest.fixture
def l01_file(tmp_path, capsys):
    path = str(tmp_path / "L01.json")
    code = main(["lmodule", "--mu", "0", "--a", "1", "-F", "3^1", "-o", path])
    capsys.readouterr()
    assert code == 0
    return path


def test_points_golden(capsys, m11_file):
    code, out, _ = run(capsys, ["points", "-g", m11_file, "-F", "3^1"])
    assert code == 0
    assert out.splitlines() == [
        "0,0", "0,1", "0,2", "1,0", "1,1", "1,2", "2,0", "2,1", "2,2",
    ]


def test_points_solve_matches(capsys, m11_file):
    _, a, _ = run(capsys, ["points", "-g", m11_file, "-F", "3^1"])
    _, b, _ = run(capsys, ["points", "-g", m11_file, "-F", "3^1", "--method", "solve"])
    assert a == b


def test_support_golden(capsys, m11_file, l01_file):
    code, out, _ = run(capsys, ["support", "-g", m11_file, "-m", l01_file, "-F", "3^1"])
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "0,2"]


def test_support_trivial_all_points(capsys, m11_file, tmp_path):
    triv = {
        "group": json.loads(M11),
        "field": "3^1",
        "dim": 1,
        "parity": [0],
        "action": {"s": [["0"]], "t": [["0"]]},
    }
    path = write(tmp_path, "k.json", json.dumps(triv))
    code, out, _ = run(capsys, ["support", "-g", m11_file, "-m", path, "-F", "3^1"])
    assert code == 0
    assert len(out.splitlines()) == 9


def test_support_f9_sorted(capsys, m11_file, l01_file):
    code, out, _ = run(capsys, ["support", "-g", m11_file, "-m", l01_file, "-F", "3^2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9 and lines == sorted(lines)


def test_ext_golden(capsys, tmp_path):
    k = {
        "group": {"family": "P1", "p": 3},
        "field": "3^1",
        "dim": 1,
        "parity": [0],
        "action": {"u": [["0"]], "v": [["0"]]},
    }
    path = write(tmp_path, "k.json", json.dumps(k))
    code, out, _ = run(capsys, ["ext", "-g", "p1", "-m", path, "-d", "6"])
    assert code == 0
    assert out.splitlines() == ["0: 1|0"] + [f"{i}: 1|1" for i in range(1, 7)]


def test_pd_golden(capsys, m11_file, l01_file):
    code, out, _ = run(capsys, ["pd", "-g", m11_file, "-m", l01_file, "-P", "0,1"])
    assert (code, out.strip()) == (0, "Infinite")
    code, out, _ = run(capsys, ["pd", "-g", m11_file, "-m", l01_file, "-P", "1,1"])
    assert (code, out.strip()) == (0, "FiniteAtMostOne")


def test_resolve_golden(capsys, m11_file):
    code, out, _ = run(capsys, ["resolve", "-g", m11_file, "-n", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0: 1|0" and lines[1] == "1: 1|1"
    totals = [sum(int(x) for x in ln.split(": ")[1].split("|")) for ln in lines]
    assert totals == list(range(1, 10))



def test_resolution_length_independent_of_cache(capsys, monkeypatch, m11_file):
    # a resolution to P_8 is cached first; asking for P_3 then gives 4 steps
    from supvar.homalg import resolution_of_trivial

    alg = build_group_algebra(parse_spec(M11), make_field(3, 1))[0]
    monkeypatch.setattr(alg, "_trivial_resolution", None, raising=False)
    long = resolution_of_trivial(alg, 8)
    short = resolution_of_trivial(alg, 3)
    assert len(long.gen_parities) == 9
    assert [len(x) for x in (short.gen_parities, short.boundaries, short.omega)] == [4, 4, 4]
    assert short.ranks() == long.ranks()[:4]
    code, out, _ = run(capsys, ["resolve", "-g", m11_file, "-n", "3"])
    assert code == 0
    assert out.splitlines() == [f"{n}: {e}|{o}" for n, (e, o) in enumerate(long.ranks()[:4])]

# sha256 of the whole stdout, recorded while each P_n was a dense module;
# the runs reach P_60 of dimension 366 over M_{1;1} and P_8 of dimension
# 810 over M_{2;1}
LARGE_RESOLVE_GOLDENS = [
    ("M11.n60", M11, 60, "451fc994dd24ac723b1ad7e840bdb849367d7cbcbb89c2d8b30a3076d3f5a33f"),
    (
        "M21.n8",
        '{"family":"Mrs","p":3,"r":2,"s":1}',
        8,
        "6a3d955a8e981234e62c9bb73bfe477b062522225be53dd7197d324c9df791ad",
    ),
]


@pytest.mark.parametrize(
    "name,spec,steps,digest", LARGE_RESOLVE_GOLDENS, ids=[g[0] for g in LARGE_RESOLVE_GOLDENS]
)
def test_resolve_large_golden(capsys, tmp_path, monkeypatch, name, spec, steps, digest):
    # compute afresh, and leave no longer resolution in the algebra's cache
    alg = build_group_algebra(parse_spec(spec), make_field(3, 1))[0]
    monkeypatch.setattr(alg, "_trivial_resolution", None, raising=False)
    code, out, err = run(capsys, ["resolve", "-g", write(tmp_path, "g.json", spec), "-n", str(steps)])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == steps + 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_golden(capsys, tmp_path):
    path = write(tmp_path, "quot.json", json.dumps(QUOT))
    code, out, _ = run(capsys, ["classify", "-f", path])
    assert (code, out.strip()) == (0, "M_{1;1,2}")


def test_psi_golden(capsys, m11_file):
    code, out, _ = run(capsys, ["psi", "-g", m11_file, "-P", "1,2", "-F", "3^1"])
    assert (code, out.strip()) == (0, "1,2")


def test_homscheme_deterministic(capsys, m11_file):
    code, out1, _ = run(capsys, ["homscheme", "--source", "p1", "--target", m11_file])
    assert code == 0 and out1
    _, out2, _ = run(capsys, ["homscheme", "--source", "p1", "--target", m11_file])
    assert out1 == out2
    assert "x_1_" in out1


def test_lmodule_roundtrip(capsys, tmp_path, m11_file, l01_file):
    with open(l01_file) as fh:
        data = json.load(fh)
    assert data["dim"] == 6
    assert set(data["action"]) == {"s", "t"}
    # emitted file parses back and produces the same support
    code, out, _ = run(capsys, ["support", "-g", m11_file, "-m", l01_file, "-F", "3^1"])
    assert code == 0


def test_validation_errors_exit_2(capsys, m11_file, tmp_path):
    bad = {
        "group": json.loads(M11),
        "field": "3^1",
        "dim": 2,
        "parity": [0, 7],
        "action": {"s": [["0", "0"], ["0", "0"]], "t": [["0", "0"], ["0", "0"]]},
    }
    path = write(tmp_path, "bad.json", json.dumps(bad))
    code, out, err = run(capsys, ["support", "-g", m11_file, "-m", path, "-F", "3^1"])
    assert code == 2
    assert "parity" in err
    code, _, err = run(capsys, ["points", "-g", "{not json", "-F", "3^1"])
    assert code == 2


def test_bound_exceeded_exit_3(capsys, tmp_path):
    big = write(tmp_path, "m21.json", '{"family":"Mrs","p":3,"r":2,"s":1}')
    code, _, err = run(capsys, ["points", "-g", big, "-F", "3^1", "--method", "solve"])
    assert code == 3
    # a dimension of 3^10000 is refused by the spec's label, not printed
    huge = '{"family":"Mrs","p":3,"r":1,"s":10000}'
    code, out, err = run(capsys, ["resolve", "-g", huge, "-n", "1"])
    assert (code, out) == (3, "") and err.count("\n") == 1 and "M_{1;10000}" in err


def test_point_enumeration_bounded(capsys, monkeypatch):
    from supvar.gfield import FieldDescriptor

    # 2401^4 candidate tuples: refused before any field element is listed
    def no_elements(self):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(FieldDescriptor, "elements", no_elements)
    m22p7 = '{"family":"Mrs","p":7,"r":2,"s":2}'
    for method in ("param", "solve"):
        code, out, err = run(capsys, ["points", "-g", m22p7, "-F", "7^4", "--method", method])
        assert (code, out) == (3, "") and err.count("\n") == 1, method
    # the P_1 shorthand has no points: exit 2, not a traceback
    for method in ("param", "solve"):
        code, out, err = run(capsys, ["points", "-g", "p1", "-F", "3", "--method", method])
        assert (code, out) == (2, "") and err.count("\n") == 1, method


@pytest.mark.parametrize(
    "source,p,code,words",
    [
        ('{"p":3,"r":0}', 3, 2, "r >= 1"),
        ('{"p":3,"r":-1}', 3, 2, "r >= 1"),
        ('{"p":5,"r":1}', 3, 2, "differs"),
        ('{"p":3,"r":40}', 3, 3, "cap 12 at p = 3"),
        ('{"p":3,"r":13}', 3, 3, "cap 12 at p = 3"),
        ('{"p":5,"r":9}', 5, 3, "cap 8 at p = 5"),
        ('{"p":5,"r":12}', 5, 3, "cap 8 at p = 5"),
        ('{"p":7,"r":8}', 7, 3, "cap 7 at p = 7"),
        ('{"p":7,"r":12}', 7, 3, "cap 7 at p = 7"),
    ],
)
def test_homscheme_source_rules(capsys, monkeypatch, source, p, code, words):
    import supvar.superalg.algebra

    # every refusal comes before the target is built
    def no_build(*args):
        raise AssertionError("target built")

    monkeypatch.setattr(supvar.superalg.algebra, "build_group_algebra", no_build)
    target = json.dumps({"family": "Mrs", "p": p, "r": 1, "s": 1})
    got, out, err = run(capsys, ["homscheme", "--source", source, "--target", target])
    assert (got, out) == (code, "") and err.count("\n") == 1 and words in err


def test_homscheme_error_mid_stream_prints_nothing(capsys, monkeypatch, m11_file):
    # an exponent overflow forced after a chunk of lines has been formatted:
    # the stream is rendered whole before anything is written, so exit 2
    # leaves stdout empty
    from supvar.superalg import homscheme

    monkeypatch.setattr(homscheme, "RENDER_CHUNK", 8)
    chunks = []
    real_chunk, real_addmul = homscheme.PolyRing._render_chunk, homscheme.PolyRing.addmul

    def render_chunk(ring, *args):
        chunks.append(1)
        real_chunk(ring, *args)

    def addmul(ring, targets, A, B):
        if chunks:  # x^127 * x^127 for the first even variable
            top = {homscheme.MAX_EXPONENT << ring.shift[ring.parity.index(0)]: 1}
            A = B = top
        real_addmul(ring, targets, A, B)

    monkeypatch.setattr(homscheme.PolyRing, "_render_chunk", render_chunk)
    monkeypatch.setattr(homscheme.PolyRing, "addmul", addmul)
    code, out, err = run(capsys, ["homscheme", "--source", '{"p": 3, "r": 2}', "--target", m11_file])
    assert chunks and (code, out) == (2, "")
    assert err == f"error: a monomial exponent exceeds {homscheme.MAX_EXPONENT}\n"


def test_solver_cap_checked_before_tables(capsys, monkeypatch):
    from supvar import linalg

    # q^(#even vars) = 2401^6: refused before the GF(2401) tables or the ideal
    real = linalg.GFTables.__init__

    def tables(self, field):
        assert field.q != 2401, "GF(2401) tables built"
        real(self, field)

    monkeypatch.setattr(make_field(7, 4), "_tables", None)
    monkeypatch.setattr(linalg.GFTables, "__init__", tables)
    gar = '{"family":"Gar","p":7,"r":1}'
    code, out, err = run(capsys, ["points", "-g", gar, "-F", "7^4", "--method", "solve"])
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err == f"error: {2401**6} candidate assignments exceed the cap 6561\n"


def test_absurd_spec_parameters_refused_at_once(capsys):
    import time

    for spec in (
        '{"family":"Mrs","p":3,"r":1,"s":1000000000}',
        '{"family":"Gar","p":3,"r":1000000000}',
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["resolve", "-g", spec, "-n", "1"])
        assert time.perf_counter() - start < 0.5, spec
        assert (code, out) == (3, "") and err.count("\n") == 1 and "cap 200" in err


def test_degree_arguments_bounded(capsys, m11_file, l01_file, tmp_path):
    from supvar.homalg import EXT_DEGREE_CAP, RESOLVE_STEPS_CAP

    # the caps sit above the benchmark's and the documented depths
    assert RESOLVE_STEPS_CAP >= 60 and EXT_DEGREE_CAP >= 1000
    code, out, err = run(capsys, ["resolve", "-g", m11_file, "-n", "-1"])
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    code, out, _ = run(capsys, ["ext", "-g", "p1", "-m", l01_file, "-d", "1"])
    assert (code, out) == (2, "")
    # over the cap: exit 3 before the group or module file is even read
    missing = str(tmp_path / "missing.json")
    cases = [
        ["resolve", "-g", missing, "-n", str(RESOLVE_STEPS_CAP + 1)],
        ["ext", "-g", "p1", "-m", missing, "-d", str(EXT_DEGREE_CAP + 1)],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "") and len(err.splitlines()) == 1, argv
    code, out, _ = run(capsys, ["resolve", "-g", m11_file, "-n", "0"])
    assert (code, out) == (0, "0: 1|0\n")


def test_ext_two_modules(capsys, tmp_path):
    k = {
        "group": {"family": "P1", "p": 3},
        "field": "3^1",
        "dim": 1,
        "parity": [0],
        "action": {"u": [["0"]], "v": [["0"]]},
    }
    pik = dict(k, parity=[1])
    pk = write(tmp_path, "k.json", json.dumps(k))
    ppik = write(tmp_path, "pik.json", json.dumps(pik))
    code, out, _ = run(capsys, ["ext", "-g", "p1", "-m", pk, "-m2", ppik, "-d", "3"])
    assert code == 0
    assert out.splitlines() == ["0: 0|1", "1: 1|1", "2: 1|1", "3: 1|1"]


def test_bad_inputs_exit_2(capsys, m11_file, tmp_path):
    code, _, err = run(capsys, ["points", "-g", m11_file, "-F", "6^1"])
    assert code == 2
    code, _, err = run(capsys, ["psi", "-g", m11_file, "-P", "x,y", "-F", "3^1"])
    assert code == 2
    code, _, err = run(capsys, ["points", "-g", '{"family":"Mrs","p":3,"r":"x","s":1}', "-F", "3^1"])
    assert code == 2
    code, out, err = run(capsys, ["resolve", "-g", "p1", "-n", "1"])
    assert (code, out, err) == (2, "", "error: resolve needs a finite group algebra spec\n")
    # files that cannot be read or written: one error line, no traceback
    missing = str(tmp_path / "missing" / "x.json")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for argv in (
        ["lmodule", "--mu", "0", "--a", "1", "-F", "3", "-o", missing],
        ["resolve", "-g", str(tmp_path), "-n", "2"],
        ["resolve", "-g", str(binary), "-n", "2"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot ") and err.count("\n") == 1, argv
    # integer fields take JSON integers: no overflow traceback, no truncation
    for argv in _non_integer_fields(tmp_path):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.endswith("must be an integer\n") and err.count("\n") == 1, argv
    for argv, message in _mismatched_inputs(tmp_path):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n", argv


def _mismatched_inputs(tmp_path):
    """Command lines whose spec's p is not the field's characteristic, or
    whose module file is not an object, has a number for its field or an
    action that is not an object of matrices, with the one error line each
    prints."""
    p5 = '{"family":"Mrs","p":5,"r":1,"s":1}'
    module = {"group": json.loads(M11), "field": "3^1", "dim": 1, "parity": [0]}
    listed = write(tmp_path, "listed.json", json.dumps(dict(module, action=[])))
    number = write(tmp_path, "number.json", json.dumps(dict(module, action={"s": 5, "t": [["0"]]})))
    m11 = write(tmp_path, "m11_target.json", M11)
    # these two ended in a traceback (exit 1) before the file's shape was checked
    null = write(tmp_path, "null.json", "null")
    zero = {"s": [["0"]], "t": [["0"]]}
    field_int = write(tmp_path, "field_int.json", json.dumps(dict(module, field=3, action=zero)))
    not_object = "module file must be a JSON object with 'field' as text"
    return [
        (argv, not_object)
        for bad in (null, field_int)
        for argv in (
            ["support", "-g", m11, "-m", bad, "-F", "3"],
            ["pd", "-g", m11, "-m", bad, "-P", "0,0"],
            ["ext", "-g", "p1", "-m", bad, "-d", "3"],
        )
    ] + [
        (["points", "-g", p5, "-F", "3"], "field characteristic 3 != spec p 5"),
        (["psi", "-g", p5, "-P", "1,2", "-F", "3"], "field characteristic 3 != spec p 5"),
        (
            ["support", "-g", m11, "-m", listed, "-F", "3"],
            "module file field 'action' must map generators to matrices",
        ),
        (["support", "-g", m11, "-m", number, "-F", "3"], "action matrix has wrong shape"),
    ]


def _non_integer_fields(tmp_path):
    """Command lines whose spec, presentation or module file holds a
    non-finite, non-integer or boolean number in an integer field."""
    huge = '{"family":"Mrs","p":3,"r":1e400,"s":1}'
    half = '{"family":"Mrs","p":3,"r":1.5,"s":1}'
    module = {
        "group": json.loads(M11),
        "field": "3^1",
        "dim": 1e400,
        "parity": [0],
        "action": {"s": [["0"]], "t": [["0"]]},
    }
    dim_file = write(tmp_path, "dim.json", json.dumps(module).replace("Infinity", "1e400"))
    module["dim"], module["parity"] = 1, [0.0]
    parity_file = write(tmp_path, "parity.json", json.dumps(module))
    m11 = write(tmp_path, "m11_target.json", M11)
    return [
        ["points", "-g", huge, "-F", "3"],
        ["points", "-g", half, "-F", "3"],
        ["resolve", "-g", huge, "-n", "2"],
        ["resolve", "-g", '{"family":"Gar","p":3,"r":true}', "-n", "2"],
        ["points", "-g", '{"family":"Mrf","p":3,"r":1,"f":[1e400]}', "-F", "3"],
        ["support", "-g", m11, "-m", dim_file, "-F", "3"],
        ["support", "-g", m11, "-m", parity_file, "-F", "3"],
        ["homscheme", "--source", '{"p": 3, "r": 1e400}', "--target", m11],
        ["homscheme", "--source", '{"p": 3, "r": 1.5}', "--target", m11],
    ]


def test_points_checked_at_the_boundary(capsys, m11_file, l01_file, tmp_path):
    # wrong coordinate counts: exit 2 with a one-line message, no traceback
    for argv in (
        ["pd", "-g", m11_file, "-m", l01_file, "-P", "1,2,3"],
        ["pd", "-g", m11_file, "-m", l01_file, "-P", "1"],
        ["psi", "-g", m11_file, "-P", "1", "-F", "3"],
        ["psi", "-g", "p1", "-P", "1", "-F", "3"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # M_{1;2} points (mu, a_0, b) must satisfy mu^2 = a_0^3
    m12 = write(tmp_path, "m12.json", '{"family":"Mrs","p":3,"r":1,"s":2}')
    code, _, err = run(capsys, ["psi", "-g", m12, "-P", "1,0,0", "-F", "3"])
    assert code == 2 and "mu^2" in err
    code, out, _ = run(capsys, ["psi", "-g", m12, "-P", "1,1,2", "-F", "3"])
    assert code == 0 and out.strip()


@pytest.mark.parametrize(
    "spec",
    [
        '{"family":"Mrs","p":3,"r":-1,"s":1}',
        '{"family":"Mrs","p":3,"r":0,"s":1}',
        '{"family":"Mrs","p":3,"r":1,"s":0}',
        '{"family":"Mrf","p":3,"r":0,"f":["1"]}',
        '{"family":"Gar","p":3,"r":-1}',
        '{"family":"TruncEven","p":3,"t":0}',
    ],
)
def test_spec_rules_at_parse_time(capsys, spec):
    code, out, err = run(capsys, ["points", "-g", spec, "-F", "3^1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "need" in err


def _subprocess_env(**extra):
    """The environment of a fresh `supvar` process: the absolute src path
    (the process runs in tmp_path) and no caller BLAS thread setting."""
    import os

    import supvar

    src = os.path.dirname(os.path.dirname(os.path.abspath(supvar.__file__)))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _every_subcommand(tmp_path, m11_file, l01_file):
    """(argv, exit code) covering all nine subcommands, error exits included."""
    quot_file = write(tmp_path, "quot.json", json.dumps(QUOT))
    return [
        (["points", "-g", m11_file, "-F", "3^1", "--method", "solve"], 0),
        (["points", "-g", m11_file, "-F", "6^1"], 2),
        (["support", "-g", m11_file, "-m", l01_file, "-F", "3^2"], 0),
        (["ext", "-g", "p1", "-m", l01_file, "-d", "4"], 0),
        (["ext", "-g", "p1", "-m", l01_file, "-d", "20000"], 3),
        (["pd", "-g", m11_file, "-m", l01_file, "-P", "0,1"], 0),
        (["pd", "-g", m11_file, "-m", l01_file], 2),
        (["resolve", "-g", m11_file, "-n", "6"], 0),
        (["resolve", "-g", '{"family":"Mrs","p":3,"r":1,"s":10000}', "-n", "1"], 3),
        (["classify", "-f", quot_file], 0),
        (["psi", "-g", m11_file, "-P", "1,2", "-F", "3^1"], 0),
        (["homscheme", "--source", "p1", "--target", m11_file], 0),
        (["homscheme", "--source", '{"p":3,"r":13}', "--target", m11_file], 3),
        (["lmodule", "--mu", "1", "--a", "2", "-F", "3^2"], 0),
        (["lmodule", "--mu", "0", "--a", "1", "-F", "3", "-o", "missing/x.json"], 2),
        (["resolve", "-g", ".", "-n", "2"], 2),
    ] + [(argv, 2) for argv in _non_integer_fields(tmp_path)] + [
        (argv, 2) for argv, _ in _mismatched_inputs(tmp_path)
    ]


def test_outputs_identical_across_processes(tmp_path, m11_file, l01_file):
    # byte-identical output under different hash seeds (no hidden set order);
    # each subcommand runs its own deferred imports in a new interpreter
    import subprocess
    import sys

    cases = _every_subcommand(tmp_path, m11_file, l01_file)
    assert {argv[0] for argv, _ in cases} == {
        "points", "support", "ext", "pd", "resolve", "classify", "psi", "homscheme", "lmodule",
    }
    outs = []
    for seed in ("0", "1"):
        env = _subprocess_env(PYTHONHASHSEED=seed)
        got = []
        for argv, code in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "supvar.cli"] + argv,
                capture_output=True,
                text=True,
                env=env,
                cwd=str(tmp_path),
            )
            assert proc.returncode == code, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr, argv
            assert (proc.stdout == "") == (code != 0), argv
            got.append((proc.stdout, proc.stderr))
        outs.append(got)
    assert outs[0] == outs[1]


# supvar modules that each subcommand must leave unloaded; no subcommand
# loads the test-only dual oracle or numpy.ma (~20 ms to import)
_UNUSED_MODULES = {
    "points": ("smod", "homalg", "superalg.morphisms"),
    "support": ("superalg.homscheme", "superalg.morphisms"),
    "ext": ("varieties", "superalg.homscheme", "superalg.morphisms"),
    "pd": ("superalg.homscheme", "superalg.morphisms"),
    "resolve": ("varieties", "superalg.homscheme", "superalg.morphisms"),
    "classify": ("smod", "homalg", "varieties", "superalg.homscheme"),
    "psi": ("smod", "homalg", "superalg.homscheme", "superalg.morphisms"),
    "homscheme": ("smod", "homalg", "varieties", "superalg.morphisms"),
    "lmodule": ("homalg", "varieties", "superalg.homscheme", "superalg.morphisms"),
}


def test_support_and_resolve_load_no_oracle_or_masked_arrays(tmp_path, m11_file, l01_file):
    # every subcommand imports only the modules it calls
    import ast
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from supvar.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('supvar.') or m == 'numpy.ma'))\n"
    )
    env = _subprocess_env()
    for argv, code in _every_subcommand(tmp_path, m11_file, l01_file):
        if code != 0:
            continue
        proc = subprocess.run(
            [sys.executable, "-c", script] + argv,
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
        unused = ["superalg.dual_oracle", *_UNUSED_MODULES[argv[0]]]
        assert "numpy.ma" not in loaded, argv
        assert not loaded & {f"supvar.{m}" for m in unused}, (argv, sorted(loaded))


@pytest.mark.parametrize(
    "argv,lines",
    [
        # 1.7 MB and 0.35 MB of output, far more than a pipe holds
        (["homscheme", "--source", '{"p":3,"r":3}', "--target", '{"family":"Gar","p":3,"r":3}'], 1),
        (["points", "-g", '{"family":"Mrs","p":3,"r":2,"s":1}', "-F", "3^3"], 1),
        # a few lines, closed before they are written: the last flush fails
        (["resolve", "-g", M11, "-n", "2"], 0),
    ],
    ids=["homscheme", "points", "resolve"],
)
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_2(argv, lines, unbuffered):
    # a reader that stops early: one error line, no traceback
    import subprocess
    import sys

    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "supvar.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: standard output closed\n"
    assert "Traceback" not in err


def test_import_cli_loads_no_numpy():
    import subprocess
    import sys

    code = (
        "import sys, supvar.cli\n"
        "print(sorted(m for m in sys.modules if 'supvar' in m or 'numpy' in m))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['supvar', 'supvar.cli', 'supvar.errors']"


@pytest.mark.parametrize(
    "caller,expect",
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
    ],
)
def test_main_defaults_to_one_blas_thread(caller, expect):
    # main sets one OpenBLAS thread before numpy loads, unless the caller chose
    import subprocess
    import sys

    script = (
        "import os, sys\n"
        "from supvar.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "assert main(['lmodule', '--mu', '0', '--a', '1', '-F', '3']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print({k: os.environ.get(k) for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_subprocess_env(**caller),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(expect)
