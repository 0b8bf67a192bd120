"""Golden-file coverage of every CLI path."""

import hashlib
import json

import pytest

from supvar.cli import main, parse_spec
from supvar.gfield import make_field
from supvar.superalg.algebra import build_group_algebra

M11 = '{"family":"Mrs","p":3,"r":1,"s":1,"eta":"0"}'


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
    quot = {
        "p": 3,
        "r": 1,
        "field": "3",
        "target": {"family": "Mrs", "p": 3, "r": 1, "s": 1, "eta": "2"},
        "images": {
            "u0": ["0", "1", "0", "0", "0", "0"],
            "v": ["0", "0", "0", "1", "0", "0"],
        },
    }
    path = write(tmp_path, "quot.json", json.dumps(quot))
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
    import supvar.cli

    # every refusal comes before the target is built
    def no_build(*args):
        raise AssertionError("target built")

    monkeypatch.setattr(supvar.cli, "build_group_algebra", no_build)
    target = json.dumps({"family": "Mrs", "p": p, "r": 1, "s": 1})
    got, out, err = run(capsys, ["homscheme", "--source", source, "--target", target])
    assert (got, out) == (code, "") and err.count("\n") == 1 and words in err


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


def test_bad_inputs_exit_2(capsys, m11_file):
    code, _, err = run(capsys, ["points", "-g", m11_file, "-F", "6^1"])
    assert code == 2
    code, _, err = run(capsys, ["psi", "-g", m11_file, "-P", "x,y", "-F", "3^1"])
    assert code == 2
    code, _, err = run(capsys, ["points", "-g", '{"family":"Mrs","p":3,"r":"x","s":1}', "-F", "3^1"])
    assert code == 2


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


def test_outputs_identical_across_processes(tmp_path, m11_file, l01_file):
    # byte-identical output under different hash seeds (no hidden set order)
    import os
    import subprocess
    import sys

    import supvar

    # the subprocess runs in tmp_path, so it needs the absolute src path
    src = os.path.dirname(os.path.dirname(os.path.abspath(supvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        cmds = [
            ["support", "-g", m11_file, "-m", l01_file, "-F", "3^2"],
            ["homscheme", "--source", "p1", "--target", m11_file],
            ["points", "-g", m11_file, "-F", "3^1", "--method", "solve"],
        ]
        chunks = []
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "supvar.cli"] + cmd,
                capture_output=True,
                text=True,
                env=env,
                cwd=str(tmp_path),
            )
            assert proc.returncode == 0, proc.stderr
            chunks.append(proc.stdout)
        outs.append("\n".join(chunks))
    assert outs[0] == outs[1]


def test_support_and_resolve_load_no_oracle_or_masked_arrays(tmp_path, m11_file, l01_file):
    # numpy.ma costs ~20 ms to import and the dual oracle is test-only
    import os
    import subprocess
    import sys

    import supvar

    src = os.path.dirname(os.path.dirname(os.path.abspath(supvar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "from supvar.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'supvar.superalg.dual_oracle') if m in sys.modules))\n"
    )
    for argv in (
        ["support", "-g", m11_file, "-m", l01_file, "-F", "3^2"],
        ["resolve", "-g", m11_file, "-n", "6"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script] + argv,
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", (argv, proc.stdout)
