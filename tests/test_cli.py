"""Golden-file coverage of every CLI path."""

import json

import pytest

from supvar.cli import main

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
