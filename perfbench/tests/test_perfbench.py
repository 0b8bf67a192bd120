"""Tests of the benchmark itself: quick runs, golden checks, the tracer's
self-time arithmetic and its rebinding of imported names.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN = os.path.join(BENCH, "run.py")

sys.path[:0] = [BENCH, SRC]
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    return env


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, RUN, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_reports_end_to_end_metrics(workload):
    lines, res = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--quick")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert any(ln.strip().startswith("fail_ratio") for ln in lines)


def test_quick_traced_run_reports_every_layer_metric():
    _, res = run_bench(
        "--workload", "support-sweep", "--seed", "5", "--seconds", "1", "--quick", "--trace", "1"
    )
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # support of L (x) ... at F_9: 81 points, one pd test and two ranks each
    assert m["varieties.points_tested"] == 81
    assert m["homalg.pd_class.calls"] == 81
    assert m["linalg.rank.calls"] >= 2 * 81
    assert 0 < m["varieties.support_ratio"] <= 1
    assert 0 < m["homalg.pd_class.s"] < m["cli.main.s"]


def test_corrupted_golden_raises_fail_ratio(tmp_path, monkeypatch, capsys):
    with open(run.GOLDENS) as fh:
        goldens = json.load(fh)
    for entry in goldens.values():
        entry["stdout_sha256"] = "0" * 64
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(goldens))
    monkeypatch.setattr(run, "GOLDENS", str(bad))
    assert run.main(["--workload", "hom-scheme", "--seconds", "1", "--quick"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    res = json.loads(lines[-1])
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    ratio = next(ln for ln in lines if ln.strip().startswith("fail_ratio"))
    assert float(ratio.split()[1]) == 1.0


@pytest.fixture(scope="module")
def benches(tmp_path_factory):
    """A Bench per workload under the default seed, inputs written, no job run."""
    with open(run.GOLDENS) as fh:
        goldens = json.load(fh)
    return {
        w: run.Bench(w, run.DEFAULT_SEED, str(tmp_path_factory.mktemp(w)), goldens)
        for w in workloads.WORKLOADS
    }


def test_every_job_has_a_golden_under_the_default_seed(benches):
    for w, bench in benches.items():
        missing = [j.name for j in bench.jobs if bench.keys[j.name] not in bench.goldens]
        assert not missing, f"{w}: {missing}"


def test_missing_golden_fails_only_under_the_default_seed(benches, monkeypatch):
    bench = benches["hom-scheme"]
    job = bench.jobs[0]
    golden = bench.goldens[bench.keys[job.name]]
    r = run.JobResult(job.name, golden["rc"], "", "", 1.0, 0.1, 10.0, False, True)
    assert bench.golden_mismatch(job, r) == "stdout or exit code differs from the golden"
    monkeypatch.setattr(bench, "keys", dict(bench.keys, **{job.name: "inputs changed"}))
    assert bench.golden_mismatch(job, r) == "no golden for these inputs"
    monkeypatch.setattr(bench, "seed", run.DEFAULT_SEED + 1)
    assert bench.golden_mismatch(job, r) is None


def test_probes_run_in_traced_passes_only(benches):
    for bench in benches.values():
        untraced, traced = bench.pass_jobs(False), bench.pass_jobs(True)
        assert untraced and not any(j.probe for j in untraced)
        assert traced == bench.jobs and any(j.probe for j in traced)


def test_overhead_ratio_counts_only_the_jobs_both_passes_ran():
    def result(name, wall):
        return run.JobResult(name, 0, "", "", wall, 0.1, 10.0, False, True)

    untraced = run.PassResult(False, [result("a", 2.0), result("b", 2.0)], [], {}, 4.0)
    traced = run.PassResult(
        True, [result("a", 2.5), result("b", 2.5), result("probe.x", 9.0)], [], {}, 14.0
    )
    samples = run.per_layer([untraced, traced])
    assert samples["trace.overhead_ratio"] == ([0.25], "ratio")


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the benchmark has nothing to run, and says so by its exit code."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "hom-scheme", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # The clock is read at each span's start and end, in call order:
    # top [0, 10] holds mid [1, 4.5] and leaf [5, 8]; mid holds leaf [3, 4].
    t = tracer.Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 8.0, 10.0]))

    def leaf():
        return None

    def mid():
        w_leaf()

    def top():
        w_mid()
        w_leaf()

    w_leaf = t.wrap(leaf, "leaf")
    w_mid = t.wrap(mid, "mid")
    w_top = t.wrap(top, "top")
    w_top()
    a = t.arrays()
    spans = tracer.summarize(t.names, a["name"], a["parent"], a["outer"], a["start"], a["end"])
    assert spans["top"] == {"calls": 1, "incl": 10.0, "self": 10.0 - 3.5 - 3.0}
    assert spans["mid"] == {"calls": 1, "incl": 3.5, "self": 3.5 - 1.0}
    assert spans["leaf"] == {"calls": 2, "incl": 1.0 + 3.0, "self": 1.0 + 3.0}


def test_recursive_span_counts_outermost_time_once():
    t = tracer.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 5.0, 6.0, 9.0]))

    def fact(n):
        return 1 if n == 0 else n * w_fact(n - 1)

    w_fact = t.wrap(fact, "fact")
    assert w_fact(2) == 2
    a = t.arrays()
    spans = tracer.summarize(t.names, a["name"], a["parent"], a["outer"], a["start"], a["end"])
    assert spans["fact"]["calls"] == 3
    assert spans["fact"]["incl"] == 9.0  # outermost span only
    assert spans["fact"]["self"] == 9.0  # the self times add up to the outer span


def test_dump_and_load_round_trip(tmp_path):
    t = tracer.Tracer(clock=_fake_clock([0.0, 2.0]))
    t.wrap(lambda: None, "one")()
    t.counters["c"] = 3
    path = str(tmp_path / "t.npz")
    t.dump(path)
    spans, counters = tracer.load(path)
    assert spans == {"one": {"calls": 1, "incl": 2.0, "self": 2.0}}
    assert counters == {"c": 3.0}


def test_rebinding_covers_every_from_import_alias():
    """After install, no loaded supvar module or class still holds an
    unwrapped target, and the names bound by `from ... import` call the
    wrapper."""
    code = textwrap.dedent(
        """
        import sys, importlib, pkgutil
        import supvar
        for m in pkgutil.walk_packages(supvar.__path__, "supvar."):
            importlib.import_module(m.name)
        import tracer
        t = tracer.Tracer()
        t.install()
        originals = {id(o) for o, _ in t.originals}
        assert len(t.originals) == len(tracer.TARGETS)
        left = []
        for scope in tracer._supvar_scopes():
            for key, value in vars(scope).items():
                if id(value) in originals:
                    left.append(f"{getattr(scope, '__name__', scope)}.{key}")
        assert not left, left
        import supvar.cli as cli, supvar.varieties as var, supvar.homalg as ha
        import supvar.gfield as gf
        assert var.pd_class is ha.pd_class and var.pd_class.__wrapped_by_tracer__
        assert cli.support_set is var.support_set and cli.support_set.__wrapped_by_tracer__
        assert gf.FieldElement.__radd__ is gf.FieldElement.__add__
        assert gf.FieldElement.__rmul__.__wrapped_by_tracer__
        print("ok", len(t.originals))
        """
    )
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join((BENCH, env["PYTHONPATH"]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")


def test_checks_reject_wrong_outputs():
    job = workloads.jobs("resolve-ext")[0]
    steps = int(job.argv[job.argv.index("-n") + 1])
    good = "\n".join(f"{n}: {n + 1}|0" for n in range(steps + 1))
    assert workloads.CHECKS["resolve_ranks"](good, job, {}) is None
    bad = good.replace(f"{steps}: {steps + 1}|0", f"{steps}: {steps}|0")
    assert workloads.CHECKS["resolve_ranks"](bad, job, {})
    assert workloads.CHECKS["zero_in_support"]("1,0\n2,0\n", None, {})
    assert workloads.CHECKS["zero_in_support"]("0:0,0:0\n1:0,0:0\n", None, {}) is None
    (_, needs, check), = [c for c in workloads.CROSS_CHECKS if c[0] == "support.LMxLN.F9"]
    outs = dict(zip(needs, ("0,0\n1,1\n", "0,0\n1,2\n", "0,0\n")))
    assert check(outs) is None
    outs[needs[2]] = "0,0\n1,1\n"
    assert check(outs)


def test_wait_kills_a_job_at_its_timeout():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    t0 = time.monotonic()
    status, rusage, timed_out = run._wait(proc, 0.5)
    assert timed_out and time.monotonic() - t0 < 10
    assert proc.returncode == -9 and rusage.ru_maxrss > 0
