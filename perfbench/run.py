"""End-to-end benchmark of the `supvar` command line.

    python3 perfbench/run.py --workload support-sweep --seed 0 --seconds 40 --trace 0

One benchmark process runs a workload's fixed list of CLI jobs back to back
(closed loop, one client).  Each job is a fresh interpreter, as a user's
run is, so every cache in the program starts cold.  A pass runs the whole
list once; passes repeat until the next one would end after `--seconds`,
and the metrics are medians over passes.  Every output is checked (exit
code, golden stdout digest where one is recorded for the inputs, and
checks that hold for any seed); a job that fails any check, or times out,
counts as failed.  Under the default seed every job must meet a golden, so
a change that alters the generated inputs cannot switch the golden check
off.

A shared host runs at a speed that drifts by tens of percent over minutes,
which would swamp the differences the benchmark must resolve.  So a fixed
reference program (refjob.py), which no change to supvar can speed up or
slow down, is timed before the first job of a pass and after every job.
Each job's times are scaled by REF_NOMINAL_S over the mean of the two
reference times around it.  The reported times are thus the times at the
host speed where the reference takes REF_NOMINAL_S; the raw times are in
the report lines.

With `--trace 0` the last line reports the end-to-end metrics wall_s,
setup_s and peak_rss_mb.  With `--trace 1` untraced and traced passes
alternate; traced passes also run the workload's probe jobs.  The last
line then reports the per-layer metrics of the traced passes plus the
tracer's overhead on the jobs that both kinds of pass run.  The last line
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable report and an environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
REFJOB = os.path.join(HERE, "refjob.py")
GOLDENS = os.path.join(HERE, "goldens.json")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
JOB_TIMEOUT_S = 60.0  # no single job of any workload comes near this
RUN_DEADLINE_S = 165.0  # a run, set-up included, must end well inside 180 s
REF_NOMINAL_S = 0.15  # refjob.py on the 2-core x86_64 development host
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class JobResult:
    name: str
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float
    rss_mb: float
    timed_out: bool
    main_entered: bool
    trace: tuple | None = None  # (span summary, counters)
    speed: float = 1.0  # REF_NOMINAL_S / reference time around the job


@dataclass
class PassResult:
    traced: bool
    jobs: list
    refs: list  # reference times: before the first job and after each job
    failures: dict  # job name -> reasons
    elapsed_s: float  # the pass as the benchmark process lived it, references included

    @property
    def wall_s(self):
        return sum(j.wall_s * j.speed for j in self.jobs)

    @property
    def setup_s(self):
        return sum(j.setup_s * j.speed for j in self.jobs)

    @property
    def raw_wall_s(self):
        return sum(j.wall_s for j in self.jobs)

    @property
    def raw_setup_s(self):
        return sum(j.setup_s for j in self.jobs)

    @property
    def peak_rss_mb(self):
        return max(j.rss_mb for j in self.jobs)


class Bench:
    """Runs one workload's passes inside a work directory.  `goldens` maps
    golden keys to recorded outputs; None skips the golden check, as when
    the goldens are being recorded."""

    def __init__(self, workload, seed, workdir, goldens, quick=False, deadline=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens
        self.jobs = workloads.jobs(workload, quick=quick)
        self.index = {j.name: i for i, j in enumerate(self.jobs)}
        self.deadline = deadline if deadline is not None else time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
        )
        self.ctx = workloads.make_inputs(workdir, seed)
        self.keys = {j.name: golden_key(j, workdir) for j in self.jobs}

    def hash_seed(self, job):
        """PYTHONHASHSEED of a job: fixed by the seed, different per job."""
        return str((self.seed * 1_000_003 + self.index[job.name] * 7919) % 4_294_967_296)

    def pass_jobs(self, traced):
        """The jobs of one pass: probes only in a traced pass."""
        return [j for j in self.jobs if traced or not j.probe]

    def warm_up(self):
        """Import the program once, untimed, so byte-code compilation and a
        cold file cache do not land in the first pass."""
        env = dict(self.env, PYTHONHASHSEED="0")
        subprocess.run(
            [sys.executable, "-c", "import supvar.cli"],
            cwd=self.workdir,
            env=env,
            check=True,
            timeout=JOB_TIMEOUT_S,
        )

    def run_ref(self):
        """Wall time of one run of the reference program."""
        env = dict(self.env, PYTHONHASHSEED="0")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, REFJOB], cwd=self.workdir, env=env, stdout=subprocess.DEVNULL
        )
        status, _, timed_out = _wait(proc, JOB_TIMEOUT_S)
        t = time.monotonic() - t0
        if timed_out or status != 0:
            raise RuntimeError("the reference program failed")
        return t

    def run_job(self, job, traced):
        stamp = os.path.join(self.workdir, ".stamp")
        trace_file = os.path.join(self.workdir, ".trace.npz") if traced else ""
        for path in (stamp, trace_file):
            if path and os.path.exists(path):
                os.remove(path)
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        cmd = [sys.executable, LAUNCH, stamp, trace_file, "--", *job.argv]
        env = dict(self.env, PYTHONHASHSEED=self.hash_seed(job))
        timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=env, stdout=out, stderr=err)
            status, rusage, timed_out = _wait(proc, timeout)
            t1 = time.monotonic()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        main_entered = os.path.exists(stamp)
        setup = t1 - t0
        if main_entered:
            with open(stamp) as fh:
                setup = float(fh.read()) - t0
        trace = None
        if traced and os.path.exists(trace_file):
            trace = tracer.load(trace_file)
        return JobResult(
            job.name,
            os.waitstatus_to_exitcode(status),
            stdout,
            stderr,
            t1 - t0,
            setup,
            rusage.ru_maxrss / 1024.0,
            timed_out,
            main_entered,
            trace,
        )

    def run_pass(self, jobs, traced=False):
        t0 = time.monotonic()
        refs = [self.run_ref()]
        results = []
        for job in jobs:
            results.append(self.run_job(job, traced))
            refs.append(self.run_ref())
        for r, before, after in zip(results, refs, refs[1:]):
            r.speed = REF_NOMINAL_S / ((before + after) / 2)
        elapsed = time.monotonic() - t0
        return PassResult(traced, results, refs, self.check(jobs, results), elapsed)

    def golden_mismatch(self, job, r):
        """Why a job's result fails its golden, or None.  Under the default
        seed a job without a golden fails: its inputs have changed."""
        if self.goldens is None:
            return None
        golden = self.goldens.get(self.keys[job.name])
        if golden is None:
            return "no golden for these inputs" if self.seed == DEFAULT_SEED else None
        if not r.timed_out and (
            golden["rc"] != r.rc or golden["stdout_sha256"] != stdout_digest(r.stdout)
        ):
            return "stdout or exit code differs from the golden"
        return None

    def check(self, jobs, results):
        """Failure reasons per job name; an empty dict when all is right."""
        fails = {}
        by_name = {r.name: r for r in results}
        for job, r in zip(jobs, results):
            reasons = []
            if r.timed_out:
                reasons.append("timed out")
            elif not r.main_entered:
                reasons.append("exited before supvar.cli.main was entered")
            if r.rc != 0:
                last = r.stderr.strip().splitlines()[-1:] or [""]
                reasons.append(f"exit code {r.rc}: {last[0]}")
            msg = self.golden_mismatch(job, r)
            if msg:
                reasons.append(msg)
            if job.check and r.rc == 0:
                msg = workloads.CHECKS[job.check](r.stdout, job, self.ctx)
                if msg:
                    reasons.append(msg)
            if reasons:
                fails[job.name] = reasons
        for blamed, needs, check in workloads.CROSS_CHECKS:
            if all(n in by_name and by_name[n].rc == 0 for n in needs):
                msg = check({n: by_name[n].stdout for n in needs})
                if msg:
                    fails.setdefault(blamed, []).append(msg)
        return fails

    def measure(self, seconds, trace):
        """Passes until the next one would end after `seconds`; with
        `trace`, untraced and traced passes alternate, at least one each."""
        passes = []
        t0 = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(self.run_pass(self.pass_jobs(traced), traced))
            now = time.monotonic()
            if now >= self.deadline:
                break
            if trace and not any(p.traced for p in passes):
                continue
            longest = max(p.elapsed_s for p in passes[-2:])
            if now - t0 + longest > seconds or now + longest > self.deadline:
                break
        return passes


def _wait(proc, timeout):
    """Wait for a child, killing it after `timeout` seconds.  Returns
    (wait status, resource usage of that child alone, timed out)."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        timed_out = not ready
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage, timed_out


def stdout_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_key(job, workdir):
    """Identity of a job's inputs: its argv and the bytes of every file it
    reads.  Seed-independent jobs get the same key under every seed."""
    h = hashlib.sha256(json.dumps(list(job.argv)).encode())
    for name in job.inputs:
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# -- report -----------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def upper_percentile(values):
    """(percent, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(passes):
    base = [p for p in passes if not p.traced]
    return {
        "wall_s": ([p.wall_s for p in base], "s"),
        "setup_s": ([p.setup_s for p in base], "s"),
        "peak_rss_mb": ([p.peak_rss_mb for p in base], "MB"),
    }


def raw_times(passes):
    """Unscaled times, for the report only."""
    base = [p for p in passes if not p.traced]
    return {
        "wall_raw_s": ([p.raw_wall_s for p in base], "s"),
        "setup_raw_s": ([p.raw_setup_s for p in base], "s"),
        "ref_s": ([t for p in base for t in p.refs], "s"),
    }


def per_layer(passes):
    samples = {}
    for p in passes:
        if not p.traced:
            continue
        spans, counters = {}, {}
        for j in p.jobs:
            if j.trace is not None:
                tracer.merge(spans, counters, *j.trace)
        for name, (value, unit) in tracer.layer_metrics(spans, counters).items():
            samples.setdefault(name, ([], unit))[0].append(value)
    # each traced pass against the untraced pass just before it, over the
    # jobs both ran (the untraced pass has no probes)
    overhead = []
    for u, t in zip(passes, passes[1:]):
        if t.traced and not u.traced:
            shared = {j.name for j in u.jobs}
            traced_s = sum(j.wall_s * j.speed for j in t.jobs if j.name in shared)
            overhead.append((traced_s - u.wall_s) / u.wall_s)
    samples["trace.overhead_ratio"] = (overhead, "ratio")
    return samples


def env_record(seed, passes):
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "seed": seed,
        "passes": len([p for p in passes if not p.traced]),
        "traced_passes": len([p for p in passes if p.traced]),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly so that nothing outside the checkout is consulted."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(gitdir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "supvar")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def report(workload, passes, metrics_samples, failed, attempted, failures):
    lines = [f"workload {workload}: {len(passes)} passes, {attempted} jobs attempted"]
    for name, (values, unit) in metrics_samples.items():
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        extra = ""
        up = upper_percentile(values)
        if up:
            extra = f"  p{up[0]} {up[1]:.6g}"
        lines.append(
            f"  {name:40s} {med:14.6g} {unit:6s} (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}{extra})"
        )
    lines.append(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    per_job = {}
    for p in passes:
        if not p.traced:
            for j in p.jobs:
                per_job.setdefault(j.name, []).append((j.wall_s, j.wall_s * j.speed))
    for name, walls in per_job.items():
        raw = statistics.median(w for w, _ in walls)
        scaled = statistics.median(w for _, w in walls)
        lines.append(f"  job {name:36s} {scaled:14.6g} s      (median wall; raw {raw:.6g} s)")
    for name, reasons in sorted(failures.items()):
        lines.append(f"  FAIL {name}: {'; '.join(sorted(set(reasons)))}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one small job per workload")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "supvar", "cli.py")):
        print(f"error: no supvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(GOLDENS) as fh:
        goldens = json.load(fh)

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(args.workload, args.seed, workdir, goldens, args.quick, deadline)
        bench.warm_up()
        passes = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    failures = {}
    for p in passes:
        for name, reasons in p.failures.items():
            failures.setdefault(name, []).extend(reasons)
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    samples = per_layer(passes) if args.trace else end_to_end(passes)
    shown = dict(samples, **raw_times(passes))
    print(report(args.workload, passes, shown, failed, attempted, failures))
    print("env " + json.dumps(env_record(args.seed, passes), sort_keys=True))
    metrics = {
        name: {"value": statistics.median(values), "unit": unit}
        for name, (values, unit) in samples.items()
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
