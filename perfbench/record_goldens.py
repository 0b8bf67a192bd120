"""Record the golden stdout digest and exit code of every job for the
default seed, after checking that the outputs pass every other check.

    python3 perfbench/record_goldens.py

Jobs whose inputs do not depend on the seed keep their golden under every
seed, because the golden is keyed by the job's argv and input bytes.
"""

import json
import os
import shutil
import sys

import run


def record():
    sys.path.insert(0, run.SRC)
    goldens = {}
    work_root = os.path.join(run.ROOT, ".perfbench_work")
    for workload in run.workloads.WORKLOADS:
        workdir = os.path.join(work_root, f"record-{workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            bench = run.Bench(workload, run.DEFAULT_SEED, workdir, None)
            p = bench.run_pass(bench.jobs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if p.failures:
            raise SystemExit(f"{workload}: outputs fail their checks: {p.failures}")
        for job, r in zip(bench.jobs, p.jobs):
            entry = {"jobs": [], "rc": r.rc, "stdout_sha256": run.stdout_digest(r.stdout)}
            entry = goldens.setdefault(bench.keys[job.name], entry)
            if (entry["rc"], entry["stdout_sha256"]) != (r.rc, run.stdout_digest(r.stdout)):
                raise SystemExit(f"{job.name}: same inputs as {entry['jobs']}, other output")
            entry["jobs"] = sorted(set(entry["jobs"]) | {job.name})
    try:
        os.rmdir(work_root)
    except OSError:
        pass
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} goldens in {run.GOLDENS}")


if __name__ == "__main__":
    record()
