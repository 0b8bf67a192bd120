"""Run one `supvar` command line as `python -m supvar.cli` would, and note
when `supvar.cli.main` is entered.

    python3 launch.py STAMP_FILE TRACE_FILE -- <supvar arguments>

STAMP_FILE receives `time.monotonic()` (a clock shared by all processes of
the machine) just before `main` is called, so the parent can split the
job's wall time into start-up (interpreter, numpy and supvar import) and
work.  With a non-empty TRACE_FILE the public functions of `supvar` are
wrapped first and their spans are written there when `main` returns.
"""

import sys
import time


def _run(stamp_file, trace_file, argv):
    import supvar.cli

    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t = time.monotonic()
    with open(stamp_file, "w") as fh:
        fh.write(repr(t))
    try:
        return supvar.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_file)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: launch.py STAMP_FILE TRACE_FILE -- <supvar arguments>")
    raise SystemExit(_run(sys.argv[1], sys.argv[2], sys.argv[4:]))
