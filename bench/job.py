"""Run one odn-sparsify CLI job in this (fresh) process and record it.

Usage: python3 job.py RESULT_JSON CAP_BYTES JOB_ID|- -- CLI_ARG...

run.py starts this script once per job, with PYTHONPATH set to the
checkout's src/ and the BLAS thread variables already in the environment,
so they hold before numpy loads. The address-space cap (RLIMIT_AS, 0 for
none) is set before anything large is imported, so a memory blow-up
fails this job with MemoryError instead of waking the OOM killer.

RESULT_JSON receives the monotonic clock on entering and leaving
`cli.main` (CLOCK_MONOTONIC is system-wide, so run.py subtracts its own
spawn time to get the start-up cost), the exit code, the peak RSS, the
error if one was raised, and with a JOB_ID the traced spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    result_path, cap, job_id = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[5:]
    if cap > 0:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    record: dict = {"rc": None, "error": None}
    tracer = None
    try:
        from odnsparse import cli

        record["package"] = sys.modules["odnsparse"].__file__
        if job_id != "-":
            from tracer import Tracer

            tracer = Tracer(job_id)
            tracer.install()
        record["entered"] = time.monotonic()
        try:
            record["rc"] = cli.main(argv)
        finally:
            record["left"] = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
    except SystemExit as exc:  # argparse usage errors
        record["rc"] = exc.code if isinstance(exc.code, int) else 1
        record["error"] = f"SystemExit: {exc.code}"
    except Exception as exc:  # MemoryError included: a job failure, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc(limit=-3)
    if tracer is not None:
        record["spans"] = tracer.spans
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0 if record["error"] is None and record["rc"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
