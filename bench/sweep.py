"""One-shot capacity sweep: `sparsify` on complete graphs of growing size.

Usage, from the root of a checkout:

    python3 bench/sweep.py [N ...]        (default: 400 700 1000 2000 4096)

Each size is one CLI call, `sparsify --gen complete:n=N,seed=1 --seed 7`,
in a fresh process under the benchmark's address-space cap, so a size
that needs too much memory is recorded as a MemoryError (or another
failure reason) rather than crashing the sweep or waking the OOM killer.
For each size it records wall time, peak RSS and nnz before and after.
This is outside the gated benchmark loop: run it by hand when the memory
ceiling is in question. The table goes to standard output and the record
to .bench_work/results/sweep.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

DEFAULT_SIZES = (400, 700, 1000, 2000, 4096)


def sweep_one(n: int, rundir) -> dict:
    job = run.run_job(["sparsify", "--gen", f"complete:n={n},seed=1", "--seed", "7",
                       "--epsilon", str(run.EPSILON), "--out-report", "report.json"],
                      rundir, f"n{n}")
    row = {"n": n, "wall_s": job.get("wall_s"), "peak_rss_mb": job.get("peak_rss_mb"),
           "nnz_before": None, "nnz_after": None, "failure": None}
    if job["error"] or job["rc"] != 0:
        row["failure"] = job["error"] or f"exit code {job['rc']}"
        return row
    spectral = json.loads((rundir / "report.json").read_text())["spectral"]
    row["nnz_before"] = spectral["nnz_before"]
    row["nnz_after"] = spectral["nnz_after"]
    return row


def main(argv: list[str]) -> int:
    if not (run.SRC / "odnsparse" / "cli.py").is_file():
        print(f"error: no odnsparse source at {run.SRC}", file=sys.stderr)
        return 2
    sizes = [int(a) for a in argv] or list(DEFAULT_SIZES)
    rundir = run.WORK / "sweep"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    rows = []
    try:
        for n in sizes:
            rows.append(sweep_one(n, rundir))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record = {"when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "provenance": run.provenance(), "rows": rows}
    results = run.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "sweep.json").write_text(json.dumps(record, indent=1))

    print(f"{'n':>5} {'wall_s':>8} {'peak_rss_mb':>12} {'nnz before -> after':>24}  failure")
    for row in rows:
        wall = "" if row["wall_s"] is None else f"{row['wall_s']:.2f}"
        rss = "" if row["peak_rss_mb"] is None else f"{row['peak_rss_mb']:.0f}"
        nnz = "" if row["failure"] else f"{row['nnz_before']} -> {row['nnz_after']}"
        print(f"{row['n']:>5} {wall:>8} {rss:>12} {nnz:>24}  {row['failure'] or ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
