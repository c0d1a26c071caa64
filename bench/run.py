"""Benchmark of the odn-sparsify command-line tool, driven as a user would.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one CLI call (`odnsparse.cli.main`) in a fresh Python
process (bench/job.py), so start-up and peak memory are per job. Jobs
run one at a time in a closed loop with a single client for S seconds;
every job's output is checked (see `check_job`). The seed makes the
inputs, and the same seed gives the same inputs; the CLI receives only
files or a generator spec.

With --trace 0 the jobs are untraced and the end-to-end metrics are
reported. With --trace 1, traced and untraced jobs alternate: the
per-layer metrics come from the traced jobs' spans (bench/tracer.py),
`trace.overhead_s` is the traced minus the untraced median wall time, and
one extra untraced job with one BLAS thread gives `threads_1.wall_s`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Work
files go to .bench_work/ in the checkout; the run's record (provenance,
every job, the spans when traced) is left in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SCHEMA = SRC / "odnsparse" / "report.schema.json"

EPSILON = 0.25
# Below the 7 GB of RAM of the reference machine, with room for the
# harness: a blow-up fails the job with MemoryError instead of calling in
# the OOM killer.
CAP_BYTES = 5 << 30
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
# Leaves the whole run inside 180 s even when a job hangs.
RUN_BUDGET_S = 170.0

# Input sizes. Each is chosen so one job takes a few seconds and stresses
# the layer the workload is named for; see BENCHMARK.json for the reasons.
# `seeds` is the number of sampler seeds (CLI --seed values) per run: the
# quality metrics vary with the seed, and their median over several seeds
# is steady enough to gate on.
SIZES = {
    "sparse-grid": {"rows": 30, "cols": 30, "seeds": 8},
    "pca-corr": {"samples": 2000, "columns": 400, "components": 50, "seeds": 6},
    "verify-pair": {"n": 400, "seeds": 6},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nnz_ratio": "ratio",
    "eps_achieved": "ratio",
    "bound_ratio": "ratio",
}


@dataclass
class Workload:
    name: str
    rundir: Path
    calls: list[list[str]]  # CLI arguments, one list per sampler seed
    report: Path
    matrix_out: Path | None
    quality: Callable[[dict], dict]


@dataclass
class Measurement:
    jobs: list[dict]
    metrics: dict[str, float]
    spread: dict[str, tuple[float, float, int]]

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if job["failure"])


# ----------------------------------------------------------------- inputs

def _rng(seed: int):
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def write_complete_mtx(path: Path, n: int, seed: int) -> None:
    """Complete graph, weights uniform on (0, 1], diagonal uniform(0, 1)."""
    import numpy as np

    rng = _rng(seed)
    rows, cols = np.tril_indices(n, -1)
    weights = 1.0 - rng.random(len(rows))
    diag = rng.uniform(0.0, 1.0, size=n)
    entries = np.column_stack([
        np.concatenate([rows, np.arange(n)]) + 1,
        np.concatenate([cols, np.arange(n)]) + 1,
        np.concatenate([weights, diag]),
    ])
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {len(entries)}\n")
        np.savetxt(fh, entries, fmt=("%d", "%d", "%.17g"))


def write_factor_csv(path: Path, samples: int, columns: int, seed: int) -> None:
    """One-factor model with loadings in [0.5, 0.9]: every correlation > 0."""
    import numpy as np

    rng = _rng(seed)
    loadings = rng.uniform(0.5, 0.9, size=columns)
    factor = rng.standard_normal(samples)
    noise = rng.standard_normal((samples, columns))
    data = factor[:, None] * loadings + noise * np.sqrt(1.0 - loadings**2)
    header = ",".join(f"x{j + 1}" for j in range(columns))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.9g")


def _sparsify_quality(report: dict) -> dict:
    spectral = report["spectral"]
    max_dev = max(pair["deviation"] for pair in spectral["pairs"])
    return {
        "nnz_ratio": spectral["nnz_after"] / spectral["nnz_before"],
        "eps_achieved": _eps(report["verification"]),
        "bound_ratio": spectral["bound"] / max_dev,
    }


def _pca_quality(report: dict) -> dict:
    pca = report["applications"]["pca"]
    max_gap = max(c["gap"] for c in pca["components"])
    return {
        "nnz_ratio": pca["nnz_after"] / pca["nnz_before"],
        "eps_achieved": _eps(pca["verification"]),
        "bound_ratio": pca["per_component_bound"] / max_gap,
    }


def _eps(verification: dict) -> float:
    return max(1.0 - verification["gen_min"], verification["gen_max"] - 1.0)


def verification_of(report: dict) -> dict:
    if "applications" in report:
        return report["applications"]["pca"]["verification"]
    return report["verification"]


def prepare(name: str, seed: int, rundir: Path, sizes: dict = SIZES,
            cap: int = CAP_BYTES, deadline: float | None = None) -> Workload:
    """Make the workload's inputs from `seed` and the CLI calls that use them.

    There is one call per sampler seed (see SIZES); all share the input.
    """
    size = sizes[name]
    deadline = deadline or time.monotonic() + RUN_BUDGET_S
    seeds = [seed * size["seeds"] + v for v in range(size["seeds"])]

    def common(cli_seed: int) -> list[str]:
        return ["--epsilon", str(EPSILON), "--seed", str(cli_seed),
                "--out-report", "report.json"]

    report = rundir / "report.json"
    if name == "sparse-grid":
        spec = f"grid:rows={size['rows']},cols={size['cols']},diag=uniform(0,1)"
        calls = [["sparsify", "--gen", spec, "--out-matrix", "A_hat.mtx", *common(s)]
                 for s in seeds]
        return Workload(name, rundir, calls, report, rundir / "A_hat.mtx",
                        _sparsify_quality)
    if name == "pca-corr":
        write_factor_csv(rundir / "data.csv", size["samples"], size["columns"], seed)
        calls = [["pca-demo", "--input", "data.csv",
                  "--components", str(size["components"]), *common(s)] for s in seeds]
        return Workload(name, rundir, calls, report, None, _pca_quality)
    if name == "verify-pair":
        write_complete_mtx(rundir / "A.mtx", size["n"], seed)
        calls = []
        for v, s in enumerate(seeds):
            built = run_job(["sparsify", "--input", "A.mtx", "--out-matrix",
                             f"A_hat{v}.mtx", "--epsilon", str(EPSILON),
                             "--seed", str(s)], rundir, f"prepare{v}", cap=cap,
                            timeout=deadline - time.monotonic())
            if built["error"] or built["rc"] != 0:
                raise RuntimeError(f"could not build sparsifier {v}: "
                                   f"{built['error']} (exit {built['rc']})")
            calls.append(["verify", "A.mtx", f"A_hat{v}.mtx", *common(s)])
        return Workload(name, rundir, calls, report, None, _sparsify_quality)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------- jobs

def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("ODN_SPARSIFY_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_job(cli_args: list[str], rundir: Path, tag: str, *, trace: bool = False,
            threads: int = THREADS, cap: int = CAP_BYTES,
            timeout: float = RUN_BUDGET_S) -> dict:
    """One CLI call in a fresh process. Never raises for a failed job."""
    result = rundir / f"job-{tag}.json"
    log = rundir / f"job-{tag}.log"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "job.py"), str(result), str(cap),
           tag if trace else "-", "--", *cli_args]
    record = {"tag": tag, "traced": trace, "threads": threads, "rc": None,
              "error": None}
    with open(log, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=rundir, env=child_env(threads),
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            record["error"] = f"timeout after {timeout:.0f} s"
        finally:
            if proc.poll() is None:  # timed out, or the harness was interrupted
                proc.kill()
                proc.wait()
    record["exit"] = proc.returncode
    try:
        record.update(json.loads(result.read_text()))
    except (OSError, ValueError):
        record["error"] = record["error"] or (
            f"no result; process exit {proc.returncode}: {_tail(log)}")
        return record
    if "entered" in record:
        record["setup_s"] = record.pop("entered") - spawned
        record["wall_s"] = record.pop("left") - (spawned + record["setup_s"])
    return record


def _tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(errors="replace").strip()
    return text[-limit:].replace("\n", " | ")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report: dict) -> str:
    """Digest of the report outside `timings`, which may differ between runs."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return _digest(json.dumps(stripped, indent=2, sort_keys=True).encode())


def check_job(job: dict, wl: Workload, schema: dict) -> str | None:
    """Why the job failed, or None. Fills job['digests'] and job['report']."""
    import jsonschema

    if job["error"]:
        return job["error"]
    if job["rc"] != 0:
        return f"exit code {job['rc']}: " + _tail(wl.rundir / f"job-{job['tag']}.log")
    if not str(job.get("package", "")).startswith(str(SRC)):
        return f"imported odnsparse from {job.get('package')}, not {SRC}"
    try:
        report = json.loads(wl.report.read_text())
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return f"report does not match the schema: {exc.message}"
    if not report["checks"]["all_passed"]:
        return f"checks failed: {report['checks']['failures']}"
    mode = verification_of(report)["mode"]
    if mode != "exact":
        return f"verification mode {mode!r}, not a certificate"
    job["report"] = report
    job["digests"] = {"report": report_digest(report)}
    if wl.matrix_out is not None:
        try:
            job["digests"]["matrix"] = _digest(wl.matrix_out.read_bytes())
        except OSError as exc:
            return f"no output matrix: {exc}"
    return None


# ---------------------------------------------------------------- measure

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(wl: Workload, seconds: float, trace: bool, *, cap: int = CAP_BYTES,
            deadline: float | None = None) -> Measurement:
    """Run jobs back to back for `seconds`, check each, and aggregate."""
    import tracer

    schema = json.loads(SCHEMA.read_text())
    deadline = deadline or time.monotonic() + RUN_BUDGET_S
    stop = time.monotonic() + seconds
    jobs: list[dict] = []

    def one(variant: int, traced: bool, threads: int) -> None:
        for path in (wl.report, wl.matrix_out):
            if path is not None:
                path.unlink(missing_ok=True)
        tag = f"{len(jobs):03d}"
        job = run_job(wl.calls[variant], wl.rundir, tag, trace=traced,
                      threads=threads, cap=cap, timeout=deadline - time.monotonic())
        job["variant"] = variant
        job["failure"] = check_job(job, wl, schema)
        jobs.append(job)

    # Closed loop, one client: the next job starts when the last one ends.
    # Untraced runs go through every sampler seed at least once; traced
    # runs alternate untraced and traced jobs on the first seed, then add
    # the single-threaded baseline.
    if trace:
        while len(jobs) < 2 or time.monotonic() < stop:
            one(0, len(jobs) % 2 == 1, THREADS)
        one(0, False, 1)
    else:
        # The first job warms the page cache and is checked but not timed.
        one(0, False, THREADS)
        jobs[0]["warmup"] = True
        stop = time.monotonic() + seconds
        while len(jobs) <= len(wl.calls) or time.monotonic() < stop:
            one(len(jobs) % len(wl.calls), False, THREADS)

    # The same call on the same input must give the same report outside
    # `timings` and the same matrix file, traced or not. A different BLAS
    # thread count may change the last bits, so only like is compared.
    reference: dict[tuple[int, int], dict] = {}
    for job in jobs:
        if not job["failure"]:
            first = reference.setdefault((job["variant"], job["threads"]),
                                         job["digests"])
            if job["digests"] != first:
                job["failure"] = "output differs from the first job of this run"
    passed = [job for job in jobs if not job["failure"]]

    spread: dict[str, tuple[float, float, int]] = {}
    metrics: dict[str, float] = {}

    def put(name: str, values: list[float]) -> None:
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        spread[name] = (q1, q3, len(values))

    main_jobs = [job for job in passed if job["threads"] == THREADS]
    untraced = [job for job in main_jobs
                if not job["traced"] and not job.get("warmup")]
    traced = [job for job in main_jobs if job["traced"]]
    if not trace and untraced:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            put(name, [job[name] for job in untraced])
        quality: dict[int, dict] = {}
        for job in untraced:
            job["quality"] = wl.quality(job["report"])
            quality.setdefault(job["variant"], job["quality"])
        for name in quality[untraced[0]["variant"]]:
            metrics[name] = statistics.median(q[name] for q in quality.values())
    if trace and traced and untraced:
        per_job = [tracer.layer_metrics(job["spans"]) for job in traced]
        for name in tracer.LAYER_UNITS:
            put(name, [values[name] for values in per_job])
        metrics["trace.overhead_s"] = (
            statistics.median(job["wall_s"] for job in traced)
            - statistics.median(job["wall_s"] for job in untraced))
        single = [job for job in passed if job["threads"] == 1]
        if single:
            metrics["threads_1.wall_s"] = single[0]["wall_s"]
    return Measurement(jobs, metrics, spread)


def per_layer_units() -> dict[str, str]:
    import tracer

    units = dict(tracer.LAYER_UNITS)
    units["trace.overhead_s"] = "s"
    units["threads_1.wall_s"] = "s"
    return units


# ------------------------------------------------------------- provenance

def provenance() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    commit = "not a git checkout"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "blas_threads": THREADS,
        "nproc": NPROC,
        "address_space_cap_bytes": CAP_BYTES,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


# ------------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool, *,
        sizes: dict = SIZES, cap: int = CAP_BYTES) -> int:
    """Prepare, measure and print one benchmark run; returns the exit code."""
    started = time.monotonic()
    rundir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        # Compile the library's bytecode once, so no job pays for it.
        subprocess.run([sys.executable, "-c", "import odnsparse.cli"],
                       env=child_env(THREADS), check=True, timeout=60)
        wl = prepare(workload, seed, rundir, sizes, cap, started + RUN_BUDGET_S)
        result = measure(wl, seconds, trace, cap=cap,
                         deadline=started + RUN_BUDGET_S)
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": trace, "sizes": sizes[workload],
                  "provenance": provenance(), "metrics": result.metrics,
                  "jobs": [{k: v for k, v in job.items() if k != "report"}
                           for job in result.jobs]}
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(result.jobs)
    failed = result.failed
    units = per_layer_units() if trace else END_TO_END_UNITS
    print(f"workload {workload} seed {seed}: {attempted} jobs in "
          f"{time.monotonic() - started:.1f} s, closed loop, 1 client, "
          f"{THREADS} BLAS threads of {NPROC} cpus")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for job in result.jobs:
        if job["failure"]:
            print(f"job {job['tag']} failed: {job['failure']}")
    print(f"failure_rate: {failed / attempted:.4g} share ({failed} of {attempted})")
    for name, unit in units.items():
        if name not in result.metrics:
            print(f"{name}: missing, no job passed")
            continue
        line = f"{name}: {result.metrics[name]:.6g} {unit}"
        if name in result.spread and not (trace and unit != "s"):
            q1, q3, count = result.spread[name]
            line += f" (median of {count}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    missing = [name for name in units if name not in result.metrics]
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in result.metrics},
    }))
    return 0 if failed == 0 and not missing else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "odnsparse" / "cli.py").is_file():
        print(f"error: no odnsparse source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
