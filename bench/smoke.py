"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

Usage, from the root of a checkout:

    python3 bench/smoke.py

Checks that BENCHMARK.json matches this benchmark, that every end-to-end
and per-layer metric is printed by name with its unit, that a corrupt .mtx input and a too-small memory cap are
counted as failed jobs rather than raised, that the tracing wrappers put
every original function back, that tracing leaves the report unchanged
outside `timings`, and that the benchmark refuses to run without the
program's source next to it. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import tracer

TINY = {
    "sparse-grid": {"rows": 5, "cols": 6, "seeds": 2},
    "pca-corr": {"samples": 200, "columns": 20, "components": 3, "seeds": 2},
    "verify-pair": {"n": 30, "seeds": 2},
}
SEED = 3
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def fresh_dir(name: str):
    path = run.WORK / "smoke" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def metrics_printed(workload: str, trace: bool) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload, SEED, 0, trace, sizes=TINY)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    units = run.per_layer_units() if trace else run.END_TO_END_UNITS
    what = f"{workload} trace={int(trace)}"
    check(code == 0 and result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{what}: every job passes")
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
          and sorted(result["metrics"]) == sorted(units)
          and all(result["metrics"][m]["unit"] == u for m, u in units.items()),
          f"{what}: result line has every metric with its unit")
    check(all(any(line.startswith(f"{m}: ") and f" {u}" in line for line in lines)
              for m, u in units.items()),
          f"{what}: every metric is printed by name with its unit")
    check(any(line.startswith("failure_rate: ") for line in lines),
          f"{what}: failure_rate is printed")


def failures_are_counted() -> None:
    rundir = fresh_dir("corrupt")
    wl = run.prepare("verify-pair", SEED, rundir, TINY)
    (rundir / "A.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                            "3 3 2\n1 1 oops\n")
    result = run.measure(wl, 0, False)
    check(result.failed == len(result.jobs) >= 1,
          f"corrupt .mtx: {result.failed} of {len(result.jobs)} jobs counted as failed")

    rundir = fresh_dir("cap")
    wl = run.prepare("sparse-grid", SEED, rundir, TINY)
    result = run.measure(wl, 0, False, cap=48 << 20)
    check(result.failed == len(result.jobs) >= 1,
          f"48 MiB cap: {result.failed} of {len(result.jobs)} jobs counted as failed "
          f"({result.jobs[0]['failure'][:60]!r})")


def tracer_restores() -> None:
    sys.path.insert(0, str(run.SRC))
    import numpy
    import odnsparse.cli  # noqa: F401  (loads every traced module)

    def snapshot() -> dict:
        owners = [sys.modules[f"odnsparse.{m}"] for m in tracer.BINDING_MODULES]
        owners += [sys.modules["odnsparse"], numpy, numpy.linalg]
        return {(owner.__name__, attr): obj for owner in owners
                for attr, obj in list(vars(owner).items())}

    before = snapshot()
    t = tracer.Tracer("smoke")
    t.install()
    during = snapshot()
    changed = [key for key in before if during[key] is not before[key]]
    t.uninstall()
    after = snapshot()
    check(len(changed) > 20 and ("odnsparse.cli", "sparsify_laplacian") in changed
          and ("numpy.linalg", "eigh") in changed,
          f"tracer wraps {len(changed)} module attributes")
    check(all(after[key] is before[key] for key in before) and before.keys() == after.keys(),
          "tracer.uninstall restores every original function")


def tracing_keeps_report() -> None:
    rundir = fresh_dir("trace")
    wl = run.prepare("verify-pair", SEED, rundir, TINY)
    schema = json.loads(run.SCHEMA.read_text())
    digests = {}
    for traced in (False, True):
        job = run.run_job(wl.calls[0], rundir, f"t{int(traced)}", trace=traced)
        failure = run.check_job(job, wl, schema)
        digests[traced] = None if failure else job["digests"]["report"]
        check(failure is None and (not traced or job["spans"]),
              f"traced={traced} job passes: {failure}")
    check(digests[False] is not None and digests[False] == digests[True],
          "tracing leaves the report unchanged outside timings")


def refuses_without_source() -> None:
    lonely = fresh_dir("lonely")
    shutil.copytree(run.BENCH, lonely / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lonely / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                           "sparse-grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=lonely, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def manifest_matches() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(manifest["command"] == ["python3", f"{run.BENCH.name}/run.py"]
          and [w["name"] for w in manifest["workloads"]] == list(run.SIZES),
          "BENCHMARK.json names this script and its workloads")
    check({m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
          and {m["name"]: m["unit"] for m in manifest["per_layer"]}
          == run.per_layer_units(),
          "BENCHMARK.json lists every metric this script prints, with its unit")


def main() -> int:
    if not (run.SRC / "odnsparse" / "cli.py").is_file():
        print(f"error: no odnsparse source at {run.SRC}", file=sys.stderr)
        return 2
    try:
        manifest_matches()
        for workload in TINY:
            for trace in (False, True):
                metrics_printed(workload, trace)
        failures_are_counted()
        tracer_restores()
        tracing_keeps_report()
        refuses_without_source()
    finally:
        shutil.rmtree(run.WORK / "smoke", ignore_errors=True)
    print(f"{len(problems)} problem(s)" if problems else "smoke test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
