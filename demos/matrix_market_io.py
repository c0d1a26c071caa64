#!/usr/bin/env python3
"""Matrix Market files and the command-line pipeline.

The library exchanges matrices in the `coordinate real symmetric`
flavor: 1-based indices, lower triangle stored once, diagonal entries
permitted, 17 significant digits so double precision round-trips
bit-exactly.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import odnsparse as od

with tempfile.TemporaryDirectory(prefix="odnsparse-demo-") as tmp:
    workdir = Path(tmp)

    matrix = od.generate_odn("grid", rows=5, cols=5, seed=8, diag=("uniform", 0.0, 1.0))
    path = workdir / "grid.mtx"
    od.write_matrix_market(matrix, path)

    print(f"wrote {path}:")
    for line in path.read_text().splitlines()[:6]:
        print(f"  {line}")
    print(f"  ... ({matrix.stored_pairs} edge entries + "
          f"{int((matrix.diag != 0).sum())} diagonal entries)")

    again = od.read_matrix_market(path)
    print(f"round-trip bit-exact: {again == matrix}")

    # The same pipeline is scriptable without Python via the CLI.
    out_matrix = workdir / "grid.sparse.mtx"
    out_report = workdir / "report.json"
    cmd = [
        sys.executable, "-m", "odnsparse.cli", "sparsify",
        "--input", str(path),
        "--epsilon", "0.25", "--seed", "7",
        "--out-matrix", str(out_matrix),
        "--out-report", str(out_report),
    ]
    print(f"\n$ odn-sparsify sparsify --input grid.mtx --epsilon 0.25 --seed 7 ...")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("\n".join(f"  {line}" for line in proc.stdout.splitlines()))
    print(f"exit code {proc.returncode} (0 = all bounds verified)")
    print(f"sparsified matrix at {out_matrix.name}, JSON report at {out_report.name}")

    # Reports are deterministic for a fixed configuration: rerunning with the
    # same seed reproduces every number outside the timings subtree.
    sparse_again = od.read_matrix_market(out_matrix)
    sparse_direct = od.reconstruct(
        od.sparsify_laplacian(od.decompose(matrix), 0.25, seed=7).adjacency,
        od.decompose(matrix).center,
    )
    print(f"CLI output matches the library call bit-exactly: "
          f"{sparse_again == sparse_direct}")
