"""Every script under demos/ runs to completion against this checkout and
leaves nothing behind in the temporary directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env(TMPDIR=str(tmpdir)))
    assert proc.returncode == 0, proc.stderr
    assert list(tmpdir.iterdir()) == []


def test_dense_demo_reads_solved_angles(tmp_path):
    """The dense demo keeps the indices whose bound is below 1, which are the
    ones whose sin(theta) the spectral report solves: it prints the worst."""
    demo = DEMOS[0].parent / "sparsify_dense_matrix.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "informative indices, worst sin(theta)=" in proc.stdout
