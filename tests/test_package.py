import odnsparse
from odnsparse import report, spectra


def test_every_public_name_resolves_once():
    names = odnsparse.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(odnsparse, name) for name in names)


def test_sparsifier_norm_check_is_gone():
    """||L - L_hat|| <= eps * rho(L) follows from the sparsifier inequality,
    so no check, record or serializer of it is left."""
    for owner, name in ((odnsparse, "sparsifier_norm_check"),
                        (odnsparse, "SparsifierNormCheck"),
                        (spectra, "sparsifier_norm_check"),
                        (spectra, "SparsifierNormCheck"),
                        (report, "norm_check_to_dict")):
        assert not hasattr(owner, name), name
        assert name not in odnsparse.__all__


# Modules that only numpy.f2py's and numpy.testing's imports bring in.
_DEFERRED_ONLY = ("numpy.f2py.crackfortran", "charset_normalizer", "unittest")
# The numpy submodules odnsparse makes lazy. A lazy module stays in
# `sys.modules` as `importlib.util._LazyModule` until its first attribute
# access runs it, after which it is a plain module.
_LAZY = ("numpy.f2py", "numpy.testing", "numpy.polynomial", "numpy.ma", "numpy.char",
         "numpy.rec", "numpy.strings", "numpy.ctypeslib")

_COMMANDS_SCRIPT = """
import json, sys, types
import numpy as np
from odnsparse import generate_odn, parse_generator_spec, write_matrix_market
from odnsparse.cli import main

deferred, lazy = sys.argv[1].split(","), sys.argv[2].split(",")


def run():
    return ([m for m in deferred if m in sys.modules]
            + [m for m in lazy if type(sys.modules.get(m)) is types.ModuleType])


loaded = {"import": run()}
grid, complete = "grid:rows=30,cols=30", "complete:n=60,seed=1"
for name, spec in (("grid.mtx", grid), ("complete.mtx", complete)):
    write_matrix_market(generate_odn(**parse_generator_spec(spec)), name)
rng = np.random.default_rng(1)
data = rng.standard_normal((40, 1)) + rng.standard_normal((40, 5))
with open("data.csv", "w") as f:
    f.write("a,b,c,d,e\\n")
    f.writelines(",".join(map(repr, row)) + "\\n" for row in data.tolist())
codes = {}
for name, argv in (
        ("sparsify-band", ["sparsify", "--gen", grid, "--out-matrix", "grid_hat.mtx"]),
        ("sparsify-dense", ["sparsify", "--input", "complete.mtx", "--out-matrix",
                            "complete_hat.mtx", "--out-csv", "complete.csv"]),
        ("verify-band", ["verify", "grid.mtx", "grid_hat.mtx"]),
        ("verify-dense", ["verify", "complete.mtx", "complete_hat.mtx"]),
        ("pca-demo", ["pca-demo", "--input", "data.csv"]),
        ("bounds", ["bounds", "--gen", grid])):
    codes[name] = main(argv)
    loaded[name] = run()
np.testing.assert_allclose([1.0], [1.0])
print(json.dumps({"codes": codes, "loaded": loaded,
                  "f2py": callable(np.f2py.get_include),
                  "testing": "unittest" in sys.modules,
                  "ma": int(np.ma.masked_array([1, 2], [0, 1]).sum()),
                  "ctypeslib": callable(np.ctypeslib.as_array)}))
"""

_STEPS = ("sparsify-band", "sparsify-dense", "verify-band", "verify-dense", "pca-demo",
          "bounds")


def _child(script, *args, cwd):
    import subprocess
    import sys

    from conftest import child_env

    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env=child_env(), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_numpy_submodules_no_command_runs_stay_unimported(tmp_path):
    """scipy's import lists numpy.f2py, numpy.testing, numpy.polynomial,
    numpy.ma, numpy.char, numpy.rec, numpy.strings and numpy.ctypeslib, and
    odnsparse leaves them lazy: in a fresh process neither `import
    odnsparse.cli` nor any command, on the band path or the dense one, runs
    any of them or imports what f2py and testing import, and each still
    works when first used."""
    import json

    result = json.loads(_child(_COMMANDS_SCRIPT, ",".join(_DEFERRED_ONLY), ",".join(_LAZY),
                               cwd=tmp_path))
    assert result["codes"] == dict.fromkeys(_STEPS, 0)
    assert result["loaded"] == {step: [] for step in ("import",) + _STEPS}
    # Running numpy.testing imports unittest; np.f2py resolves to the package.
    assert result["testing"] and result["f2py"]
    assert result["ma"] == 1 and result["ctypeslib"]


def test_band_worker_imports_stay_lazy(tmp_path):
    """`import odnsparse.cli` loads neither `queue` nor the thread pool of
    concurrent.futures: the band worker imports its queue when it starts."""
    script = ("import sys\n"
              "import odnsparse.cli\n"
              "print(sorted({'queue', 'concurrent.futures.thread'} & set(sys.modules)))\n")
    assert _child(script, cwd=tmp_path) == "[]"


def test_numpy_submodule_imported_first_is_kept(tmp_path):
    """A numpy submodule imported before odnsparse is neither replaced nor
    made lazy."""
    script = ("import types, sys\n"
              "import numpy, numpy.testing as testing\n"
              "import odnsparse\n"
              "print(sys.modules['numpy.testing'] is testing is numpy.testing"
              " and type(testing) is types.ModuleType)\n")
    assert _child(script, cwd=tmp_path) == "True"
