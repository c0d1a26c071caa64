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

_COMMANDS_SCRIPT = """
import json, sys
import numpy as np
from odnsparse import generate_odn, parse_generator_spec, write_matrix_market
from odnsparse.cli import main

deferred = sys.argv[1:]
loaded = {"import": [m for m in deferred if m in sys.modules]}
spec = "grid:rows=6,cols=6"
write_matrix_market(generate_odn(**parse_generator_spec(spec)), "grid.mtx")
rng = np.random.default_rng(1)
data = rng.standard_normal((40, 1)) + rng.standard_normal((40, 5))
with open("data.csv", "w") as f:
    f.write("a,b,c,d,e\\n")
    f.writelines(",".join(map(repr, row)) + "\\n" for row in data.tolist())
codes = {}
for name, argv in (("sparsify", ["sparsify", "--gen", spec, "--out-matrix", "hat.mtx"]),
                   ("verify", ["verify", "grid.mtx", "hat.mtx"]),
                   ("pca-demo", ["pca-demo", "--input", "data.csv"]),
                   ("bounds", ["bounds", "--gen", spec])):
    codes[name] = main(argv)
    loaded[name] = [m for m in deferred if m in sys.modules]
np.testing.assert_allclose([1.0], [1.0])
print(json.dumps({"codes": codes, "loaded": loaded,
                  "f2py": callable(np.f2py.get_include),
                  "testing": "unittest" in sys.modules}))
"""


def _child(script, *args, cwd):
    import subprocess
    import sys

    from conftest import child_env

    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env=child_env(), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_numpy_submodules_no_command_runs_stay_unimported(tmp_path):
    """scipy's import lists numpy.f2py and numpy.testing, and odnsparse leaves
    them lazy: in a fresh process neither `import odnsparse.cli` nor any
    command imports what they import, and both still work when first used."""
    import json

    result = json.loads(_child(_COMMANDS_SCRIPT, *_DEFERRED_ONLY, cwd=tmp_path))
    assert result["codes"] == {"sparsify": 0, "verify": 0, "pca-demo": 0, "bounds": 0}
    assert result["loaded"] == {step: [] for step in
                                ("import", "sparsify", "verify", "pca-demo", "bounds")}
    # Running numpy.testing imports unittest; np.f2py resolves to the package.
    assert result["testing"] and result["f2py"]


def test_numpy_submodule_imported_first_is_kept(tmp_path):
    """A numpy submodule imported before odnsparse is neither replaced nor
    made lazy."""
    script = ("import types, sys\n"
              "import numpy, numpy.testing as testing\n"
              "import odnsparse\n"
              "print(sys.modules['numpy.testing'] is testing is numpy.testing"
              " and type(testing) is types.ModuleType)\n")
    assert _child(script, cwd=tmp_path) == "True"
