"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares numpy only.  scipy or sympy may be installed
where the tests run, and then an import of either would pass every other
test and fail only where they are absent.  A fresh interpreter runs one call
of each kind (a spectrum distance above n = 8, a search, a verify and a
gadget) and reports what it imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import chmkit

SRC = Path(chmkit.__file__).resolve().parents[1]

UNDECLARED = ("scipy", "sympy")

PROGRAM = """
import sys
from chmkit import (SearchTask, Spectrum, eigenvalues, gadget_gram_rank, gen_fourier,
                    gen_tao, minimize, spectrum_distance, verify_matrix)

spec = eigenvalues(gen_fourier(12))
assert spectrum_distance(spec, Spectrum(spec.values[::-1] + 1e-9)) < 1e-8
assert minimize(SearchTask(target=eigenvalues(gen_fourier(9)), restarts=20, seed=0)).found
assert verify_matrix(gen_tao(1)).verified
assert gadget_gram_rank().verdict
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in {undeclared!r})))
"""


def test_no_undeclared_dependency_is_imported():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROGRAM.format(undeclared=UNDECLARED)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
