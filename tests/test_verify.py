"""The verify pipeline: ``spectral.verify_matrix`` and its agreement with search.

``data/witness_321.json`` is the best matrix of the seed-11 ``[3,2,1]``
search (found at restart 33, residual 1.7e-26).  Regenerate it with

    chmkit search --pattern 3,2,1 --restarts 50 --seed 11 \\
      | python -c "import json, sys; json.dump(json.load(sys.stdin)['best_matrix'], sys.stdout)" \\
      > tests/data/witness_321.json
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from chmkit import core, eigen, spectral
from chmkit.families import gen_hermitian, gen_tao, standard_corpus
from chmkit.search import SearchTask, _qualifies, matrix_to_phases, minimize, objective
from chmkit.spectral import verify_matrix

SQRT6 = math.sqrt(6.0)
WITNESS_321 = Path(__file__).parent / "data" / "witness_321.json"


@pytest.mark.parametrize(
    "values, holds",
    [
        ([SQRT6, -SQRT6, 1j * SQRT6, 1j * SQRT6, 1j * SQRT6, -1j * SQRT6], False),
        ([SQRT6] * 4 + [-SQRT6, 1j * SQRT6], False),
        ([SQRT6] * 3 + [-SQRT6] * 2 + [-1j * SQRT6], True),
        ([SQRT6] * 3 + [-SQRT6] * 3, True),
    ],
    ids=["nonconstant-triple", "sqrt6-x4", "witness-321", "hermitian-33"],
)
def test_n6_multiplicity_rule(values, holds):
    assert spectral._n6_multiplicity_holds(np.array(values)) is holds


class TestWitness321:
    def test_search_gate_accepts_it(self):
        task = SearchTask(target=[3, 2, 1], seed=11)
        phases = matrix_to_phases(core.read_matrix(WITNESS_321))
        assert _qualifies(phases, task, objective(phases, task)) is not None

    def test_verify_accepts_it(self):
        report = verify_matrix(core.read_matrix(WITNESS_321))
        assert report.multiplicity_profile == [3, 2, 1]
        assert not report.hermitian_equivalence.is_hermitian
        assert report.verified and report.failed is None


@pytest.mark.parametrize(
    "pattern", [[1] * 6, [2, 1, 1, 1, 1], [2, 2, 1, 1], [3, 3]],
    ids=lambda p: str(p).replace(" ", ""),
)
def test_every_found_matrix_is_verified(pattern):
    report = minimize(SearchTask(target=pattern, restarts=2, seed=11))
    assert report.found
    verified = verify_matrix(report.best_matrix)
    assert verified.verified, verified.to_dict()
    assert verified.multiplicity_profile == pattern


class TestVerifyReport:
    def test_identity_fails_the_chm_leg(self):
        report = verify_matrix(np.eye(6))
        assert not report.verified
        assert report.failed == "chm"
        assert report.to_dict() == {
            "n": 6, "tol": core.DEFAULT_TOL, "chm": report.chm.to_dict(),
            "verified": False, "failed": "chm",
        }

    def test_convergence_error_fails_the_verifier(self, monkeypatch):
        def fail(*args, **kwargs):
            raise eigen.ConvergenceError("QR iteration did not converge")

        monkeypatch.setattr(eigen, "_schur", fail)
        report = verify_matrix(gen_tao(1))
        assert report.failed == "verifier_error"
        assert report.verifier_error == "QR iteration did not converge"

    def test_dict_keys_and_types(self):
        d = verify_matrix(gen_hermitian(2.0)).to_dict()
        assert list(d) == [
            "n", "tol", "chm", "dephased", "constant_eigenpairs", "multiplicity_profile",
            "spectrum", "hermitian_equivalence", "verified", "failed",
        ]
        assert list(d["chm"]) == [
            "n", "unimodularity_residual", "unitarity_residual", "tol", "is_chm",
        ]
        assert list(d["constant_eigenpairs"]) == [
            "n", "residual_plus", "residual_minus", "max_first_coord", "vacuous",
        ]
        assert d["hermitian_equivalence"]["profile"] == [3, 3]
        assert d["multiplicity_profile"] == [3, 3]
        assert json.loads(json.dumps(d)) == d

    @pytest.mark.parametrize("noise", [1e-5, 1e-4])
    def test_noisy_corpus_verifies_at_a_loose_tolerance(self, noise):
        # what CHM_TOL=1e-2 gives: each corpus member, its entries perturbed
        # and put back on the unit circle, is a slightly non-normal matrix
        # whose eigenvectors differ from its Schur vectors
        rng = np.random.default_rng(61)
        for name, H in standard_corpus():
            S = H + noise * (rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape))
            report = verify_matrix(S / np.abs(S), 1e-2)
            assert report.verified, (name, report.failed, report.verifier_error)

    def test_one_solve_feeds_every_leg(self, monkeypatch):
        calls = []
        solve = eigen._schur

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(eigen, "_schur", counted)
        assert verify_matrix(gen_tao(1)).verified
        assert len(calls) == 1
