"""The verify pipeline: ``spectral.verify_matrix`` and its agreement with search,
whose "found" verdict is gated by one ``verify_matrix`` call.

``data/witness_321.json`` is the best matrix of the seed-11 ``[3,2,1]``
search (the phase-space search, found at restart 33, residual 1.7e-26).  The
spectral-coordinate search finds another [3,2,1] matrix there, at restart 0;
the same command writes that one:

    chmkit search --pattern 3,2,1 --restarts 50 --seed 11 \\
      | python -c "import json, sys; json.dump(json.load(sys.stdin)['best_matrix'], sys.stdout)" \\
      > tests/data/witness_321.json
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from chmkit import cli, core, eigen, spectral
from chmkit.families import gen_hermitian, gen_tao, standard_corpus
from chmkit.search import SearchReport, SearchTask, _gate, matrix_to_phases, minimize
from chmkit.spectral import verify_matrix
from test_eigen import _oracle_inputs

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


@pytest.mark.parametrize("kind", ["corpus", "scrambled", "fourier", "witness-321"])
def test_reported_spectrum_is_already_ordered(kind):
    # verify_matrix reports eigenpairs' values as they come, without sorting
    # them again, and clusters the n = 6 rest without a second Spectrum
    inputs = [core.read_matrix(WITNESS_321)] if kind == "witness-321" else _oracle_inputs(kind)
    for H in inputs:
        values = verify_matrix(H).spectrum.values
        assert np.array_equal(values, eigen.Spectrum(values).values)
        if H.shape[0] == 6:
            assert (spectral._n6_multiplicity_holds(values)
                    is oracles.n6_multiplicity_holds_by_spectrum(values))


class TestWitness321:
    def test_search_gate_accepts_it(self):
        task = SearchTask(target=[3, 2, 1], seed=11)
        H = core.read_matrix(WITNESS_321)
        # the witness's own defect ||H H^dag - 6 I||_F^2, as the gate's value
        report = _gate(matrix_to_phases(H), task, core.chm_residuals(H).unitarity_residual ** 2)
        assert report is not None and report.failed is None
        assert report.multiplicity_profile == [3, 2, 1]

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
    assert report.found and report.conflict is None
    verified = verify_matrix(report.best_matrix)
    assert verified.verified, verified.to_dict()
    assert verified.multiplicity_profile == pattern


class TestGate:
    """Each check of the search's soundness gate rejects a candidate by itself."""

    def test_each_check_rejects(self):
        phases = matrix_to_phases(core.read_matrix(WITNESS_321))
        assert _gate(phases, SearchTask(target=[3, 2, 1]), 0.0) is not None
        assert _gate(phases, SearchTask(target=[3, 2, 1]), 1e-7) is None  # value
        assert _gate(phases + 1e-3, SearchTask(target=[3, 2, 1]), 0.0) is None  # chm
        assert _gate(phases, SearchTask(target=[2, 2, 1, 1]), 0.0) is None  # profile
        tao = eigen.eigenvalues(gen_tao(1))
        assert _gate(phases, SearchTask(target=tao), 0.0) is None  # spectrum
        herm = matrix_to_phases(core.dephase(gen_hermitian(2.0))[0])
        assert _gate(herm, SearchTask(target=[3, 3]), 0.0) is not None
        assert _gate(herm, SearchTask(target="[3,3]-non-hermitian"), 0.0) is None  # barrier


class TestConflict:
    """A found matrix that fails an n = 6 theorem leg is reported, not dropped."""

    @pytest.fixture
    def theorem_fails(self, monkeypatch):
        monkeypatch.setattr(spectral, "_n6_multiplicity_holds", lambda values: False)

    def test_search_reports_the_conflict(self, theorem_fails):
        report = minimize(SearchTask(target=[2, 2, 1, 1], seed=11))
        assert report.found and report.found_restart == 0
        assert report.conflict == "multiplicity_profile"
        assert json.loads(report.to_json())["conflict"] == "multiplicity_profile"
        assert SearchReport.from_json(report.to_json()).conflict == "multiplicity_profile"

    def test_cli_prints_it_and_exits_zero(self, theorem_fails, capsys):
        code = cli.main(["search", "--pattern", "2,2,1,1", "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["conflict"] == "multiplicity_profile"
        assert captured.err == (
            "conflict: the found matrix fails verify's multiplicity_profile leg\n")

    def test_report_saved_without_it_loads_with_none(self):
        report = minimize(SearchTask(target=[2, 2, 1, 1], restarts=2, seed=11))
        d = json.loads(report.to_json())
        del d["conflict"]
        again = SearchReport.from_json(json.dumps(d))
        assert again.conflict is None and again.found


def test_n5_verdicts_match_the_ground_truth():
    # every 5x5 CHM is equivalent to F5, so exactly F5's profiles are found;
    # the gate applies no n = 6 theorem at n = 5 (20 restarts each, about 1 s)
    partitions = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1,) * 5]
    for pattern in partitions:
        report = minimize(SearchTask(target=pattern, restarts=20, seed=11))
        assert report.found is (pattern in oracles.N5_REALIZABLE_PROFILES), pattern
        if report.found:
            assert report.conflict is None
            assert verify_matrix(report.best_matrix).verified
        else:
            assert report.best_residual > 1e-2, pattern


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


class TestToleranceRule:
    """``chm_residuals`` and ``is_dephased`` take a finite nonnegative ``tol``,
    and the three verifiers inherit the rule: an infinite tolerance passes
    any matrix, a NaN or negative one fails a genuine CHM."""

    #: a Butson CHM with entries in {1, i, -1, -i}, dephased and a CHM
    #: exactly in floating point, so every check passes at tol = 0
    BUTSON = np.array([1, 1j, -1, -1j])[[
        [0, 0, 0, 0, 0, 0], [0, 0, 2, 2, 1, 3], [0, 2, 0, 1, 2, 3],
        [0, 2, 3, 2, 0, 1], [0, 1, 1, 3, 3, 2], [0, 3, 2, 0, 2, 1],
    ]]
    CHECKS = (core.chm_residuals, core.is_dephased, verify_matrix,
              spectral.verify_constant_eigenpairs, spectral.verify_hermitian_equivalence)

    @pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_tol_raises(self, check, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check(self.BUTSON, tol)

    def test_zero_tol_is_accepted(self):
        assert core.chm_residuals(self.BUTSON, 0.0).is_chm
        assert core.is_dephased(self.BUTSON, 0.0)
        assert verify_matrix(self.BUTSON, 0.0).verified
        assert not spectral.verify_constant_eigenpairs(self.BUTSON, 0.0).vacuous
        assert spectral.verify_hermitian_equivalence(self.BUTSON, 0.0).equivalence_holds
