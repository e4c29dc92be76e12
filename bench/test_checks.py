"""The benchmark's own checks accept right answers and reject wrong ones."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from chmkit import families, gadgets  # noqa: E402

SQRT6 = math.sqrt(6.0)


def test_found_accepts_a_chm_with_the_pattern():
    # Tao is dephased with profile [2, 2, 1, 1]
    checks.check_found("found", families.gen_tao(1), (2, 2, 1, 1))


def test_found_rejects_a_perturbed_matrix():
    H = families.gen_tao(1)
    H[3, 4] *= np.exp(1e-6j)
    with pytest.raises(checks.WrongAnswer, match="not a CHM"):
        checks.check_found("found", H, (2, 2, 1, 1))


def test_fabricated_found_for_an_impossible_pattern_is_rejected():
    with pytest.raises(checks.WrongAnswer, match="verdict"):
        checks.check_not_found("found", 1e-20, [0, 1], 2)
    with pytest.raises(checks.WrongAnswer, match="profile"):
        checks.check_found("found", families.gen_tao(1), (4, 1, 1))


def test_not_found_needs_the_residual_gap_and_one_trace_per_restart():
    checks.check_not_found("not-found", 4.3, [0, 1], 2)
    with pytest.raises(checks.WrongAnswer, match="best residual"):
        checks.check_not_found("not-found", 1e-3, [0, 1], 2)
    with pytest.raises(checks.WrongAnswer, match="traces"):
        checks.check_not_found("not-found", 4.3, [0], 2)


def test_wrong_witness_count_is_rejected():
    rng = np.random.default_rng(3)
    lam, lam6 = SQRT6 * np.exp(2.0j), SQRT6 * np.exp(0.5j)
    a, t = workloads._triple_weights(rng, coincident=True)
    H, report = gadgets.gadget_triple_eigenvalue(lam, lam6, a, t)
    assert len(report.witnesses) >= 1
    checks.check_triple(H, lam, lam6, report)
    for witnesses in (report.witnesses[1:], report.witnesses + [((0, 1), (0, 1, 2, 3))]):
        with pytest.raises(checks.WrongAnswer, match="witnesses"):
            checks.check_triple(H, lam, lam6, dataclasses.replace(report, witnesses=witnesses))


def test_verify_checks_verdict_and_profile():
    F = families.gen_fourier(6)
    good = {"verified": True, "multiplicity_profile": [2, 2, 1, 1]}
    checks.check_verify(F, 0, good, None)
    with pytest.raises(checks.WrongAnswer, match="profile"):
        checks.check_verify(F, 0, dict(good, multiplicity_profile=[3, 1, 1, 1]), None)
    with pytest.raises(checks.WrongAnswer, match="control"):
        checks.check_verify(1.01 * F, 0, good, None)
    with pytest.raises(checks.WrongAnswer, match="genuine"):
        checks.check_verify(F, 1, {"verified": False}, None)
    with pytest.raises(checks.KnownFault):
        checks.check_verify(families.gen_fourier(12), 1, {"verified": False}, "n=6 bound")


def test_cluster_profile_of_fourier_12():
    eigs = np.linalg.eigvals(families.gen_fourier(12))
    assert checks.cluster_profile(eigs) == (4, 3, 3, 2)
