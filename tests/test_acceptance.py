"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 (search calibration) runs the full 200-restart protocol
and dominates the runtime (under a second on a 2-core VM).
"""

import math
import time

import numpy as np

from chmkit.core import chm_residuals
from chmkit.eigen import Spectrum, eigenpairs, eigenvalues, spectrum_distance
from chmkit.families import (
    Q_VALUES,
    THETA_VALUES,
    gen_haagerup,
    gen_hermitian,
    gen_tao,
)
from chmkit.gadgets import (
    ProjectorCombo,
    gadget_gram_rank,
    gadget_repeated_tail,
    gadget_rotation_constants,
    gadget_triple_eigenvalue,
    random_feasible_weights,
    reconstruct_from_projectors,
)
from chmkit.search import SearchTask, gradient_check, minimize
from chmkit.spectral import multiplicity_profile, verify_constant_eigenpairs, verify_hermitian_equivalence

import oracles

SQRT6 = math.sqrt(6.0)


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_family_validity(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for name, H in corpus:
        rep = chm_residuals(H, tol=1e-10)
        assert rep.is_chm, name
        worst = max(worst, rep.unimodularity_residual, rep.unitarity_residual)
    elapsed = time.perf_counter() - t0
    assert len(corpus) == 19
    assert elapsed < 1.0
    _report(1, "family-validity", f"19 members, worst residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_reference_spectra():
    haagerup_target = Spectrum(
        np.array(
            [
                SQRT6,
                -SQRT6,
                1j - math.sqrt(5.0),
                1j + math.sqrt(5.0),
                -1 - math.sqrt(5.0) * 1j,
                -1 + math.sqrt(5.0) * 1j,
            ]
        )
    )
    worst_h = max(
        spectrum_distance(eigenvalues(gen_haagerup(q)), haagerup_target) for q in Q_VALUES
    )
    assert worst_h < 1e-9

    hermitian_target = Spectrum(np.array([SQRT6] * 3 + [-SQRT6] * 3, dtype=complex))
    worst_m = max(
        spectrum_distance(eigenvalues(gen_hermitian(th)), hermitian_target)
        for th in THETA_VALUES
    )
    assert worst_m < 1e-9

    # trace-consistent spectrum (the +-sqrt(6) pair plus two conjugate doubles)
    tao_target = Spectrum(
        np.array(
            [
                SQRT6,
                -SQRT6,
                (3 + math.sqrt(15.0) * 1j) / 2,
                (3 + math.sqrt(15.0) * 1j) / 2,
                (3 - math.sqrt(15.0) * 1j) / 2,
                (3 - math.sqrt(15.0) * 1j) / 2,
            ]
        )
    )
    worst_t = 0.0
    for branch in (1, 2):
        spec = eigenvalues(gen_tao(branch))
        worst_t = max(worst_t, spectrum_distance(spec, tao_target))
        assert abs(spec.values.sum() - 6.0) < 1e-9  # trace cross-check
    assert worst_t < 1e-9
    _report(
        2,
        "reference-spectra",
        f"haagerup {worst_h:.2e}, hermitian {worst_m:.2e}, tao {worst_t:.2e}",
    )


def test_criterion_3_constant_eigenpair_suite(corpus):
    t0 = time.perf_counter()
    worst_res, worst_first = 0.0, 0.0
    for name, H in corpus:
        rep = verify_constant_eigenpairs(H)
        assert rep.residual_plus < 1e-9, name
        assert rep.residual_minus < 1e-9, name
        assert rep.max_first_coord < 1e-8, name
        worst_res = max(worst_res, rep.residual_plus, rep.residual_minus)
        worst_first = max(worst_first, rep.max_first_coord)
    elapsed = time.perf_counter() - t0
    assert len(corpus) >= 18
    assert elapsed < 1.0
    _report(
        3,
        "constant-eigenpair-suite",
        f"worst residual {worst_res:.2e}, worst first coord {worst_first:.2e}, {elapsed:.3f}s",
    )


def test_criterion_4_hermitian_equivalence(corpus):
    all_true = []
    for name, H in corpus:
        rep = verify_hermitian_equivalence(H)
        assert rep.equivalence_holds, name
        assert rep.counterexample is None, name
        if rep.all_true:
            all_true.append(name)
    expected = [name for name, _ in corpus if name.startswith("hermitian")]
    assert all_true == expected
    _report(4, "hermitian-equivalence", f"0 counterexamples, {len(all_true)} all-true members")


def test_criterion_5_gadget_certificates():
    t0 = time.perf_counter()

    gram = gadget_gram_rank(tol=1e-8)
    assert gram.verdict and gram.details["rank"] == 5

    rot = gadget_rotation_constants()
    assert rot.verdict
    assert abs(rot.details["cos_a"] + 7.0 / 8.0) < 1e-10
    assert abs(rot.details["weight"] - 1.0 / 3.0) < 1e-10

    sweeps = 0
    for n in (4, 5, 6):
        rt = math.sqrt(n)
        for k in range(32):
            lam = rt * np.exp(2j * np.pi * (k + 0.5) / 32)
            assert gadget_repeated_tail(n, lam).verdict, (n, k)
            sweeps += 1

    rng = np.random.default_rng(2024)
    lam = SQRT6 * np.exp(2.0j)
    lam6 = SQRT6 * np.exp(0.5j)
    margins = []
    for _ in range(100):
        a, t = random_feasible_weights(rng)
        _, rep = gadget_triple_eigenvalue(lam, lam6, a, t)
        assert rep.verdict
        margins.append(rep.margin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        5,
        "gadget-certificates",
        f"gram rank 5, cos a = {rot.details['cos_a']}, {sweeps} sweep points, "
        f"100 constructions (min margin {min(margins):.3f}), {elapsed:.2f}s",
    )


def test_criterion_6_search_calibration():
    t0 = time.perf_counter()
    found_task = SearchTask(target="[2,2,1,1]", restarts=50, max_iters=5000, seed=11)
    found = minimize(found_task)
    assert found.found, "known-realizable pattern must be found"
    assert found.best_residual < 1e-8
    H = found.best_matrix
    assert chm_residuals(H, tol=1e-8).is_chm
    assert tuple(multiplicity_profile(eigenvalues(H), cluster_tol=1e-6)) == (2, 2, 1, 1)

    not_found_best = {}
    for pattern in ("[4,1,1]", "[4,2]"):
        task = SearchTask(target=pattern, restarts=200, max_iters=5000, seed=11)
        rep = minimize(task)
        assert not rep.found, pattern
        assert rep.best_residual > 1e-2, (pattern, rep.best_residual)
        assert len(rep.traces) == 200
        not_found_best[pattern] = rep.best_residual

    gap = min(not_found_best.values()) / max(found.best_residual, 1e-300)
    assert gap >= 1e5
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        6,
        "search-calibration",
        f"found {found.best_residual:.2e} (restart {found.found_restart}), "
        f"not-found {not_found_best['[4,1,1]']:.2e} / {not_found_best['[4,2]']:.2e}, "
        f"gap {gap:.1e}, {elapsed:.2f}s",
    )


def test_criterion_7_eigensolver_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ours = eigenvalues(A)
        oracle = Spectrum(oracles.companion_spectrum(A))
        worst = max(worst, spectrum_distance(ours, oracle))
    assert worst < 1e-7

    worst_grad = max(
        gradient_check(rng.uniform(0.0, 2.0 * math.pi, 25)) for _ in range(20)
    )
    assert worst_grad < 1e-5
    _report(
        7,
        "eigensolver-oracle",
        f"100 matrices worst distance {worst:.2e}, 20 gradients worst {worst_grad:.2e}",
    )


def test_criterion_8_spectral_round_trip(corpus):
    worst = 0.0
    for name, H in corpus:
        combo = ProjectorCombo.from_pairs(eigenpairs(H))
        R = reconstruct_from_projectors(combo)
        dev = float(np.max(np.abs(R - H)))
        assert dev < 1e-8, name
        worst = max(worst, dev)
    _report(8, "spectral-round-trip", f"19 members, worst entrywise deviation {worst:.2e}")
