import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chmkit import cli, core, eigen
from chmkit.families import gen_fourier, gen_tao, standard_corpus

OMEGA = np.exp(2j * np.pi / 3)
SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def tao_file(tmp_path):
    path = tmp_path / "tao.json"
    path.write_text(core.matrix_to_json(gen_tao(1)))
    return str(path)


class TestGen:
    def test_tao_has_marked_entry(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _ = run(capsys, "gen", "--family", "tao", "--out", str(out_path))
        assert code == 0
        H = core.read_matrix(out_path)
        assert H[1, 2] == pytest.approx(OMEGA)

    def test_haagerup_round_trips_through_verify(self, capsys, tmp_path):
        out_path = tmp_path / "h.json"
        code, _ = run(capsys, "gen", "--family", "haagerup", "--q-arg", "0.3", "--out", str(out_path))
        assert code == 0
        code, out = run(capsys, "verify", str(out_path))
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_hermitian_out_of_domain_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "--family", "hermitian", "--theta", "9")
        assert code == 2

    def test_builds_the_member_once(self, capsys, monkeypatch):
        calls = []
        generator = cli.families.gen_fourier

        def counted(n):
            calls.append(n)
            return generator(n)

        monkeypatch.setitem(cli.families.FAMILIES, "fourier", (counted, "n"))
        code, out = run(capsys, "gen", "--family", "fourier", "--n", "5")
        assert code == 0 and calls == [5]
        assert np.array_equal(core.matrix_from_json(out), generator(5))

    def test_stdout_is_valid_matrix_json(self, capsys):
        code, out = run(capsys, "gen", "--family", "fourier", "--n", "4")
        assert code == 0
        H = core.matrix_from_json(out)
        assert H.shape == (4, 4)


class TestVerify:
    def test_tao_file(self, capsys, tao_file):
        code, out = run(capsys, "verify", tao_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["multiplicity_profile"] == [2, 2, 1, 1]
        assert payload["failed"] is None

    def test_identity_matrix_fails(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(core.matrix_to_json(np.eye(6, dtype=complex)))
        code, out = run(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["verified"] is False
        assert json.loads(out)["failed"] == "chm"

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "re": [[1, 1], [1')
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "eigen", "dephase", "mub"])
    @pytest.mark.parametrize("text, message", [
        ('{"n": 1, "re": [[%s]], "im": [[0]]}' % ("9" * 400),
         "matrix contains an integer entry too large for a float"),
        ("[" * 100000, "JSON nested too deeply to parse"),
    ], ids=["huge-integer", "deep-nesting"])
    def test_out_of_range_file_is_usage_error(self, capsys, tmp_path, command, text, message):
        # once a traceback and exit 1, which reads as "claim violated"
        path = tmp_path / "bad.json"
        path.write_text(text)
        files = [str(path)] * (2 if command == "mub" else 1)
        code = cli.main([command, *files])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: bad matrix file {path}: {message}\n"

    def test_one_by_one_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"n": 1, "re": [[1]], "im": [[0]]}')
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the constant eigenpairs need n >= 2, got 1\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "/nonexistent/nope.json")
        assert code == 2

    @pytest.mark.parametrize("k", range(2, 17))
    def test_fourier_is_verified_at_every_size(self, capsys, tmp_path, k):
        # F12-F16 have an eigenvalue of multiplicity 4 or 5; the "at most
        # triple" bound is an n = 6 theorem and must not reject them
        path = tmp_path / f"f{k}.json"
        code, _ = run(capsys, "gen", "--family", "fourier", "--n", str(k), "--out", str(path))
        assert code == 0
        code, out = run(capsys, "verify", str(path))
        assert code == 0, json.loads(out)
        assert json.loads(out)["verified"] is True

    def test_chm_tol_env_override(self, capsys, tmp_path, monkeypatch):
        S = gen_tao(1) + 1e-6  # small additive damage
        path = tmp_path / "damaged.json"
        path.write_text(core.matrix_to_json(S))
        code, _ = run(capsys, "verify", str(path))
        assert code == 1
        monkeypatch.setenv("CHM_TOL", "1e-3")
        code, _ = run(capsys, "verify", str(path))
        assert code == 0

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1"])
    def test_non_finite_or_negative_tol_is_usage_error(self, capsys, tmp_path, tol):
        # an infinite tolerance would certify a Gaussian random matrix
        path = tmp_path / "random.json"
        path.write_text(core.matrix_to_json(np.random.default_rng(0).standard_normal((6, 6)) + 0j))
        code = cli.main(["verify", str(path), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--tol must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-3"])
    def test_non_finite_or_negative_chm_tol_is_usage_error(self, capsys, tao_file, monkeypatch, tol):
        monkeypatch.setenv("CHM_TOL", tol)
        code = cli.main(["verify", tao_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "CHM_TOL must be finite and nonnegative" in captured.err

    def test_zero_tol_is_not_a_usage_error(self, capsys, tao_file):
        code, out = run(capsys, "verify", tao_file, "--tol", "0")
        assert code != 2
        assert "verified" in json.loads(out)

    def test_convergence_error_is_a_verifier_error(self, capsys, tao_file, monkeypatch):
        def fail(*args, **kwargs):
            raise eigen.ConvergenceError("QR iteration did not converge")

        monkeypatch.setattr(eigen, "_schur", fail)
        code, out = run(capsys, "verify", tao_file)
        assert code == 1
        payload = json.loads(out)
        assert payload["verified"] is False
        assert payload["verifier_error"] == "QR iteration did not converge"
        assert payload["failed"] == "verifier_error"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_verdict_survives_monomial_equivalence(self, seed):
        # P H Q is a CHM whenever H is.  Its dephased form, and so the
        # reported profile, may differ from H's: compare with numpy's
        # eigenvalues of the scrambled matrix's own dephased form instead
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            src, dst = os.path.join(tmp, "m.json"), os.path.join(tmp, "out.json")
            for name, H in standard_corpus():
                n = H.shape[0]
                P, Q = (
                    core.MonomialUnitary(
                        n=n, perm=tuple(rng.permutation(n)),
                        phases=tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, n))),
                    )
                    for _ in range(2)
                )
                S = core.apply_equivalence(H, P, Q)
                Path(src).write_text(core.matrix_to_json(S))
                assert cli.main(["verify", src, "--out", dst]) == 0, name
                with open(dst, encoding="ascii") as fh:
                    payload = json.load(fh)
                assert payload["verified"] is True, name
                if n == 6:
                    D = S / S[:, :1]
                    D = D / D[:1, :]
                    expected = oracles.cluster_profile(np.linalg.eigvals(D), 1e-6)
                    assert payload["multiplicity_profile"] == expected, name
                    assert max(payload["multiplicity_profile"]) <= 3, name


class TestEigenAndDephase:
    def test_eigen_csv(self, capsys, tao_file):
        code, out = run(capsys, "eigen", tao_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        re0, im0 = map(float, lines[0].split(","))
        assert re0 == pytest.approx(math.sqrt(6.0))
        assert im0 == pytest.approx(0.0, abs=1e-12)

    def test_eigen_json(self, capsys, tao_file):
        code, out = run(capsys, "eigen", tao_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        values = eigen.eigenvalues(gen_tao(1)).values
        assert payload["values"] == [[v.real, v.imag] for v in values]

    def test_dephase_round_trip(self, capsys, tmp_path):
        S = np.diag(np.exp(1j * np.arange(6))) @ gen_tao(1)
        path = tmp_path / "scaled.json"
        path.write_text(core.matrix_to_json(S))
        code, out = run(capsys, "dephase", str(path))
        assert code == 0
        D = core.matrix_from_json(out)
        assert np.max(np.abs(D - gen_tao(1))) < 1e-12


class TestSearch:
    def test_findable_pattern_exits_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out = run(
            capsys, "search", "--pattern", "2,2,1,1", "--restarts", "12",
            "--max-iters", "2000", "--seed", "1", "--trace", str(trace),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "found"
        assert payload["best_residual"] < 1e-8
        header, *rows = trace.read_text().strip().splitlines()
        assert header == "restart,iteration,residual"
        assert rows

    def test_trace_has_one_row_per_reported_iteration(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out = run(
            capsys, "search", "--pattern", "4,2", "--restarts", "3",
            "--seed", "2", "--trace", str(trace),
        )
        assert code == 1
        _, *rows = trace.read_text().strip().splitlines()
        per_restart = [int(row.split(",")[0]) for row in rows]
        reported = {r: iters for r, _, _, iters in json.loads(out)["trace"]}
        assert len(reported) == 3
        assert {r: per_restart.count(r) for r in reported} == reported

    def test_impossible_pattern_exits_one(self, capsys):
        code, out = run(
            capsys, "search", "--pattern", "4,1,1", "--restarts", "2",
            "--max-iters", "120", "--seed", "1",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "not-found"

    def test_pattern_sum_is_the_search_size(self, capsys):
        # [7] has no placement of +-sqrt(7) into two blocks, so it is never found
        code, out = run(capsys, "search", "--pattern", "7", "--restarts", "2", "--seed", "1")
        assert code == 1
        assert json.loads(out)["task"]["n"] == 7

    def test_pattern_below_two_is_usage_error(self, capsys):
        code, _ = run(capsys, "search", "--pattern", "1", "--seed", "1")
        assert code == 2

    def test_seed_is_mandatory(self, capsys):
        code = cli.main(["search", "--pattern", "2,2,1,1"])
        assert code == 2


class TestGadget:
    def test_gram(self, capsys):
        code, out = run(capsys, "gadget", "gram")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["details"]["rank"] == 5

    def test_rotation_reports_cos(self, capsys):
        code, out = run(capsys, "gadget", "rotation")
        assert code == 0
        payload = json.loads(out)
        assert payload["details"]["cos_a"] == -0.875
        assert set(payload["residuals"].values()) == {0.0}

    def test_tail_at_quarter_turn(self, capsys):
        code, out = run(capsys, "gadget", "tail", "--n", "6", "--lambda-arg", "1.5708")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("n", ["-3", "0", "3"])
    def test_tail_below_four_is_usage_error(self, capsys, n):
        code = cli.main(["gadget", "tail", "--n", n])
        err = capsys.readouterr().err
        assert code == 2
        assert f"construction needs n >= 4, got {n}" in err

    def test_tail_nan_angle_is_usage_error(self, capsys):
        code = cli.main(["gadget", "tail", "--lambda-arg", "nan"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --lambda-arg must be finite, got nan\n"

    def test_tail_at_large_n(self, capsys):
        code, out = run(capsys, "gadget", "tail", "--n", "40000")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_triple_seeded(self, capsys):
        code, out = run(capsys, "gadget", "triple", "--seed", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_realpair_seeded(self, capsys):
        code, out = run(capsys, "gadget", "realpair", "--seed", "3")
        assert code == 0
        assert json.loads(out)["details"]["branch"] == "rank-4-unsatisfiable"

    def test_unknown_gadget_is_usage_error(self, capsys):
        code = cli.main(["gadget", "nonsense"])
        assert code == 2


class TestMub:
    def test_trio(self, capsys, tao_file, tmp_path):
        f_path = tmp_path / "f6.json"
        f_path.write_text(core.matrix_to_json(cli.families.gen_fourier(6)))
        code, out = run(capsys, "mub", tao_file, str(f_path), str(f_path))
        assert code == 1  # F6 is not unbiased to itself, nor Tao to F6
        payload = json.loads(out)
        # dephased CHMs share the all-ones column, so (H1, H2) already ties
        # the identical pair (H2, H3) and wins the deterministic tie-break
        assert payload["worst_pair"] == ["H1", "H2"]
        assert payload["max_residual"] == pytest.approx(1.0 - 1.0 / math.sqrt(6.0))
        assert run(capsys, "mub", tao_file, str(f_path), str(f_path), "--tol", "0.6")[0] == 0

    @staticmethod
    def _unbiased_trio(tmp_path):
        # {F3, D F3, D^2 F3} with D = diag(1, w, w) is, with I, a complete
        # set of four mutually unbiased bases in dimension 3
        F3 = cli.families.gen_fourier(3)
        D = np.diag([1.0, OMEGA, OMEGA])
        paths = []
        for k, M in enumerate((F3, D @ F3, D @ D @ F3)):
            paths.append(str(tmp_path / f"b{k}.json"))
            Path(paths[-1]).write_text(core.matrix_to_json(M))
        return paths

    def test_unbiased_trio(self, capsys, tmp_path):
        code, out = run(capsys, "mub", *self._unbiased_trio(tmp_path))
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-12

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_trio_rejects_non_finite_or_negative_tol(self, capsys, tmp_path, monkeypatch, tol):
        paths = self._unbiased_trio(tmp_path)
        code = cli.main(["mub", *paths, f"--tol={tol}"])
        assert code == 2 and capsys.readouterr().out == ""
        monkeypatch.setenv("CHM_TOL", tol)
        code = cli.main(["mub", *paths])
        assert code == 2 and capsys.readouterr().out == ""

    def test_pair_residual(self, capsys, tao_file):
        code, out = run(capsys, "mub", tao_file, tao_file)
        assert code == 1  # identical bases are not unbiased
        assert json.loads(out)["pair_residual"] == pytest.approx(1.0 - 1.0 / math.sqrt(6.0))

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_pair_rejects_non_finite_or_negative_tol(self, capsys, tao_file, monkeypatch, tol):
        code = cli.main(["mub", tao_file, tao_file, f"--tol={tol}"])
        assert code == 2 and capsys.readouterr().out == ""
        monkeypatch.setenv("CHM_TOL", tol)
        code = cli.main(["mub", tao_file, tao_file])
        assert code == 2 and capsys.readouterr().out == ""

    def test_wrong_count_is_usage_error(self, capsys, tao_file):
        code = cli.main(["mub", tao_file])
        assert code == 2

    @pytest.mark.parametrize("count", [2, 3], ids=["pair", "trio"])
    def test_unitarity_is_checked_at_the_commands_tolerance(
            self, capsys, tmp_path, monkeypatch, count):
        # F6, F6 with 1e-9 phase noise (a basis once divided by sqrt 6, and
        # unitary to about 3e-9, not to the default 1e-10) and F6^T
        F6 = cli.families.gen_fourier(6)
        noisy = F6 * np.exp(1e-9j * np.random.default_rng(7).standard_normal(F6.shape))
        paths = [str(tmp_path / f"m{k}.json") for k in range(count)]
        for M, path in zip((F6, noisy, F6.T), paths):
            Path(path).write_text(core.matrix_to_json(M))
        monkeypatch.setenv("CHM_TOL", "1e-6")
        code = cli.main(["mub", *paths])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""  # a report: no basis is unbiased to F6
        assert json.loads(captured.out)
        monkeypatch.delenv("CHM_TOL")
        code = cli.main(["mub", *paths])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "not unitary within 1e-10" in lines[0]


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_out_does_not_carry_over(self, capsys, tao_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", tao_file, "--out", str(out_path))
        assert code == 0 and out == ""
        code, out = run(capsys, "verify", tao_file)
        assert code == 0
        assert json.loads(out) == json.loads(out_path.read_text())

    def test_usage_error_then_valid_call(self, capsys, tao_file):
        assert run(capsys, "verify", tao_file, "--no-such-flag")[0] == 2
        assert run(capsys, "verify")[0] == 2
        assert run(capsys, "verify", tao_file)[0] == 0

    def test_tolerance_is_read_per_call(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "damaged.json"
        path.write_text(core.matrix_to_json(gen_tao(1) + 1e-6))
        assert run(capsys, "verify", str(path), "--tol", "1e-3")[0] == 0
        # neither --tol nor the environment of an earlier call carries over
        assert run(capsys, "verify", str(path))[0] == 1
        monkeypatch.setenv("CHM_TOL", "1e-3")
        assert run(capsys, "verify", str(path))[0] == 0
        monkeypatch.delenv("CHM_TOL")
        assert run(capsys, "verify", str(path))[0] == 1


def test_python_dash_m_exit_codes(tao_file, tmp_path):
    eye = tmp_path / "eye.json"
    eye.write_text(core.matrix_to_json(np.eye(6, dtype=complex)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    codes = [
        subprocess.run([sys.executable, "-m", "chmkit", "verify", str(path)],
                       env=env, capture_output=True, timeout=120).returncode
        for path in (tao_file, eye, tmp_path / "missing.json")
    ]
    assert codes == [0, 1, 2]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_keeps_the_verdicts_exit_code(tmp_path, unbuffered):
    # stdout is a pipe whose reader has gone (as under ``| head -1`` once
    # head exits): no fault of the command, so its verdict's exit code
    # stands with nothing on stderr, while an unwritable --out still exits 2
    f16 = tmp_path / "f16.json"
    f16.write_text(core.matrix_to_json(gen_fourier(16)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cases = [
        (["eigen", str(f16), "--format", "csv"], 0),
        (["verify", str(f16)], 0),
        (["search", "--pattern", "4,2", "--restarts", "2", "--seed", "0"], 1),
        (["verify", str(f16), "--out", str(tmp_path / "missing" / "out.json")], 2),
    ]
    for argv, code in cases:
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "chmkit", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == code, (argv, done.stderr)
        if code == 2:
            assert done.stderr.decode().startswith("error: "), argv
        else:
            assert done.stderr == b"", argv


#: argv templates that each fail on a usage, input or output fault; {tao} is
#: a valid matrix file and {missing} a path under a directory that does not
#: exist
FAULTS = {
    "search-negative-seed": ["search", "--pattern", "2,2,1,1", "--seed", "-1"],
    **{f"gadget-{name}-negative-seed": ["gadget", name, "--seed", "-1"]
       for name in ("gram", "tail", "triple", "rotation", "realpair")},
    "gen-out": ["gen", "--family", "tao", "--out", "{missing}"],
    "verify-out": ["verify", "{tao}", "--out", "{missing}"],
    "eigen-out": ["eigen", "{tao}", "--out", "{missing}"],
    "dephase-out": ["dephase", "{tao}", "--out", "{missing}"],
    "search-out": ["search", "--pattern", "4,1,1", "--restarts", "1", "--max-iters", "5",
                   "--seed", "1", "--out", "{missing}"],
    "gadget-out": ["gadget", "gram", "--out", "{missing}"],
    "mub-out": ["mub", "{tao}", "{tao}", "--out", "{missing}"],
    "search-trace": ["search", "--pattern", "4,1,1", "--restarts", "1", "--max-iters", "5",
                     "--seed", "1", "--trace", "{missing}"],
    "gen-haagerup-nan": ["gen", "--family", "haagerup", "--q-arg", "nan"],
    "gen-haagerup-inf": ["gen", "--family", "haagerup", "--q-arg", "inf"],
    "gadget-tail-inf": ["gadget", "tail", "--lambda-arg", "inf"],
    "gadget-triple-inf": ["gadget", "triple", "--lambda6-arg", "inf"],
    "search-nan-tol-success": ["search", "--pattern", "2,2,1,1", "--seed", "1",
                               "--tol-success", "nan"],
}


@pytest.mark.parametrize("argv", FAULTS.values(), ids=FAULTS)
def test_fault_is_one_error_line_and_exit_two(capsys, tao_file, tmp_path, argv):
    paths = {"tao": tao_file, "missing": str(tmp_path / "missing" / "out")}
    code = cli.main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("fault", ["gen-haagerup-inf", "gadget-tail-inf", "gadget-triple-inf"])
def test_infinite_angle_is_rejected_before_numpy_warns(capsys, fault):
    # as under python -W error::RuntimeWarning: a warning would raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(FAULTS[fault])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err.splitlines() == [captured.err.strip()]
    assert "must be finite" in captured.err


def test_out_is_declared_once_for_every_subcommand():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    outs = [sub._option_string_actions["--out"] for sub in subparsers.choices.values()]
    # the seven subcommands share one --out action from a parent parser
    assert len(outs) == 7 and all(out is outs[0] for out in outs)


def test_gadget_angles_are_gone(capsys):
    assert cli.main(["gadget", "realpair", "--a", "0.3"]) == cli.EXIT_USAGE
    assert cli.main(["gadget", "realpair", "--b", "-2.5"]) == cli.EXIT_USAGE
