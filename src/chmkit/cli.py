"""Command-line front end.

Subcommands: gen, verify, eigen, dephase, search, gadget, mub.  Output is
machine readable (JSON by default, CSV where it makes sense); exit codes are
0 = claim verified / object found, 1 = claim violated / not found,
2 = usage or input error.  The environment variable ``CHM_TOL`` overrides
the default validation tolerance; it is read on every call.

``main`` is the one place where errors become exit codes: argparse's own
usage errors, and any ``ValueError`` or ``OSError`` a command raises (a bad
file, option value or tolerance, an unwritable output path), which it
reports as one ``error:`` line on stderr with exit 2.  The commands convert
nothing.  A standard output closed by its reader is no fault: the verdict's
exit code stands and nothing goes to stderr.

``build_parser`` builds the argparse parser on the first ``main`` call and
every later call in the process reuses it, so in-process callers (tests,
scripted loops over files) do not rebuild the seven subparsers each time.
Each call parses into a fresh namespace, so no state carries over.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import core, families, gadgets, mub, search, spectral
from .core import DEFAULT_TOL, SQRT6
from .eigen import eigenvalues

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2


def _tolerance(args) -> float:
    """``--tol``, else ``CHM_TOL``, else the default; NaN, infinite or
    negative values are usage errors (an infinite tolerance passes anything)."""
    tol, source = getattr(args, "tol", None), "--tol"
    if tol is None:
        env = os.environ.get("CHM_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "CHM_TOL"
        except ValueError as exc:
            raise ValueError(f"CHM_TOL is not a number: {env!r}") from exc
    core._require_tolerance(tol, source)
    return tol


def _emit(payload, args) -> None:
    """Write a string as it is and anything else (a report, a dict) as JSON."""
    text = payload if isinstance(payload, str) else json.dumps(core._plain(payload))
    path = getattr(args, "out", None)
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone, which is no fault of the command: its exit
            # code stands, and the flush at exit goes to devnull, not the pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _unit(angle: float, option: str) -> complex:
    """e^(i angle) of an angle option, which must be finite (numpy would warn
    on an infinite one before anything rejected the NaN it gives)."""
    if not math.isfinite(angle):
        raise ValueError(f"{option} must be finite, got {angle!r}")
    return np.exp(1j * angle)


def _load_matrix(path: str) -> np.ndarray:
    """``core.read_matrix`` with the path in its error message."""
    try:
        return core.read_matrix(path)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad matrix file {path}: {exc}") from exc


def _cmd_gen(args) -> int:
    # ``--family``'s generator, given the option it reads (Haagerup: ``--q-arg``);
    # its own domain checks reject a bad value
    generator, name = families.FAMILIES[args.family]
    value = _unit(args.q_arg, "--q-arg") if name == "q" else getattr(args, name)
    _emit(core.matrix_to_json(generator(value)), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    report = spectral.verify_matrix(_load_matrix(args.matrix), tol)
    _emit(report, args)
    return EXIT_OK if report.verified else EXIT_VIOLATED


def _cmd_eigen(args) -> int:
    spec = eigenvalues(_load_matrix(args.matrix))
    if args.format == "csv":
        _emit(spec.to_csv().rstrip("\n"), args)
    else:
        _emit({"n": spec.n, "values": spec}, args)
    return EXIT_OK


def _cmd_dephase(args) -> int:
    D, _, _ = core.dephase(_load_matrix(args.matrix))
    _emit(core.matrix_to_json(D), args)
    return EXIT_OK


def _cmd_search(args) -> int:
    task = search.SearchTask(
        target=args.pattern,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        tol_success=args.tol_success,
    )
    trace_rows = [] if args.trace else None
    report = search.minimize(task, trace_rows=trace_rows)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as fh:
            fh.write("restart,iteration,residual\n")
            for r, it, f in trace_rows:
                fh.write(f"{r},{it},{f:.17g}\n")
    _emit(report, args)
    if report.conflict:
        sys.stderr.write(f"conflict: the found matrix fails verify's {report.conflict} leg\n")
    return EXIT_OK if report.found else EXIT_VIOLATED


def _cmd_gadget(args) -> int:
    name = args.name
    rng = np.random.default_rng(args.seed)  # first, so every gadget rejects a bad --seed
    if name == "tail":
        # the gadget rejects n < 4 before it reads lam; the clamp only keeps sqrt defined
        lam = math.sqrt(max(args.n, 0)) * _unit(args.lambda_arg, "--lambda-arg")
        report = gadgets.gadget_repeated_tail(args.n, lam)
    elif name == "triple":
        lam = SQRT6 * _unit(args.lambda_arg, "--lambda-arg")
        lam6 = SQRT6 * _unit(args.lambda6_arg, "--lambda6-arg")
        a, t = gadgets.random_feasible_weights(rng)
        _, report = gadgets.gadget_triple_eigenvalue(lam, lam6, a, t)
    elif name == "gram":
        report = gadgets.gadget_gram_rank()
    elif name == "rotation":
        report = gadgets.gadget_rotation_constants()
    else:  # realpair, the last of argparse's choices
        report = gadgets.gadget_real_pair_rank(*gadgets.sample_real_pair(rng))
    _emit(report, args)
    return EXIT_OK if report.verdict else EXIT_VIOLATED


def _cmd_mub(args) -> int:
    if len(args.matrices) not in (2, 3):
        raise ValueError("mub needs two or three matrix files")
    tol = _tolerance(args)
    mats = [_load_matrix(p) for p in args.matrices]
    if len(mats) == 2:
        d = mats[0].shape[0]
        r = mub.unbiasedness_residual(mats[0] / math.sqrt(d), mats[1] / math.sqrt(d), tol)
        _emit({"pair_residual": r}, args)
        return EXIT_OK if r <= tol else EXIT_VIOLATED
    report = mub.trio_check(*mats, tol=tol)
    _emit(report, args)
    return EXIT_OK if report.max_residual <= tol else EXIT_VIOLATED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``chmkit`` parser, built once per process and shared by every
    ``main`` call: callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="chmkit",
        description="Complex Hadamard matrix toolkit: generate, verify, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # the option every subcommand shares
    out.add_argument("--out", help="output path (default: stdout)")

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[out], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "generate a family member and write matrix JSON")
    p.add_argument("--family", required=True, choices=tuple(families.FAMILIES))
    p.add_argument("--n", type=int, default=6, help="dimension (fourier only)")
    p.add_argument("--omega-branch", type=int, default=1, choices=(1, 2), dest="omega_branch")
    p.add_argument("--q-arg", type=float, default=math.pi / 5, dest="q_arg",
                   help="argument of the unimodular q in radians (haagerup)")
    p.add_argument("--theta", type=float, default=math.pi, help="angle in radians (hermitian)")

    p = command("verify", _cmd_verify, "run the full verifier battery on a matrix file")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=None)

    p = command("eigen", _cmd_eigen, "dump the spectrum of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("dephase", _cmd_dephase, "write the dephased form of a matrix file")
    p.add_argument("matrix")

    p = command("search", _cmd_search, "multi-start search for a target spectrum pattern")
    p.add_argument("--pattern", required=True,
                   help='multiplicity pattern, e.g. "2,2,1,1" or "[4,1,1]"')
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=5000, dest="max_iters",
                   help="cap on the Levenberg-Marquardt steps of one restart")
    p.add_argument("--seed", type=int, required=True,
                   help="PRNG seed; mandatory so runs are reproducible")
    p.add_argument("--tol-success", type=float, default=1e-8, dest="tol_success")
    p.add_argument("--trace", help="write a CSV row per Levenberg-Marquardt step to this path")

    p = command("gadget", _cmd_gadget, "run one of the impossibility-construction gadgets")
    p.add_argument("name", choices=("tail", "triple", "gram", "rotation", "realpair"))
    p.add_argument("--n", type=int, default=6, help="dimension (tail gadget)")
    p.add_argument("--lambda-arg", type=float, default=math.pi / 2, dest="lambda_arg",
                   help="argument of the repeated eigenvalue in radians")
    p.add_argument("--lambda6-arg", type=float, default=0.5, dest="lambda6_arg",
                   help="argument of the distinct sixth eigenvalue (triple gadget)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled gadget inputs")

    p = command("mub", _cmd_mub, "unbiasedness residuals for two or three CHM files")
    p.add_argument("matrices", nargs="+", help="two or three matrix files")
    p.add_argument("--tol", type=float, default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code) if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
