"""Benchmark of chmkit's verdicts.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_corpus --seed 1 --seconds 20 --trace 0

Workloads: search_found, search_notfound, verify_corpus, gadget_sweep (see
README.md).  The run builds one round of the workload from the seed, repeats
whole rounds for at least ``--seconds`` seconds of operations, checks the
outputs against computations made apart from chmkit, and prints one JSON
object as the last line of standard output.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs every operation once
untraced and once traced, in alternating order, and reports per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

# chmkit's matrices are at most 16 x 16: one BLAS thread, one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("search_found", "search_notfound", "verify_corpus", "gadget_sweep")
#: set-up is timed in this many fresh interpreters, plus the run's own
SETUP_PROBES = 6
WARMUP_OPS = 3
#: the host's speed changes by up to a factor of two within seconds, so every
#: timing is scaled by a reference kernel run around it (and, for longer
#: calls, every SAMPLE_INTERVAL_S during it) to a host on which the kernel
#: takes REFERENCE_S
REFERENCE_S = 0.5e-3
SAMPLE_INTERVAL_S = 0.05

#: per-layer spans reported with --trace 1, as <module>.<function>
TRACED_FUNCTIONS = (
    "search.minimize", "search.objective", "search.pattern_penalty", "search.chm_gradient",
    "search.phases_to_matrix",
    "eigen.eigenvalues", "eigen.eigenpairs", "eigen.cluster_indices",
    "spectral.verify_constant_eigenpairs", "spectral.verify_hermitian_equivalence",
    "spectral.multiplicity_profile",
    "core.rank_one_submatrix_scan", "core.numerical_rank", "core.singular_values",
    "core.chm_residuals", "core.dephase", "core.read_matrix", "core.as_matrix",
    "gadgets.gadget_triple_eigenvalue", "gadgets.gadget_repeated_tail",
    "gadgets.gadget_gram_rank", "gadgets.gadget_rotation_constants",
    "gadgets.gadget_real_pair_rank",
    "cli.main",
)
#: work counts taken from chmkit's own reports, per operation
WORK_COUNTS = ("search.iterations", "search.restarts", "gadgets.witnesses")


def _load_round(workload: str, seed: int, workdir: Path) -> list:
    """Import chmkit from this checkout's sources and build one round."""
    src = ROOT / "src"
    if not (src / "chmkit" / "__init__.py").is_file():
        sys.exit(f"error: no chmkit sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import chmkit

    if Path(chmkit.__file__).resolve().parent != (src / "chmkit").resolve():
        sys.exit(f"error: chmkit was imported from {chmkit.__file__}, not from {src}")
    import workloads

    return workloads.build(workload, seed, workdir)


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports plus input generation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up probe exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


class Clock:
    """Times calls and scales each time to the reference host speed.

    A fixed kernel of small numpy operations, independent of chmkit and
    alike in kind to its work, runs between consecutive timed calls and
    every ``SAMPLE_INTERVAL_S`` during a call (from a SIGALRM handler; its
    time is taken off the call's).  A call's time is multiplied by
    ``REFERENCE_S`` over the mean kernel time of those runs.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._np = np
        self.raw_s = 0.0
        self.reference: list = []
        #: called with the time of each sample taken during a call
        self.on_sample = None
        self._inside: list = []
        signal.signal(signal.SIGALRM, self._sample)
        self._last = self._kernel()

    def _kernel(self) -> float:
        np, A = self._np, self._A
        t0 = time.perf_counter()
        for _ in range(8):
            B = A @ A.conj().T
            np.abs(B).sum()
            np.exp(1j * np.angle(B))
            np.linalg.eigvals(B)
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        dt = self._kernel()
        self._inside.append(dt)
        if self.on_sample is not None:
            self.on_sample(dt)

    def scale(self, raw_s: float, inside=()) -> float:
        """Scale a time measured since the last kernel run; runs the kernel again."""
        before, self._last = self._last, self._kernel()
        self.reference.append(self._last)
        samples = [before, self._last, *inside]
        self.factor = REFERENCE_S * len(samples) / sum(samples)
        self.raw_s += raw_s
        return raw_s * self.factor

    def time(self, fn):
        self._inside = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        raw_s = time.perf_counter() - t0 - sum(self._inside)
        return self.scale(raw_s, self._inside), out


class Executions:
    """Runs operations and keeps what is needed to check every execution.

    The first execution of each operation is kept for the full check;
    later executions are compared with it by fingerprint, and any that
    differs is kept and checked in full as well.
    """

    def __init__(self, ops: list, clock: Clock):
        self.ops = ops
        self.clock = clock
        self.kept: list = []  # (op index, output) checked in full
        self._first: dict = {}  # op index -> (position in kept, fingerprint)
        self.runs: list = []  # position in kept, per execution

    def run(self, i: int):
        op = self.ops[i]
        latency, out = self.clock.time(op.call)
        fingerprint = op.fingerprint(out)
        if i in self._first and self._first[i][1] == fingerprint:
            self.runs.append(self._first[i][0])
        else:
            self._first.setdefault(i, (len(self.kept), fingerprint))
            self.runs.append(len(self.kept))
            self.kept.append((i, out))
        return latency, out

    def verdicts(self, checks) -> tuple:
        """(correct, failed executions, messages) from the independent checks."""
        status, messages = [], []
        for i, out in self.kept:
            try:
                self.ops[i].check(out)
                status.append("ok")
            except checks.KnownFault as fault:
                status.append("failed")
                messages.append(f"failed {self.ops[i].label}: {fault}")
            except checks.WrongAnswer as wrong:
                status.append("wrong")
                messages.append(f"WRONG {self.ops[i].label}: {wrong}")
        failed = sum(status[k] == "failed" for k in self.runs)
        return "wrong" not in status, failed, messages


def _warm_up(ops: list) -> None:
    for op in ops[:WARMUP_OPS]:
        op.call()
    gc.collect()


def _measure(ex: Executions, seconds: float) -> list:
    """Whole rounds until ``seconds`` of operation time have passed; latencies."""
    latencies: list = []
    ex.clock.raw_s = 0.0
    while ex.clock.raw_s < seconds:
        for i in range(len(ex.ops)):
            latencies.append(ex.run(i)[0])
    return latencies


def _measure_traced(ex: Executions, seconds: float, workload: str, seed: int) -> dict:
    """Each operation untraced and traced, alternating which goes first."""
    from tracer import Tracer

    tracer = Tracer()
    ex.clock.on_sample = tracer.absorb
    plain, traced, records = [], [], []
    calls: dict = {}
    selfs: dict = {}
    counts: dict = {}
    ex.clock.raw_s = 0.0
    while ex.clock.raw_s < seconds:
        for i, op in enumerate(ex.ops):
            order = (False, True) if len(plain) % 2 else (True, False)
            for with_trace in order:
                if not with_trace:
                    plain.append(ex.run(i)[0])
                    continue
                tracer.install()
                tracer.take()
                try:
                    latency, out = ex.run(i)
                finally:
                    tracer.uninstall()
                op_calls, op_self = tracer.take()
                op_self = {name: t * ex.clock.factor for name, t in op_self.items()}
                if sum(op_self.values()) > latency * (1.0 + 1e-9):
                    sys.exit(f"error: spans of {op.label} exceed its latency")
                traced.append(latency)
                for name, c in op_calls.items():
                    calls[name] = calls.get(name, 0) + c
                    selfs[name] = selfs.get(name, 0.0) + op_self[name]
                op_counts = op.counts(out)
                for name, c in op_counts.items():
                    counts[name] = counts.get(name, 0) + c
                records.append({"op": op.label, "latency_s": latency, "counts": op_counts,
                                "calls": op_calls, "self_s": op_self})
    n = len(traced)
    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_ms"] = (1e3 * selfs.get(name, 0.0) / n, "ms")
    for name in WORK_COUNTS:
        metrics[name] = (counts.get(name, 0) / n, "count")
    restarts = counts.get("search.restarts", 0)
    metrics["search.found_per_restart"] = (
        counts.get("search.found", 0) / restarts if restarts else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (100.0 * (sum(traced) / sum(plain) - 1.0), "%")
    metrics["trace.attributed_share"] = (sum(selfs.values()) / sum(traced), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w", encoding="ascii") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": records}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        ops = _load_round(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        import checks

        clock = Clock()
        if not args.trace:
            setups = [clock.scale(setup_s)] + [
                clock.scale(_probe_setup(args.workload, args.seed))
                for _ in range(SETUP_PROBES)]
        ex = Executions(ops, clock)
        _warm_up(ops)
        if args.trace:
            metrics = _measure_traced(ex, args.seconds, args.workload, args.seed)
        else:
            latencies = _measure(ex, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
                              "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
        correct, failed, messages = ex.verdicts(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in messages[:20]:
        sys.stderr.write(line + "\n")
    rounds = len(ex.runs) // len(ops) // (2 if args.trace else 1)
    sys.stderr.write(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} "
                     f"operations, {failed} failed, correct={correct}; "
                     f"{clock.raw_s:.1f} s of operations, reference kernel median "
                     f"{1e3 * statistics.median(clock.reference):.3f} ms\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ex.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
