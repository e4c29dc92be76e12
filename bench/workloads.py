"""The benchmark's workloads: seeded inputs, the operations on them, and checks.

One round of a workload is a fixed list of operations; a run repeats whole
rounds, so every run attempts the same operations in the same proportions.
The seed draws the inputs that do not set an operation's cost (scrambling
monomials, gadget eigenvalues and weights, control matrices) and the order
of the round.  The search seeds are a fixed list, because the time to a
search verdict depends on them far more than on anything else.

Each operation calls chmkit through a module attribute at call time (for
example ``cli.main``, not a reference bound when the round is built), so
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from chmkit import cli, families, gadgets, search

import checks

SQRT6 = math.sqrt(6.0)

FOUND_PATTERNS = ((2, 2, 1, 1), (3, 3), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))
FOUND_SEEDS = tuple(range(6))
FOUND_RESTARTS = 50

#: criterion 6's impossible patterns; one restart per operation keeps
#: operations short enough for a run to hold more than forty of them
NOTFOUND_PATTERNS = ((4, 1, 1), (4, 2))
NOTFOUND_SEEDS = tuple(range(6))
NOTFOUND_RESTARTS = 1

SCRAMBLED_COPIES = 2
FOURIER_SIZES = tuple(range(2, 17))
#: ``chmkit verify`` applies the n = 6 bound "at most a triple eigenvalue" to
#: every n, so these genuine Fourier CHMs (largest multiplicity >= 4) exit 1
VERIFY_N6_BOUND_FAULT = "verify applies the n=6 bound profile[0] <= 3 to every n"
FOURIER_FAULT_SIZES = tuple(range(12, 17))

TRIPLE_OPS = 16
TAIL_SIZES = (4, 5, 6)
TAIL_ANGLES = 32


@dataclass
class Op:
    """One operation: a timed call into chmkit, plus its independent check."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], object]
    counts: Callable[[object], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _search_call(task):
    return lambda: search.minimize(task)


def _search_fingerprint(report):
    return (report.verdict, report.best_residual, report.best_matrix.tobytes(),
            tuple((t.restart, t.iterations, t.final_residual) for t in report.traces))


def _search_counts(report):
    return {
        "search.iterations": sum(t.iterations for t in report.traces),
        "search.restarts": len(report.traces),
        "search.found": int(report.found),
    }


def _search_found(rng, workdir):
    ops = []
    for pattern in FOUND_PATTERNS:
        for seed in FOUND_SEEDS:
            task = search.SearchTask(target=pattern, restarts=FOUND_RESTARTS, seed=seed,
                                     stop_on_success=True)
            ops.append(Op(
                label=f"found-{''.join(map(str, pattern))}-seed{seed}",
                call=_search_call(task),
                check=lambda rep, p=pattern: checks.check_found(rep.verdict, rep.best_matrix, p),
                fingerprint=_search_fingerprint,
                counts=_search_counts,
            ))
    return ops


def _search_notfound(rng, workdir):
    ops = []
    for pattern in NOTFOUND_PATTERNS:
        for seed in NOTFOUND_SEEDS:
            task = search.SearchTask(target=pattern, restarts=NOTFOUND_RESTARTS, seed=seed,
                                     stop_on_success=False)
            ops.append(Op(
                label=f"notfound-{''.join(map(str, pattern))}-seed{seed}",
                call=_search_call(task),
                check=lambda rep: checks.check_not_found(
                    rep.verdict, rep.best_residual, [t.restart for t in rep.traces],
                    NOTFOUND_RESTARTS),
                fingerprint=_search_fingerprint,
                counts=_search_counts,
            ))
    return ops


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _random_monomial(rng, n):
    perm = rng.permutation(n)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    M = np.zeros((n, n), dtype=np.complex128)
    M[perm, np.arange(n)] = phases
    return M


def _controls(rng):
    """Matrices that are not CHMs, each by a margin far above any tolerance."""
    tao = families.gen_tao(1)
    tilted = tao.copy()
    tilted[2, 3] *= np.exp(1j * rng.uniform(0.05, 0.5))
    random_phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (6, 6)))
    lam = SQRT6 * np.exp(1j * rng.uniform(0.3, 2.0 * math.pi - 0.3))
    return [
        ("control-tao-tilted", tilted),
        ("control-random-phases", random_phases),
        ("control-fourier6-scaled", families.gen_fourier(6) * (1.0 + rng.uniform(1e-3, 1e-2))),
        ("control-tail-gadget", checks.tail_matrix(6, lam)),
    ]


def _write_matrix(path: Path, H: np.ndarray) -> None:
    # repr-exact floats, written without chmkit's own serializer
    path.write_text(json.dumps({"n": H.shape[0], "re": H.real.tolist(), "im": H.imag.tolist()}))


def _verify_call(path):
    argv = ["verify", str(path)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _verify_corpus(rng, workdir):
    inputs = list(families.standard_corpus())
    for name, H in families.standard_corpus():
        for k in range(SCRAMBLED_COPIES):
            inputs.append((f"scrambled-{name}-{k}",
                           _random_monomial(rng, 6) @ H @ _random_monomial(rng, 6)))
    inputs += [(f"fourier-{n}", families.gen_fourier(n)) for n in FOURIER_SIZES]
    inputs += _controls(rng)

    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (label, H) in enumerate(inputs):
        path = workdir / f"{i:03d}-{label}.json"
        _write_matrix(path, H)
        fault = (VERIFY_N6_BOUND_FAULT
                 if label in {f"fourier-{n}" for n in FOURIER_FAULT_SIZES} else None)
        ops.append(Op(
            label=label,
            call=_verify_call(path),
            check=lambda out, H=H, fault=fault: checks.check_verify(
                H, out[0], json.loads(out[1]), fault),
            fingerprint=lambda out: out,
        ))
    return ops


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------

def _triple_weights(rng, coincident: bool):
    """Feasible (a, t) for the triple gadget; ``coincident`` repeats one entry
    of the sixth eigenvector, which plants a rank-one 2x4 block."""
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    if coincident:
        i, j = rng.choice(np.arange(1, 5), 2, replace=False)
        z[j] = z[i]
    z -= z.mean()
    z /= np.linalg.norm(z)
    z *= z[0].conjugate() / abs(z[0])
    return np.abs(z), np.angle(z[1:])


def _real_pair(rng):
    """Random feasible (d, f): unit, orthogonal, entries inside the gadget's range."""
    while True:
        d = rng.uniform(0.05, 0.95, 6)
        d /= np.linalg.norm(d)
        f = rng.standard_normal(6)
        f -= d * (d @ f)
        f /= np.linalg.norm(f)
        if np.all(d < 1.0) and np.all(np.abs(f) > 1e-3) and np.all(np.abs(f) < 1.0):
            return d, f


def _triple_op(k, lam, lam6, a, t, tails):
    def call():
        H, report = gadgets.gadget_triple_eigenvalue(lam, lam6, a, t)
        return H, report, [gadgets.gadget_repeated_tail(n, z) for n, z in tails]

    def check(out):
        H, report, tail_reports = out
        checks.check_triple(H, lam, lam6, report)
        for (n, z), rep in zip(tails, tail_reports):
            checks.check_tail(n, z, rep)

    return Op(
        label=f"triple-{k}",
        call=call,
        check=check,
        fingerprint=lambda out: (out[0].tobytes(), repr(out[1]), repr(out[2])),
        counts=lambda out: {"gadgets.witnesses": len(out[1].witnesses)},
    )


def _misc_gadget_op(rng):
    d, f = _real_pair(rng)

    def call():
        return (gadgets.gadget_gram_rank(), gadgets.gadget_rotation_constants(),
                gadgets.gadget_real_pair_rank(d, f))

    def check(out):
        gram, rotation, real_pair = out
        checks.check_gram(gram)
        checks.check_rotation(rotation)
        checks.check_real_pair(d, f, real_pair)

    return Op(label="gram-rotation-realpair", call=call, check=check, fingerprint=repr)


def _gadget_sweep(rng, workdir):
    # criterion 5's tail sweep, off the real axis (at n = 4 and lam = +2 the
    # construction is a real Hadamard matrix), spread over the triple operations
    tails = []
    for n in TAIL_SIZES:
        offset = rng.uniform(-0.25, 0.25)
        tails += [(n, math.sqrt(n) * np.exp(2j * math.pi * (k + 0.5 + offset) / TAIL_ANGLES))
                  for k in range(TAIL_ANGLES)]
    per_op = len(tails) // TRIPLE_OPS
    ops = []
    for k in range(TRIPLE_OPS):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = alpha + rng.uniform(0.5, 2.0 * math.pi - 0.5)
        a, t = _triple_weights(rng, coincident=k % 2 == 1)
        ops.append(_triple_op(k, SQRT6 * np.exp(1j * alpha), SQRT6 * np.exp(1j * beta), a, t,
                              tails[k * per_op:(k + 1) * per_op]))
    ops.append(_misc_gadget_op(rng))
    return ops


BUILDERS = {
    "search_found": _search_found,
    "search_notfound": _search_notfound,
    "verify_corpus": _verify_corpus,
    "gadget_sweep": _gadget_sweep,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """One round of ``workload`` for ``seed``, in the seed's order."""
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(workload)])
    ops = BUILDERS[workload](rng, workdir)
    return [ops[i] for i in rng.permutation(len(ops))]
