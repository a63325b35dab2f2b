"""The benchmark's four workloads: one operation each, its inputs and its checks.

An operation is one pass through a workload's fixed call sequence.  CLI calls
go through ``framecrypt.cli.main(argv)`` in-process with stdout captured; the
rest call the public library functions.  Inputs come only from the operation
seed.  ``check`` runs after an operation's timer has stopped and returns a
list of problems (empty when the outputs are correct).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

import framecrypt
from framecrypt import cli, linalg, privacy, workspace
from framecrypt.channel import reduced_map_f

F_ROUTE_TOL = 1e-9
TWIRL_GAP_TOL = 1e-10
NORM_TOL = 1e-10
CERTIFY_EPSILON = 0.6
CERTIFY_SUBSPACES = 8
CERTIFY_PROBES = 20
F_ROUTE_STATES = 2

PAYLOAD_FIELDS = {
    "concentration": {"n_samples", "mean_f", "median_f", "tail", "levy_bound", "fitted_c"},
    "lipschitz": {"n_pairs", "max_ratio", "max_ratio_nearby", "bound"},
    "mean-f": {"n_samples", "mean_f", "median_f", "std_f", "bound_inv_sqrt_alpha", "bound_ratio"},
    "twirl-check": {"n", "n_states", "quadrature", "quadrature_sufficient", "max_trace_norm_gap"},
}


@dataclass
class CliRun:
    argv: list
    code: int
    stdout: str


def cli_call(argv: list) -> CliRun:
    """``framecrypt.cli.main(argv)`` with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliRun(argv, code, out.getvalue())


def check_cli(run: CliRun) -> tuple[list[str], dict | None]:
    """Exit code 0, a JSON document, and the command's payload fields."""
    if run.code != 0:
        return [f"{' '.join(run.argv)}: exit code {run.code}"], None
    try:
        payload = json.loads(run.stdout)["payload"]
    except (ValueError, KeyError) as exc:
        return [f"{' '.join(run.argv)}: unreadable output ({exc})"], None
    command = run.argv[run.argv.index("--command") + 1]
    missing = PAYLOAD_FIELDS[command] - payload.keys()
    if missing:
        return [f"{' '.join(run.argv)}: payload lacks {sorted(missing)}"], payload
    return [], payload


def check_f_routes(ws, op_seed: int) -> list[str]:
    """f_eval against trace_norm(reduced_map_f(phi) - I/d_p) on seeded states."""
    problems = []
    ref = np.eye(ws.d_p) / ws.d_p
    for i in range(F_ROUTE_STATES):
        phi = linalg.random_pure_state(ws.k, linalg.derived_rng(op_seed, 101, i))
        fast = privacy.f_eval(phi, ws)
        slow = linalg.trace_norm(reduced_map_f(phi, ws) - ref)
        if not abs(fast - slow) <= F_ROUTE_TOL:
            problems.append(f"f_eval {fast!r} != reduced-map route {slow!r} at n={ws.n}")
    return problems


class SampleWorkload:
    """CLI sampling experiments; ``calls`` are argv lists without ``--seed``."""

    def __init__(self, calls):
        self.calls = calls

    @cached_property
    def spaces(self):
        """The working spaces the calls sample, built once for the checks."""
        ns = sorted({int(argv[argv.index("--n") + 1]) for argv in self.calls})
        return [workspace.build_working_space(n, 2.0) for n in ns]

    def inputs(self, op_seed: int):
        return [argv + ["--seed", str(op_seed)] for argv in self.calls]

    def run(self, inputs):
        return [cli_call(argv) for argv in inputs]

    def check(self, result, op_seed: int) -> list[str]:
        problems = []
        for run in result:
            problems += check_cli(run)[0]
        for ws in self.spaces:
            problems += check_f_routes(ws, op_seed)
        return problems

    @staticmethod
    def stdout_bytes(result) -> int:
        return sum(len(run.stdout.encode()) for run in result)

    @staticmethod
    def certified_gap(result):
        return None


class CertifyWorkload:
    """Certified worst-case f on random 2-dimensional subspaces of ws(12, 2).

    One operation certifies ``CERTIFY_SUBSPACES`` subspaces, as a batch
    experiment does; the time of a single one varies by tens of percent with
    its seed (how long the net's greedy fill and probe rounds run), and a
    batch per operation keeps that from dominating a run's median.
    """

    def inputs(self, op_seed: int):
        return [int(linalg.derived_rng(op_seed, k).integers(2**63)) for k in range(CERTIFY_SUBSPACES)]

    def run(self, seeds):
        ws = framecrypt.build_working_space(12, 2.0)
        out = []
        for seed in seeds:
            sub = framecrypt.sample_subspace(ws, 2, seed)
            lower, certified = framecrypt.estimate_max_f(
                sub, ws, budget=60, seed=seed, net_epsilon=CERTIFY_EPSILON
            )
            out.append((sub, lower, certified))
        return ws, out

    def check(self, result, op_seed: int) -> list[str]:
        ws, estimates = result
        problems = []
        for k, (sub, lower, certified) in enumerate(estimates):
            if certified is None:
                problems.append(f"subspace {k}: no certified bound in dimension 2")
                continue
            if not lower <= certified:
                problems.append(f"subspace {k}: lower bound {lower!r} exceeds certified {certified!r}")
            # certified = net max + epsilon and lower >= net max, so a wider
            # gap means a looser certificate than the requested resolution
            if not certified - lower <= CERTIFY_EPSILON + 1e-12:
                problems.append(f"subspace {k}: gap {certified - lower!r} exceeds epsilon {CERTIFY_EPSILON}")
            rng = linalg.derived_rng(op_seed, 202, k)
            coeffs = linalg.random_pure_state(2, rng, size=CERTIFY_PROBES)
            worst = max(privacy.f_eval(sub.basis @ c, ws) for c in coeffs)
            if not worst <= certified + 1e-9:
                problems.append(f"subspace {k}: probe f {worst!r} exceeds certified {certified!r}")
        return problems

    @staticmethod
    def stdout_bytes(result) -> int:
        return 0

    @staticmethod
    def certified_gap(result):
        """Mean of certified upper bound minus lower bound over the subspaces."""
        return sum(c - lo for _, lo, c in result[1]) / len(result[1])


class ExactChannelWorkload:
    """Exact channel against its quadrature average, then a dense embedding."""

    TWIRL_ARGV = ["--command", "twirl-check", "--n", "6", "--samples", "2"]

    def __init__(self):
        self.ws = workspace.build_working_space(12, 2.0)

    @cached_property
    def columns(self):
        """The transform's columns at the working-space positions.

        The transform is unitary, so these decide the whole inverse map on
        the embedded vectors (see ``check``); built once, for the checks.
        """
        return framecrypt.schur_transform(12).matrix[:, self.ws.embed_positions].copy()

    def inputs(self, op_seed: int):
        v = linalg.random_pure_state(self.ws.k, linalg.derived_rng(op_seed, 303))
        return self.TWIRL_ARGV + ["--seed", str(op_seed)], v

    def run(self, inputs):
        argv, v = inputs
        twirl = cli_call(argv)
        ws = framecrypt.build_working_space(12, 2.0)
        return twirl, v, framecrypt.embed_state(v, ws, "computational")

    def check(self, result, op_seed: int) -> list[str]:
        twirl, v, x = result
        problems, payload = check_cli(twirl)
        if payload is not None and not problems:
            if not payload["quadrature_sufficient"]:
                problems.append("twirl-check quadrature is not sufficient")
            if not payload["max_trace_norm_gap"] <= TWIRL_GAP_TOL:
                problems.append(f"twirl gap {payload['max_trace_norm_gap']!r} > {TWIRL_GAP_TOL}")
        norm_sq = float(np.vdot(x, x).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            problems.append(f"embedded vector has squared norm {norm_sq!r}")
        # coupled-basis image: its working-space part, and the squared norm
        # the unitary transform puts outside it, which must vanish
        kept = self.columns.conj().T @ x
        coupled = np.zeros(2**self.ws.n, dtype=complex)
        coupled[self.ws.embed_positions] = kept
        leak = norm_sq - float(np.vdot(kept, kept).real)
        if not leak <= NORM_TOL:
            problems.append(f"embedded vector leaks {leak!r} outside the working space")
        try:
            back = workspace.restrict_state(coupled, self.ws)
        except ValueError as exc:
            return problems + [f"restrict_state refused the mapped-back vector: {exc}"]
        if not np.max(np.abs(back - v)) <= NORM_TOL:
            problems.append("restrict_state does not return the embedded vector")
        return problems

    @staticmethod
    def stdout_bytes(result) -> int:
        return len(result[0].stdout.encode())

    @staticmethod
    def certified_gap(result):
        return None


WORKLOADS = {
    "sample_small": lambda: SampleWorkload([
        ["--command", "concentration", "--n", "12", "--samples", "5000"],
        ["--command", "lipschitz", "--n", "12", "--samples", "2000"],
        ["--command", "mean-f", "--n", "24", "--samples", "2000", "--alpha", "2"],
    ]),
    # half the planned samples (500 and 200): an operation then takes about
    # 1.8 s instead of 3.6 s, so a run's median rests on twice as many
    "sample_large": lambda: SampleWorkload([
        ["--command", "mean-f", "--n", "60", "--samples", "250"],
        ["--command", "concentration", "--n", "128", "--samples", "100"],
    ]),
    "certify": CertifyWorkload,
    "exact_channel": ExactChannelWorkload,
}
