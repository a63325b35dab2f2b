"""Acceptance gate: twelve end-to-end criteria at their stated tolerances.

Each test prints one `criterion NN (...): PASS|FAIL` line (visible with
`pytest -s` or `-rA`); the test outcome carries the same information for
plain runs.  Sample counts and tolerances here are contractual — do not
shrink them to make the suite faster.
"""

import contextlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from framecrypt.capacity import (
    classical_capacity_upper,
    q_perfect,
    rank_pi_prime,
    rank_pi_prime_chain,
    thm1_dim_bound,
)
from framecrypt.channel import twirl, twirl_block, twirl_oracle, twirl_working_state
from framecrypt.linalg import (
    derived_rng,
    kron_power,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)
from framecrypt.privacy import (
    concentration_experiment,
    estimate_max_f,
    f_eval,
    f_eval_direct,
    haar_moment_check,
    helstrom_distinguish,
    lipschitz_check,
    mean_f_experiment,
    sample_subspace,
    PrivacyParams,
)
from framecrypt.repkit import (
    block_layout,
    dim_irrep,
    dim_multiplicity,
    irrep_labels,
    rotation_su2,
    schur_transform,
    wigner_d,
)
from framecrypt.workspace import build_working_space
from oracles import random_euler


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS")


def test_criterion_01_dimension_completeness():
    with criterion(1, "dimension completeness"):
        for n in range(2, 65, 2):
            total = sum(dim_irrep(tj) * dim_multiplicity(n, tj) for tj in irrep_labels(n))
            assert total == 2**n


def test_criterion_02_schur_certification():
    with criterion(2, "schur certification"):
        for n in (2, 4, 6, 8):
            t = schur_transform(n)
            for trial in range(20):
                ang = random_euler(derived_rng(2, n, trial))
                conj = t.matrix.conj().T @ kron_power(rotation_su2(ang), n) @ t.matrix
                direct_sum = np.zeros_like(conj)
                for b in block_layout(n):
                    s = slice(b.offset, b.offset + b.dim_r * b.dim_p)
                    direct_sum[s, s] = np.kron(wigner_d(b.two_j, ang), np.eye(b.dim_p))
                assert np.linalg.norm(conj - direct_sum) < 1e-9


def test_criterion_03_twirl_oracle_equivalence():
    with criterion(3, "twirl oracle equivalence"):
        for n in (2, 4, 6):
            t = schur_transform(n)
            states = np.stack(
                [random_density_matrix(2**n, derived_rng(3, n, i)) for i in range(50)]
            )
            averaged = twirl_oracle(states)
            for i in range(50):
                gap = trace_norm(averaged[i] - twirl(states[i], t))
                assert gap < 1e-8


def test_criterion_04_channel_laws():
    with criterion(4, "channel laws"):
        for n in (2, 4):
            t = schur_transform(n)
            rho = random_density_matrix(2**n, derived_rng(4, n))
            # idempotence
            once = twirl_block(rho)
            assert trace_norm(twirl_block(once) - once) < 1e-9
            # covariance under rotations
            for trial in range(5):
                r = kron_power(rotation_su2(random_euler(derived_rng(4, n, trial))), n)
                lhs = twirl(r @ rho @ r.conj().T, t)
                rhs = r @ twirl(rho, t) @ r.conj().T
                assert trace_norm(lhs - rhs) < 1e-9
            # multiplicity-factor states are decoherence free
            fixed = np.zeros((2**n, 2**n), dtype=complex)
            layout = block_layout(n)
            for b in layout:
                sigma = random_density_matrix(b.dim_p, derived_rng(4, n, b.two_j))
                s = slice(b.offset, b.offset + b.dim_r * b.dim_p)
                fixed[s, s] = np.kron(np.eye(b.dim_r) / b.dim_r, sigma) / len(layout)
            assert trace_norm(twirl_block(fixed) - fixed) < 1e-9


def test_criterion_05_reduction_identity():
    with criterion(5, "working-space reduction identity"):
        for n in (8, 12):
            ws = build_working_space(n, 2.0)
            for i in range(1000):
                phi = random_pure_state(ws.k, derived_rng(5, n, i))
                assert abs(f_eval(phi, ws) - f_eval_direct(phi, ws)) < 1e-9


def test_criterion_06_lipschitz_bound():
    with criterion(6, "lipschitz bound"):
        ws = build_working_space(12, 2.0)
        assert lipschitz_check(ws, 10_000, 6) <= 2.0


def test_criterion_07_mean_f_bounds():
    with criterion(7, "mean of f"):
        for n, alpha in ((8, 2.0), (12, 2.0), (12, 4.0), (14, 2.0)):
            ws = build_working_space(n, alpha)
            report = mean_f_experiment(ws, 2000, 7)  # raises if a bound is broken
            assert report.mean_f <= 1.0 / math.sqrt(alpha) + 3.0 * report.stderr_f
            assert report.mean_f <= math.sqrt(ws.d_alpha / ws.d) + 3.0 * report.stderr_f


def test_criterion_08_haar_fourth_moment():
    with criterion(8, "haar fourth moment"):
        for k in (2, 3, 4, 8):
            report = haar_moment_check(k, 100_000, 8)
            assert all(z <= 4.0 for z in report["z"].values())


def test_criterion_09_concentration_trend():
    with criterion(9, "concentration trend"):
        params = PrivacyParams(delta=1.0)
        grid = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
        tails = {}
        for n in (10, 14):
            ws = build_working_space(n, 2.0)
            report = concentration_experiment(ws, 5000, grid, params, 9)
            tails[n] = report.tail[0.2]
            print(f"  n={n}: tail(0.2)={report.tail[0.2]:.4f} fitted_c={report.fitted_c}")
        assert tails[14] <= tails[10]


def test_criterion_10_capacity_formulas():
    with criterion(10, "capacity formulas"):
        assert abs(q_perfect(4) - math.log2(5)) < 1e-12
        assert abs(q_perfect(2) - math.log2(3)) < 1e-12
        assert abs(thm1_dim_bound(1024, 0.125, 0.0) - 19.5) < 1e-12
        assert abs(classical_capacity_upper(16, 0.0) - 15.0) < 1e-12
        assert abs(classical_capacity_upper(16, 0.5) - 21.0) < 1e-12
        assert rank_pi_prime(4) == 15
        assert rank_pi_prime(2) == 4
        for n in range(4, 65, 2):
            tight, middle, cube = rank_pi_prime_chain(n)
            assert tight <= middle <= cube
        tight2, middle2, cube2 = rank_pi_prime_chain(2)
        assert middle2 == 18 and cube2 == 16 and middle2 > cube2  # known n=2 exception
        assert tight2 <= cube2


def test_criterion_11_privacy_semantics():
    with criterion(11, "privacy semantics"):
        ws = build_working_space(12, 2.0)
        layout = {b.two_j: b for b in block_layout(12)}
        sizes = [layout[tj].dim_r * layout[tj].dim_p for tj in ws.y]
        total = sum(sizes)

        def channel_output(phi):
            """E(|phi><phi|) assembled on its support (the kept blocks)."""
            bs = twirl_working_state(phi, ws)
            out = np.zeros((total, total), dtype=complex)
            lo = 0
            for tj, w in zip(ws.y, sizes):
                out[lo : lo + w, lo : lo + w] = bs.blocks[tj]
                lo += w
            return out

        sub = sample_subspace(ws, 2, seed=424242)
        est = estimate_max_f(sub, ws, budget=60, seed=17, net_epsilon=0.25)
        delta = est.certified_upper_bound
        assert delta is not None
        print(f"  certified delta={delta:.4f} lower={est.lower_bound:.4f}")
        bound = (1.0 + delta) / 2.0
        worst = 0.0
        for i in range(1000):
            rng = derived_rng(11, i)
            phi1 = sub.basis @ random_pure_state(2, rng)
            phi2 = sub.basis @ random_pure_state(2, rng)
            p = helstrom_distinguish(channel_output(phi1), channel_output(phi2))
            worst = max(worst, p)
            assert p <= bound + 1e-9
        print(f"  worst pairwise distinguish probability {worst:.4f} <= {bound:.4f}")


def test_criterion_12_cli_reproducibility(tmp_path):
    with criterion(12, "cli reproducibility"):
        runs = (
            ["--command", "capacity", "--n", "16", "--delta", "0.25", "--seed", "5"],
            ["--command", "mean-f", "--n", "8", "--alpha", "2", "--samples", "100", "--seed", "3"],
            ["--command", "workspace", "--n", "12", "--alpha", "2"],
        )
        for args in runs:
            outs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "framecrypt.cli", *args],
                    capture_output=True,
                    check=True,
                )
                outs.append(proc.stdout)
            assert outs[0] == outs[1]
            json.loads(outs[0].decode())  # well-formed canonical JSON
        # the same holds when writing to a file
        target = tmp_path / "run.json"
        args = ["--command", "capacity", "--n", "4", "--out", str(target)]
        subprocess.run([sys.executable, "-m", "framecrypt.cli", *args], check=True, capture_output=True)
        first = target.read_bytes()
        subprocess.run([sys.executable, "-m", "framecrypt.cli", *args], check=True, capture_output=True)
        assert target.read_bytes() == first
