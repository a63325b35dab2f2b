"""Tests for the command-line driver: payloads, determinism, error surfaces."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecrypt import channel, cli, privacy
from framecrypt.cli import (
    DEFAULT_GAMMA_GRID,
    HANDLERS,
    canonical_json,
    emit_curve,
    main,
    parse_config,
    payload_to_csv,
    run,
)
from framecrypt.linalg import blas_threads, check_limit
from framecrypt.workspace import build_working_space


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands(section: str = "Command line") -> list[list[str]]:
    """argv of every command in the first sh block of a README section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split(f"## {section}", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("framecrypt ")]


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def test_capacity_payload(capsys):
    code, out, err = run_main(capsys, "--command", "capacity", "--n", "16", "--delta", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["q_perfect"] == pytest.approx(math.log2(17))
    assert doc["payload"]["classical_capacity_upper"] == pytest.approx(15.0)
    assert doc["payload"]["rank_chain"]["middle"] == 9 * 17**2
    assert doc["payload"]["thm1_dim_bound"] is None  # not defined at delta = 0
    assert doc["tool_version"]
    assert doc["config"]["seed"] == 0


def test_decompose_payload(capsys):
    code, out, _ = run_main(capsys, "--command", "decompose", "--n", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["sum_products"] == 16
    rows = {r["two_j"]: r for r in doc["payload"]["blocks"]}
    assert rows[2]["dim_multiplicity"] == 3
    assert rows[4]["dim_rotation"] == 5


def test_workspace_payload(capsys):
    code, out, _ = run_main(capsys, "--command", "workspace", "--n", "12", "--alpha", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["descriptor"]["k"] == 72
    assert doc["payload"]["ratio_k_to_asymptotic"] == pytest.approx(1.125)
    assert doc["workspace_descriptor"]["d_alpha"] == 4


def test_twirl_check_payload(capsys):
    code, out, _ = run_main(
        capsys, "--command", "twirl-check", "--n", "2", "--samples", "3", "--seed", "5"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["quadrature_sufficient"] is True
    assert doc["payload"]["max_trace_norm_gap"] < 1e-10


@pytest.mark.parametrize("grid", [[], ["--quadrature", "1,1,1"]], ids=["default", "undersized"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_twirl_check_differences_pass_the_hermitian_trace_norm(capsys, n, grid):
    # trace_norm refuses input that is not Hermitian; the exact channel minus
    # its quadrature average never is, however coarse the grid
    code, out, err = run_main(capsys, "--command", "twirl-check", "--n", str(n), *grid)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["quadrature_sufficient"] is (not grid)
    assert math.isfinite(payload["max_trace_norm_gap"])


def test_mean_f_payload(capsys):
    code, out, _ = run_main(
        capsys, "--command", "mean-f", "--n", "12", "--alpha", "2", "--samples", "150"
    )
    doc = json.loads(out)
    assert code == 0
    payload = doc["payload"]
    assert payload["mean_f"] <= payload["bound_ratio"] + 3 * payload["stderr_f"]
    assert payload["n_samples"] == 150


def test_concentration_payload_formats_gammas(capsys):
    code, out, _ = run_main(
        capsys, "--command", "concentration", "--n", "8", "--alpha", "2", "--samples", "120"
    )
    doc = json.loads(out)
    assert code == 0
    assert set(doc["payload"]["tail"]) == {f"{g:g}" for g in DEFAULT_GAMMA_GRID}
    assert doc["payload"]["tail"]["2"] == 0.0


def test_sampling_experiments_return_the_payload_they_print():
    # one process, one BLAS thread count: the CLI's payload is the experiment's
    # dict, with the concentration gammas relabelled as strings
    report = privacy.mean_f_experiment(build_working_space(24, 2.0), 200, 3)
    json.dumps(report, allow_nan=False)
    argv = ["--command", "mean-f", "--n", "24", "--alpha", "2", "--samples", "200", "--seed", "3"]
    assert run(parse_config(argv))["payload"] == cli._jsonable(report)
    report = privacy.concentration_experiment(build_working_space(12, 2.0), 500, DEFAULT_GAMMA_GRID, 1.0, 3)
    relabelled = {key: {f"{g:g}": v for g, v in report[key].items()} for key in ("tail", "levy_bound")}
    argv = ["--command", "concentration", "--n", "12", "--samples", "500", "--seed", "3"]
    assert run(parse_config(argv))["payload"] == cli._jsonable({**report, **relabelled})


def test_haar_moments_payload(capsys):
    code, out, _ = run_main(capsys, "--command", "haar-moments", "--n", "3", "--samples", "2000")
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["exact"]["abs4"] == pytest.approx(1.0 / 6.0)
    assert all(z < 4.0 for z in doc["payload"]["z"].values())


def test_net_payload(capsys):
    code, out, _ = run_main(
        capsys, "--command", "net", "--dim-s", "2", "--epsilon", "0.6", "--seed", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["n_points"] == 150  # 6 faces of a 5 x 5 grid
    assert doc["payload"]["covering_radius"] == pytest.approx(math.sqrt(2.0) / 5.0)
    assert doc["payload"]["covering_radius"] <= 0.3


def test_theorem1_infeasible_is_a_result_not_an_error(capsys):
    code, out, _ = run_main(
        capsys, "--command", "theorem1", "--n", "8", "--delta", "0.125", "--samples", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["feasible"] is False
    assert "reason" in doc["payload"]


def test_lipschitz_payload(capsys):
    code, out, _ = run_main(
        capsys, "--command", "lipschitz", "--n", "8", "--alpha", "2", "--samples", "40"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["max_ratio"] <= 2.0
    assert doc["payload"]["max_ratio_nearby"] <= 2.0


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

def test_same_seed_means_same_bytes(capsys):
    args = ("--command", "mean-f", "--n", "8", "--alpha", "2", "--samples", "60", "--seed", "7")
    _, out1, _ = run_main(capsys, *args)
    _, out2, _ = run_main(capsys, *args)
    assert out1 == out2


def test_different_seed_changes_payload(capsys):
    _, out1, _ = run_main(capsys, "--command", "mean-f", "--n", "8", "--samples", "60", "--seed", "1")
    _, out2, _ = run_main(capsys, "--command", "mean-f", "--n", "8", "--samples", "60", "--seed", "2")
    assert json.loads(out1)["payload"]["mean_f"] != json.loads(out2)["payload"]["mean_f"]


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "result.json"
    args = ("--command", "capacity", "--n", "4", "--out", str(target))
    assert main(list(args)) == 0
    first = target.read_bytes()
    assert main(list(args)) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    doc = json.loads(first.decode())
    assert doc["config"]["out"] == str(target)


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "decompose", "--n", "4"],
        ["--command", "decompose", "--n", "4", "--format", "csv"],
        ["--command", "emit-curve", "--x-field", "n", "--y-field", "q_perfect"],
    ],
    ids=["decompose", "decompose-csv", "emit-curve"],
)
def test_an_unwritable_out_is_one_domain_error(tmp_path, capsys, argv, where):
    out = tmp_path / "no-such-dir" / "x.json" if where == "missing-dir" else tmp_path
    code, stdout, err = run_main(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    error = json.loads(err)["error"]  # the whole of stderr: one object, no traceback
    assert error["kind"] == "domain"
    assert str(out) in error["message"]


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": [3, 4]}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert canonical_json({"x": 1}) == '{\n  "x": 1\n}\n'


def test_wall_clock_stays_out_of_the_document():
    doc = run(parse_config(["--command", "capacity", "--n", "4"]))
    assert set(doc) == {"config", "tool_version", "payload", "workspace_descriptor"}
    assert "wall_clock" not in canonical_json(doc)


@pytest.mark.parametrize(
    "argv",
    [*readme_commands(), ["--command", "twirl-check", "--n", "4", "--quadrature", "3,2,3", "--samples", "2"]],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_documented_commands_keep_the_output_contract(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr outside pytest
        code, out, err = run_main(capsys, *argv)
    assert code == 0
    assert out == canonical_json(json.loads(out))
    assert re.fullmatch(r"wall_clock_seconds=\d+\.\d{3}\n", err)


def test_readme_command_block_is_found():
    assert readme_commands()


def test_every_command_is_documented():
    assert set(HANDLERS) <= {argv[1] for argv in readme_commands()}


def test_readme_scans_and_curves_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands("Scans and curves")
    assert any(argv[1] == "emit-curve" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, _ = run_main(capsys, *argv)
        assert code == 0, argv
        if argv[1] == "emit-curve":
            inputs = argv[argv.index("--inputs") + 1 : argv.index("--x-field")]
            lines = out.split("\r\n")
            assert lines[0] == f"{argv[argv.index('--x-field') + 1]},{argv[argv.index('--y-field') + 1]}"
            assert len([ln for ln in lines[1:] if ln]) == len(inputs)


def test_readme_quick_tour_runs_and_reads_as_its_comments_say():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tour = {}
    exec(compile(block, "README.md (quick tour)", "exec"), tour)
    assert tour["gap"] < 1e-12
    assert tour["ws"].k == 72
    assert tour["f_eval"](tour["e0"], tour["ws"]) == pytest.approx(1.75, abs=1e-12)
    assert tour["lower"] <= tour["certified"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("capacity_n16_delta0.25.json", ["--command", "capacity", "--n", "16", "--delta", "0.25"]),
        ("decompose_n6.json", ["--command", "decompose", "--n", "6"]),
        ("workspace_n12_alpha2.json", ["--command", "workspace", "--n", "12", "--alpha", "2"]),
        (
            "concentration_n12_samples500_seed3.json",
            ["--command", "concentration", "--n", "12", "--samples", "500", "--seed", "3"],
        ),
        ("lipschitz_n12_samples300_seed3.json", ["--command", "lipschitz", "--n", "12", "--samples", "300", "--seed", "3"]),
        (
            "mean-f_n24_alpha2_samples200_seed3.json",
            ["--command", "mean-f", "--n", "24", "--alpha", "2", "--samples", "200", "--seed", "3"],
        ),
        # dim_s = 2: reaches the probes, the ascent and the net of estimate_max_f
        (
            "theorem1_n12_delta2_cprime-13_seed3.json",
            ["--command", "theorem1", "--n", "12", "--delta", "2", "--c-prime", "-13", "--samples", "2", "--seed", "3"],
        ),
        # dim_s = 38: the probes and the ascent on a subspace with no net
        (
            "theorem1_n24_delta2_cprime-12_seed1.json",
            ["--command", "theorem1", "--n", "24", "--delta", "2", "--c-prime", "-12", "--samples", "2", "--seed", "1"],
        ),
        # K = 33,280: the sampler spreads the draws over the CPUs
        (
            "concentration_n96_samples100_seed3.json",
            ["--command", "concentration", "--n", "96", "--samples", "100", "--seed", "3"],
        ),
        # delta < 2: alpha = 16, dim_s = 3
        (
            "theorem1_n24_delta1.5_cprime-14_seed0.json",
            ["--command", "theorem1", "--n", "24", "--delta", "1.5", "--c-prime=-14", "--samples", "3", "--seed", "0"],
        ),
    ],
)
def test_exact_commands_match_their_pinned_output(capsys, name, argv):
    """Integer and closed-form commands, and seeded sampling commands, byte
    for byte, echoed defaults included."""
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="this platform has no CPU affinity")
def test_one_cpu_prints_the_same_bytes():
    """A process pinned to one CPU samples serially (it never forks) and
    prints the bytes of the run that spreads its draws, which forks where it
    may use more CPUs: the pinned concentration output, and a lipschitz run
    whose plain and nearby pairs (42.6 MB and 4.26 MB of states) both
    spread, so lipschitz_check's finish runs inside the workers."""
    script = (
        "import os, sys\n"
        "if sys.argv[1] == 'one':\n"
        f"    os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from framecrypt import cli\n"
        "code = cli.main(sys.argv[2:])\n"
        "print(len(forks), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    golden = (GOLDEN / "concentration_n96_samples100_seed3.json").read_text(encoding="utf-8")
    can_spread = len(os.sched_getaffinity(0)) > 1 and hasattr(os, "fork") and blas_threads() is not None
    runs = [
        (["--command", "concentration", "--n", "96", "--samples", "100", "--seed", "3"], 1),
        (["--command", "lipschitz", "--n", "96", "--samples", "40", "--seed", "0"], 2),
    ]
    for argv, spreading_calls in runs:
        want = golden if argv[1] == "concentration" else None  # lipschitz: the one-CPU bytes
        for cpus in ("one", "all"):
            proc = subprocess.run([sys.executable, "-c", script, cpus, *argv], capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            want = want or proc.stdout.decode()
            assert proc.stdout.decode() == want
            forks = int(proc.stderr.decode().split()[-1])
            # each spread call forks at least one worker
            assert forks >= spreading_calls if cpus == "all" and can_spread else forks == 0


def test_the_blas_thread_count_does_not_move_the_bytes():
    # the pair gaps are BLAS dot products that OpenBLAS splits across its
    # threads; the CLI runs one BLAS thread whatever the environment says
    argv = ["--command", "lipschitz", "--n", "96", "--samples", "30", "--seed", "0"]
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    unset, one = (
        subprocess.run([sys.executable, "-m", "framecrypt.cli", *argv], env=e, capture_output=True, timeout=120)
        for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    )
    assert unset.returncode == one.returncode == 0, unset.stderr.decode() + one.stderr.decode()
    assert unset.stdout == one.stdout


@pytest.mark.skipif(
    not hasattr(os, "fork") or blas_threads() is None, reason="the sampler forks only with os.fork and a readable BLAS"
)
def test_a_killed_sampler_worker_is_one_domain_error(capsys, monkeypatch):
    # ChildProcessError is an OSError: one error object, exit 1, no traceback
    caller, f_evals = os.getpid(), privacy.f_evals

    def dying(phis, ws):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return f_evals(phis, ws)

    monkeypatch.setattr(privacy, "f_evals", dying)
    monkeypatch.setattr(privacy, "_cpus", lambda: 2)
    code, out, err = run_main(capsys, "--command", "concentration", "--n", "12", "--samples", "5000")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "domain"
    assert "signal" in error["message"]
    with pytest.raises(ChildProcessError):  # the killed worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_csv_projection(capsys):
    code, out, _ = run_main(
        capsys, "--command", "capacity", "--n", "16", "--delta", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:] if line)
    assert float(fields["q_perfect"]) == pytest.approx(math.log2(17))
    assert fields["rank_chain.middle"] == "2601"


# ---------------------------------------------------------------------------
# error surfaces
# ---------------------------------------------------------------------------

def test_usage_error_exit_2(capsys):
    code, out, err = run_main(capsys, "--command", "twirl-check", "--n", "4", "--quadrature", "3,3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "decompose", "--n", "abc"],
        # argparse reads -1e308 as an option: write it --c-prime=-1e308
        ["--command", "capacity", "--n", "16", "--c-prime", "-1e308"],
        # Python 3.11's argparse reads this as an empty list, not as a string
        ["--command", "decompose", "--n=--"],
        # an empty value is not replaced by the default grid
        ["--command", "twirl-check", "--n", "2", "--samples", "1", "--quadrature="],
        ["--command", "twirl-check", "--n", "2", "--quadrature", "a,b,c"],
    ],
    ids=["non-numeric", "exponent-without-equals", "double-dash", "empty-quadrature", "non-integer-quadrature"],
)
def test_malformed_flags_are_usage_errors(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == canonical_json(json.loads(err))
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    if any(word.startswith("--quadrature") for word in argv):  # the flag is named, not int()'s parse
        assert error["message"] == "--quadrature expects three comma-separated sizes a,b,g"


def test_domain_error_exit_1(capsys):
    # an odd, zero or negative qubit count is named as such, not as the
    # default quadrature size that would be built from it
    for n in ("3", "0", "-1", "-2"):
        code, out, err = run_main(capsys, "--command", "twirl-check", f"--n={n}")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "domain"
        assert "qubit count" in error["message"]
    code, _, err = run_main(capsys, "--command", "mean-f", "--n", "12", "--alpha", "0.5")
    assert code == 1
    assert "alpha" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "mean-f", "--n", "12", "--samples", "0"],
        ["--command", "concentration", "--n", "12", "--samples", "0"],
        ["--command", "lipschitz", "--n", "12", "--samples", "0"],
        ["--command", "twirl-check", "--n", "4", "--samples", "0"],
        ["--command", "haar-moments", "--n", "4", "--samples", "0"],
        ["--command", "theorem1", "--n", "12", "--delta", "1", "--samples", "0"],
    ],
    ids=["mean-f", "concentration", "lipschitz", "twirl-check", "haar-moments", "theorem1"],
)
def test_explicit_zero_is_not_replaced_by_the_default(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "domain"


def test_capacity_rejects_negative_delta(capsys):
    code, out, err = run_main(capsys, "--command", "capacity", "--n", "16", "--delta", "-1")
    assert code == 1
    assert out == ""
    assert "delta" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "net", "--dim-s", "3", "--epsilon", "0.25"],
        ["--command", "net", "--dim-s", "2", "--epsilon", "5e-324"],
        ["--command", "workspace", "--n", "20000", "--alpha", "2"],
        ["--command", "decompose", "--n", "100000"],
        ["--command", "capacity", "--n", "100000"],
        ["--command", "twirl-check", "--n", "2", "--samples", "1",
         "--quadrature", "100000,100000,100000"],
        ["--command", "haar-moments", "--n", "100000", "--samples", "100"],
        ["--command", "haar-moments", "--n", "2", "--samples", "100000000000"],
        # 5,000 pairs of 420 columns: 67.2 MB, over 64 MiB (k = 419 fits)
        ["--command", "haar-moments", "--n", "420", "--samples", "5000"],
        ["--command", "mean-f", "--n", "12", "--samples", "100000000000"],
        ["--command", "mean-f", "--n", "200", "--samples", "1000000"],
        ["--command", "theorem1", "--n", "4098", "--delta", "1"],
        ["--command", "theorem1", "--n", "200", "--delta", "2", "--c-prime", "-20"],
        ["--command", "theorem1", "--n", "24", "--delta", "2", "--c-prime", "-12",
         "--samples", "1000000"],
        ["--command", "twirl-check", "--n", "8", "--samples", "1000000"],
        # 0.33 s per sample at n = 2: the quadrature nodes, not the 4 x 4 operators, take the time
        ["--command", "twirl-check", "--n", "2", "--samples", "1000", "--quadrature", "1024,1024,1024"],
    ],
    ids=["net", "net-subnormal-epsilon", "workspace", "decompose", "capacity", "twirl-check",
         "haar-moments", "haar-moments-samples", "haar-moments-columns", "mean-f-samples", "mean-f-work",
         "theorem1-qubits", "theorem1-subspace", "theorem1-work", "twirl-check-work", "twirl-check-nodes"],
)
def test_work_over_the_limit_is_refused_up_front(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_main(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "domain"
    assert "limit" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "mean-f", "--n", "12", "--samples", "200", "--seed", "3"],
        ["--command", "concentration", "--n", "12", "--samples", "200", "--seed", "3"],
        ["--command", "lipschitz", "--n", "12", "--samples", "300", "--seed", "3"],
        ["--command", "twirl-check", "--n", "4", "--samples", "3"],
        ["--command", "theorem1", "--n", "12", "--delta", "2", "--c-prime", "-13", "--samples", "2", "--seed", "3"],
    ],
    ids=["mean-f", "concentration", "lipschitz", "twirl-check", "theorem1"],
)
def test_declared_work_is_never_below_the_measured_work(monkeypatch, capsys, argv):
    """The count checked against WORK_LIMIT before the run, against the work
    the run then does: states through f_evals x K, rows of the ascent's block
    eigensolves (one per running start per round) x dim_s x K, and oracle
    calls x (n_beta + 2) x 4^n operator entries."""
    declared, measured, ascent_rows = [], [], []
    f_evals, oracle, eigh = privacy.f_evals, channel.twirl_oracle, np.linalg.eigh

    def recording_check_limit(amount, limit, what, unit):
        if limit == privacy.WORK_LIMIT:
            declared.append(amount)
        check_limit(amount, limit, what, unit)

    def counting_f_evals(phis, ws):
        measured.append(np.asarray(phis).size)
        return f_evals(phis, ws)

    def counting_eigh(a):  # a (running starts, |Y|, D_alpha, D_alpha) stack starts every ascent round
        if np.ndim(a) == 4:
            ascent_rows.append(len(a))
        return eigh(a)

    def counting_oracle(rho, spec):
        measured.append((spec.n_beta + 2) * np.asarray(rho).size)
        return oracle(rho, spec)

    for module in (cli, privacy):
        monkeypatch.setattr(module, "check_limit", recording_check_limit)
    monkeypatch.setattr(privacy, "f_evals", counting_f_evals)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(channel, "twirl_oracle", counting_oracle)
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert bool(ascent_rows) == (argv[1] == "theorem1")
    if ascent_rows:
        payload = json.loads(out)["payload"]
        measured.append(sum(ascent_rows) * payload["dim_s"] * payload["workspace"]["k"])
    assert len(declared) == 1
    assert 0 < sum(measured) <= declared[0]
    print(f"{argv[1]}: measured / declared = {sum(measured) / declared[0]:.4f}")


@pytest.mark.parametrize(
    "argv, k, dim_s, declared",
    [
        (["--n", "12", "--delta", "2", "--c-prime", "-13", "--samples", "2", "--seed", "3"], 18, 2, 35_712),
        (["--n", "24", "--delta", "2", "--c-prime", "-12", "--samples", "2", "--seed", "1"], 68, 38, 1_686_128),
    ],
    ids=["dim_s-2", "dim_s-38"],
)
def test_theorem1_declares_exactly_its_work_per_subspace(monkeypatch, capsys, argv, k, dim_s, declared):
    """Per subspace: its dim_s Haar columns, the estimate's probes, the
    ascent's rounds of dim_s basis columns and, at dim_s = 2, the net; each x K."""
    amounts = []

    def recording_check_limit(amount, limit, what, unit):
        if limit == privacy.WORK_LIMIT:
            amounts.append(amount)
        check_limit(amount, limit, what, unit)

    monkeypatch.setattr(privacy, "check_limit", recording_check_limit)
    code, out, _ = run_main(capsys, "--command", "theorem1", *argv)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert (payload["workspace"]["k"], payload["dim_s"]) == (k, dim_s)
    net = privacy.net_size(2, 2.0 / 3) if dim_s == 2 else 0
    per_subspace = dim_s + privacy.THEOREM1_BUDGET + privacy.ASCENT_RESTARTS * privacy.ASCENT_ITERS * dim_s + net
    assert amounts == [len(payload["subspaces"]) * per_subspace * k] == [declared]


def test_zero_quadrature_size_is_refused_before_the_band_limit_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would surface as an exception
        code, out, err = run_main(
            capsys, "--command", "twirl-check", "--n", "4", "--quadrature", "10,0,10"
        )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "domain"
    assert "n_beta=0" in error["message"]


def test_missing_required_flag(capsys):
    code, _, err = run_main(capsys, "--command", "capacity")
    assert code == 1
    assert "--n" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "decompose", "--n", "6", "--alpha", "nan"],
        ["--command", "capacity", "--n", "16", "--levy-c", "inf"],
        ["--command", "theorem1", "--n", "12", "--delta", "2", "--c-prime=-inf"],
        ["--command", "mean-f", "--n", "12", "--samples", "10", "--delta", "nan"],
        ["--command", "net", "--dim-s", "2", "--epsilon", "nan"],
    ],
    ids=["alpha", "levy-c", "c-prime", "delta", "epsilon"],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert "finite" in error["message"]


@pytest.mark.parametrize(
    "argv, field, reason",
    [
        # 2^bits overflows a float
        (["--command", "theorem1", "--n", "12", "--delta", "2", "--c-prime", "2000"], "dim_s", "exceeds"),
        # delta**2 underflows to zero
        (["--command", "theorem1", "--n", "12", "--delta", "1e-200"], "alpha", "truncates"),
        # log2(n) has no value: refused as a qubit count, like odd n
        (["--command", "theorem1", "--n", "0", "--delta", "2"], "dim_bits", "qubit count"),
    ],
)
def test_theorem1_out_of_range_arithmetic_is_infeasible(capsys, argv, field, reason):
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["feasible"] is False
    assert payload[field] is None
    assert reason in payload["reason"]


def test_capacity_advantage_threshold_past_float_range_is_null(capsys):
    code, out, _ = run_main(capsys, "--command", "capacity", "--n", "16", "--c-prime=-1e308")
    assert code == 0
    assert json.loads(out)["payload"]["min_delta_for_advantage"] is None


# the files the fuzzed emit-curve cases read, written by curve_files: two
# result documents, an array, an object without a payload, text that is not
# JSON, bytes that are not UTF-8, a directory and a name with no file
CURVE_FILES = ("cap4.json", "cap8.json", "list.json", "bare.json", "text.json", "bytes.json", "dir.json", "none.json")
FIELDS = ("n", "q_perfect", "rank_chain.tight", "config.n", "payload", "x.y", "tool_version", "none", "")

FUZZ_VALUES = {
    "--n": st.integers(-2, 12),
    "--samples": st.integers(-1, 4) | st.just(100),
    "--seed": st.integers(-(2**63), 2**63),
    "--dim-s": st.integers(-1, 4),
    "--j-min": st.integers(-1, 6),
    **dict.fromkeys(
        ("--alpha", "--delta", "--c-prime", "--levy-c", "--epsilon"),
        st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e-200, 1e308, -1e308]) | st.floats(),
    ),
    "--quadrature": st.lists(st.integers(-1, 12), max_size=4).map(lambda sizes: ",".join(map(str, sizes))),
    "--inputs": st.lists(st.sampled_from(CURVE_FILES), max_size=3),
    **dict.fromkeys(("--x-field", "--y-field"), st.sampled_from(FIELDS)),
}
# per command, flags drawn from a narrower range than FUZZ_VALUES gives:
# twirl-check forms dense 2^n x 2^n operators, and n <= 6 keeps its cases cheap
FUZZ_NARROWED = {"twirl-check": {"--n": st.integers(-2, 6)}}
# no string over this alphabet parses as an int or a float
NON_NUMERIC = st.text(alphabet="abcxyz.,+-_ ", max_size=4)
# a run that succeeds per command, and the other flags it reads; each case
# replaces some of them.  These commands stay well under a second at
# --n <= 12 and --samples <= 100.
FUZZ_BASES = {
    "decompose": ({"--n": 6}, ()),
    "workspace": ({"--n": 12, "--alpha": 2.0}, ("--j-min",)),
    "capacity": ({"--n": 16, "--delta": 0.25, "--c-prime": 0.0}, ()),
    "net": ({"--dim-s": 2, "--epsilon": 0.5}, ()),
    "theorem1": ({"--n": 12, "--delta": 2.0, "--c-prime": -13.0, "--samples": 1}, ("--seed",)),
    "mean-f": ({"--n": 12, "--alpha": 2.0, "--samples": 4}, ("--seed",)),
    "concentration": ({"--n": 12, "--alpha": 2.0, "--samples": 4}, ("--levy-c", "--seed")),
    "lipschitz": ({"--n": 12, "--alpha": 2.0, "--samples": 4}, ("--seed",)),
    "haar-moments": ({"--n": 4, "--samples": 100}, ("--seed",)),
    "twirl-check": ({"--n": 2, "--samples": 1}, ("--quadrature", "--seed")),
    "emit-curve": ({"--inputs": ["cap4.json", "cap8.json"], "--x-field": "n", "--y-field": "q_perfect"}, ()),
}


@pytest.fixture(scope="module")
def curve_files(tmp_path_factory):
    """The directory holding CURVE_FILES (none.json excepted)."""
    root = tmp_path_factory.mktemp("curves")
    for n in (4, 8):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["--command", "capacity", "--n", str(n), "--out", str(root / f"cap{n}.json")]) == 0
    (root / "list.json").write_text("[1, 2]", encoding="utf-8")
    (root / "bare.json").write_text('{"n": null, "x": {"y": [1]}}', encoding="utf-8")
    (root / "text.json").write_text("not json", encoding="utf-8")
    (root / "bytes.json").write_bytes(b"\xff\xfe{")
    (root / "dir.json").mkdir()
    return root


def fuzz_words(flag: str, value, joined: bool, curve_dir: Path) -> list[str]:
    """argv words for one flag; --inputs names become paths in curve_dir."""
    if flag != "--inputs" or not isinstance(value, list):
        return [f"{flag}={value}"] if joined else [flag, str(value)]
    paths = [str(curve_dir / name) for name in value]
    if joined and paths:  # --inputs=first takes one value, and argparse refuses the rest
        return [f"{flag}={paths[0]}", *paths[1:]]
    return [flag, *paths]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.just(command),
            st.fixed_dictionaries(
                {},
                optional={
                    flag: FUZZ_NARROWED.get(command, {}).get(flag, FUZZ_VALUES[flag]) for flag in (*base, *others)
                },
            ).map(lambda changed, base=base: {**base, **changed}),
            # about half the cases also garble one flag with a non-numeric string
            st.just({}) | st.tuples(st.sampled_from((*base, *others)), NON_NUMERIC).map(lambda kv: dict([kv])),
        )
        for command, (base, others) in FUZZ_BASES.items()
    ),
    st.booleans(),
)
def test_fuzzed_flags_keep_the_output_contract(curve_files, case, joined):
    """Any flag values, nan, infinities, subnormals, huge values and
    non-numeric strings included, written as --flag=value or as --flag value:
    exit 0 with canonical JSON (emit-curve: its CSV, and nothing on stderr),
    or exit 1/2 with one error object."""
    command, flags, garbled = case
    flags = {**flags, **garbled}
    words = (fuzz_words(flag, value, joined, curve_files) for flag, value in flags.items())
    argv = ["--command", command, *itertools.chain.from_iterable(words)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0 and command == "emit-curve":
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == [flags["--x-field"], flags["--y-field"]]
        assert len(rows) == 1 + len(flags["--inputs"])
        assert err == ""
    elif code == 0:
        assert out == canonical_json(json.loads(out))
        assert re.fullmatch(r"wall_clock_seconds=\d+\.\d{3}\n", err)
    else:
        assert code in (1, 2)
        assert out == ""
        assert err == canonical_json(json.loads(err))
        assert set(json.loads(err)) == {"error"}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, (base, others) in FUZZ_BASES.items()
        for flag in ("--alpha", "--delta", "--c-prime", "--levy-c", "--epsilon")
        if flag not in (*base, *others)
        for value in ("0", "-1")
    ],
)
def test_a_flag_the_command_does_not_read_leaves_its_payload_unchanged(capsys, curve_files, command, flag, value):
    """A flag is echoed in config whatever the command, and refused only by
    a command that reads it (emit-curve: its CSV stays the same)."""
    words = (fuzz_words(f, v, False, curve_files) for f, v in FUZZ_BASES[command][0].items())
    argv = ["--command", command, *itertools.chain.from_iterable(words)]
    payloads = []
    for extra in ([], [f"{flag}={value}"]):
        code, out, _ = run_main(capsys, *argv, *extra)
        assert code == 0
        payloads.append(out if command == "emit-curve" else json.loads(out)["payload"])
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# curve emission
# ---------------------------------------------------------------------------

def make_capacity_files(tmp_path, capsys, ns):
    paths = []
    for n in ns:
        p = tmp_path / f"cap{n}.json"
        assert main(["--command", "capacity", "--n", str(n), "--out", str(p)]) == 0
        paths.append(str(p))
    capsys.readouterr()
    return paths


def test_emit_curve_sorted_csv(tmp_path, capsys):
    paths = make_capacity_files(tmp_path, capsys, [16, 4, 8])
    code, out, _ = run_main(
        capsys,
        "--command", "emit-curve",
        "--inputs", *paths,
        "--x-field", "n",
        "--y-field", "q_perfect",
    )
    assert code == 0
    lines = [ln for ln in out.split("\r\n") if ln]
    assert lines[0] == "n,q_perfect"
    xs = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert xs == [4, 8, 16]
    assert float(lines[1].split(",")[1]) == pytest.approx(math.log2(5))


def test_emit_curve_empty_inputs_gives_header_only(capsys):
    code, out, _ = run_main(
        capsys, "--command", "emit-curve", "--x-field", "n", "--y-field", "q_perfect"
    )
    assert code == 0
    assert out == "n,q_perfect\r\n"


def test_emit_curve_missing_field_fails(tmp_path, capsys):
    paths = make_capacity_files(tmp_path, capsys, [4])
    code, _, err = run_main(
        capsys,
        "--command", "emit-curve",
        "--inputs", *paths,
        "--x-field", "n",
        "--y-field", "no_such_field",
    )
    assert code == 1
    assert json.loads(err)["error"] == {
        "kind": "domain",
        "message": "field 'no_such_field' not found in result document",
    }


def test_emit_curve_rejects_a_non_object_input(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    code, out, err = run_main(
        capsys, "--command", "emit-curve", "--inputs", str(p), "--x-field", "n", "--y-field", "n"
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "domain"


def test_emit_curve_rejects_unorderable_x_values(tmp_path, capsys):
    paths = []
    for i, x in enumerate([1, "a"]):
        p = tmp_path / f"doc{i}.json"
        p.write_text(json.dumps({"payload": {"x": x, "y": i}}))
        paths.append(str(p))
    code, out, err = run_main(
        capsys, "--command", "emit-curve", "--inputs", *paths, "--x-field", "x", "--y-field", "y"
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "domain"


def test_emit_curve_dotted_lookup(tmp_path, capsys):
    paths = make_capacity_files(tmp_path, capsys, [4, 8])
    code, out, _ = run_main(
        capsys,
        "--command", "emit-curve",
        "--inputs", *paths,
        "--x-field", "n",
        "--y-field", "rank_chain.tight",
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.split("\r\n") if ln][1:]
    assert rows[0] == ["4", "15"]


def test_emit_curve_reads_keys_that_hold_a_dot(tmp_path, capsys):
    paths, tails = [], []
    for n in (8, 12):
        p = tmp_path / f"concentration{n}.json"
        argv = ["--command", "concentration", "--n", str(n), "--samples", "120", "--out", str(p)]
        assert main(argv) == 0
        paths.append(str(p))
        tails.append(json.loads(p.read_text())["payload"]["tail"]["0.2"])
    capsys.readouterr()
    code, out, _ = run_main(
        capsys, "--command", "emit-curve", "--inputs", *paths, "--x-field", "n", "--y-field", "tail.0.2"
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.split("\r\n") if ln]
    assert rows[0] == ["n", "tail.0.2"]
    assert [(int(x), float(y)) for x, y in rows[1:]] == [(8, tails[0]), (12, tails[1])]


def test_emit_curve_unit_helpers():
    docs = [
        {"payload": {"x": 2, "y": 20}},
        {"payload": {"x": 1, "y": 10}},
    ]
    text = emit_curve(docs, "x", "y")
    assert text == "x,y\r\n1,10\r\n2,20\r\n"
    flat = payload_to_csv({"a": {"b": 1}, "c": [5, 6]})
    assert "a.b,1" in flat
    assert "c[0],5" in flat
