"""Self-test of the benchmark's tracer: known call counts and self-time arithmetic.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from framecrypt import privacy  # noqa: E402


def traced_op(fn):
    with tracing.Tracer() as tracer:
        tracer.begin_op(1)
        try:
            out = fn()
        finally:
            tracer.end_op()
    counts = {name: entry["calls"] for name, entry in tracer.totals().items()}
    return tracer, counts, out


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        (0, 0.0, 10.0, -1, 1),  # root
        (1, 1.0, 4.0, 0, 1),  # child a
        (2, 3.0, 6.0, 0, 1),  # child b, overlapping a
        (3, 8.0, 12.0, 0, 1),  # child c, running past the root's end
        (4, 2.0, 3.0, 1, 1),  # grandchild under a
        (5, 20.0, 21.0, -1, 2),  # a second root with no children
    ]
    # root: 10 minus the union [1, 6] + [8, 10] = 3; a: 3 minus 1 = 2
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.0])


@pytest.mark.parametrize("samples", [2, 9])
def test_mean_f_counts_one_f_eval_per_sample(samples):
    argv = ["--command", "mean-f", "--n", "12", "--samples", str(samples), "--seed", "3"]
    _, counts, run = traced_op(lambda: workloads.cli_call(argv))
    assert run.code == 0
    assert counts["privacy.f_eval"] == samples
    assert counts["linalg.random_pure_state"] == samples
    assert counts["workspace.workspace_vector"] == samples
    assert counts["privacy.mean_f_experiment"] == 1
    assert counts["cli.main"] == counts["cli.run"] == counts["cli.canonical_json"] == 1
    # ws(12, 2) has two blocks: one eigensolve per block and state
    assert counts["numpy.linalg.eigvalsh"] == 2 * samples


def test_twirl_check_counts_quadrature_nodes():
    argv = ["--command", "twirl-check", "--n", "6", "--samples", "1", "--seed", "0"]
    tracer, counts, run = traced_op(lambda: workloads.cli_call(argv))
    assert run.code == 0
    assert counts["repkit.rotation_su2"] == 1568  # (n + 2)(2n + 2)^2 nodes at n = 6
    assert counts["linalg.kron_power"] == 1568
    assert counts["channel.twirl_oracle"] == counts["repkit.schur_transform"] == 1
    assert tracer.counters["repkit.schur_transform.bytes"] == 64 * 64 * 16


def test_counter_units_match_the_manifest():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric, unit, _ in tracing.RETURN_COUNTERS.values():
        assert units[metric] == unit, metric


def test_net_points_counter_matches_the_net():
    tracer, counts, net = traced_op(lambda: privacy.build_eps_net(2, 0.8, 5))
    assert counts["privacy.build_eps_net"] == 1
    assert tracer.counters["privacy.net_points"] == net.n_points


def test_every_binding_is_patched_and_restored():
    originals = {}
    for home, funcs in tracing.TARGETS:
        for func in funcs:
            originals[(home, func)] = getattr(sys.modules[home], func)
    modules = [m for k, m in sys.modules.items() if k == "framecrypt" or k.startswith("framecrypt.")]
    with tracing.Tracer():
        for (home, func), original in originals.items():
            assert getattr(sys.modules[home], func) is not original
            for mod in modules:
                assert getattr(mod, func, None) is not original, f"{mod.__name__}.{func} unpatched"
    for (home, func), original in originals.items():
        assert getattr(sys.modules[home], func) is original


def test_no_spans_outside_an_operation():
    with tracing.Tracer() as tracer:
        privacy.build_eps_net(1, 0.9, 0)
    assert tracer.spans == []
