"""Command-line driver.

One entry point, one flag per knob, canonical output: JSON is serialized
with sorted keys and a fixed layout so that re-running a command with the
same seed reproduces the output file byte for byte (wall-clock timing is
reported on stderr, never in the file); CSV follows RFC 4180.  Domain errors
come back as a machine-readable error object on stderr with a nonzero exit
status, while parameter regimes that are merely infeasible (for example a
subspace-dimension bound below one state) are ordinary results.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
import warnings

import numpy as np

import framecrypt
from framecrypt import capacity as cap
from framecrypt import channel, privacy, repkit, workspace
from framecrypt.linalg import check_limit, derived_rng, random_density_matrix, set_blas_threads

DEFAULT_GAMMA_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0)
# largest --samples any command accepts; the README's largest count is 100,000
SAMPLES_LIMIT = 1_000_000


def _usage_error(message: str):  # argparse's error(): main reports it as one usage error object
    raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="framecrypt",
        description="rotation-twirl channel toolkit: decompositions, twirl checks, privacy experiments, capacity bounds",
    )
    p.error = _usage_error
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--n", type=int, help="qubit count (or matrix dimension for haar-moments)")
    p.add_argument("--alpha", type=float, default=2.0, help="working-space truncation parameter")
    p.add_argument("--delta", type=float, help="privacy / distinguishability level")
    p.add_argument("--samples", type=int, help="sample count (per command default otherwise)")
    p.add_argument("--seed", type=int, default=0, help="master seed; all sampling derives from it")
    p.add_argument("--out", help="output file path (stdout otherwise)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--c-prime", type=float, default=0.0, help="additive constant in the dimension bound")
    p.add_argument("--levy-c", type=float, default=1.0, help="constant in the reported tail curve")
    p.add_argument("--j-min", type=int, help="override the smallest kept total spin (integer)")
    p.add_argument("--quadrature", help="comma-separated grid sizes a,b,g for the twirl oracle")
    p.add_argument("--dim-s", type=int, help="subspace dimension (net command)")
    p.add_argument("--epsilon", type=float, help="net resolution (net command)")
    p.add_argument("--inputs", nargs="*", default=[], help="input JSON results (emit-curve)")
    p.add_argument("--x-field", help="abscissa field (emit-curve)")
    p.add_argument("--y-field", help="ordinate field (emit-curve)")
    return p


def parse_config(argv) -> argparse.Namespace:
    """The parsed flags, with ``quadrature`` as a list of three sizes or None;
    nan or an infinity in a float flag is a usage error."""
    config = build_parser().parse_args(argv)
    # Python 3.11's argparse reads --flag=-- as an empty list, skipping type and choices
    if any(isinstance(value, list) for name, value in vars(config).items() if name != "inputs"):
        raise ValueError("a flag written as --flag=-- has no value")
    for name in ("alpha", "delta", "c_prime", "levy_c", "epsilon"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be a finite number, got {value}")
    sizes = None
    if config.quadrature is not None:
        try:  # a part that is no integer, or other than three parts
            a, b, g = (int(x) for x in config.quadrature.split(","))
        except ValueError:
            raise ValueError("--quadrature expects three comma-separated sizes a,b,g") from None
        sizes = [a, b, g]
    config.quadrature = sizes
    return config


def _need(value, flag: str):
    if value is None:
        raise ValueError(f"this command requires {flag}")
    return value


def _or_default(value, default):
    """An explicit flag value, even 0, is never replaced by the default."""
    return default if value is None else value


def _ws_from(config: argparse.Namespace) -> workspace.WorkingSpace:
    n = _need(config.n, "--n")
    two_j_min = None if config.j_min is None else 2 * config.j_min
    return workspace.build_working_space(n, config.alpha, two_j_min)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if math.isfinite(v) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _run_decompose(config: argparse.Namespace) -> tuple[dict, dict | None]:
    n = _need(config.n, "--n")
    rows = []
    for b in repkit.block_layout(n):
        rows.append(
            {
                "j": b.two_j / 2,
                "two_j": b.two_j,
                "dim_rotation": b.dim_r,
                "dim_multiplicity": b.dim_p,
                "product": b.dim_r * b.dim_p,
            }
        )
    return {"n": n, "blocks": rows, "total": 2**n, "sum_products": sum(r["product"] for r in rows)}, None


def _run_twirl_check(config: argparse.Namespace) -> tuple[dict, dict | None]:
    n = _need(config.n, "--n")
    check_limit(n, 8, "twirl-check", "qubits")  # dense 2^n x 2^n operators
    repkit._require_even(n)  # before the default quadrature is sized from n
    samples = _or_default(config.samples, 10)
    if samples < 1:
        raise ValueError(f"twirl-check needs --samples >= 1, got {samples}")
    quad = (
        channel.QuadratureSpec(*config.quadrature)
        if config.quadrature
        else channel.QuadratureSpec.for_qubits(n)
    )
    # per sample the oracle forms n_beta dense 2^n x 2^n rotations and two 2^n x 2^n phase masks,
    # and each of its n_alpha + n_beta + n_gamma nodes costs at most what 1,000 entries do (one
    # BLAS thread, 2 cores: 5.8e-5 s per node at n = 2, 1.4e-7 s per entry at n = 8)
    nodes = quad.n_alpha + quad.n_beta + quad.n_gamma
    check_limit(
        samples * ((quad.n_beta + 2) * 4**n + 1000 * nodes), privacy.WORK_LIMIT, "twirl-check", "operator entries"
    )
    t = repkit.schur_transform(n)
    worst = 0.0
    with warnings.catch_warnings():
        # the band-limit warning repeats quadrature_sufficient in the payload
        warnings.filterwarnings("ignore", message=r"quadrature .* is below the band limit")
        for i in range(samples):
            rho = random_density_matrix(2**n, derived_rng(config.seed, i))
            exact = channel.twirl(rho, t)
            quadr = channel.twirl_oracle(rho, quad)
            worst = max(worst, framecrypt.trace_norm(exact - quadr))
    return {
        "n": n,
        "n_states": samples,
        "quadrature": dataclasses.asdict(quad),
        "quadrature_sufficient": quad.is_sufficient(n),
        "max_trace_norm_gap": worst,
    }, None


def _run_workspace(config: argparse.Namespace) -> tuple[dict, dict | None]:
    ws = _ws_from(config)
    asym = workspace.asymptotic_k(ws.n, ws.alpha)
    payload = {
        "descriptor": ws.descriptor(),
        "asymptotic_k": asym,
        "ratio_k_to_asymptotic": ws.k / asym,
    }
    return payload, ws.descriptor()


def _run_mean_f(config: argparse.Namespace) -> tuple[dict, dict | None]:
    ws = _ws_from(config)
    samples = _or_default(config.samples, 2000)
    check_limit(samples * ws.k, privacy.WORK_LIMIT, "mean-f", "state coordinates")
    return privacy.mean_f_experiment(ws, samples, config.seed), ws.descriptor()


def _run_concentration(config: argparse.Namespace) -> tuple[dict, dict | None]:
    ws = _ws_from(config)
    samples = _or_default(config.samples, 2000)
    check_limit(samples * ws.k, privacy.WORK_LIMIT, "concentration", "state coordinates")
    report = privacy.concentration_experiment(ws, samples, DEFAULT_GAMMA_GRID, config.levy_c, config.seed)
    report["tail"] = {f"{g:g}": v for g, v in report["tail"].items()}
    report["levy_bound"] = {f"{g:g}": v for g, v in report["levy_bound"].items()}
    return report, ws.descriptor()


def _run_lipschitz(config: argparse.Namespace) -> tuple[dict, dict | None]:
    ws = _ws_from(config)
    n_pairs = _or_default(config.samples, 2000)
    n_near = max(n_pairs // 10, 1)
    # two states per pair, nearby pairs included
    check_limit(2 * (n_pairs + n_near) * ws.k, privacy.WORK_LIMIT, "lipschitz", "state coordinates")
    worst = privacy.lipschitz_check(ws, n_pairs, config.seed)
    worst_near = privacy.lipschitz_check(ws, n_near, config.seed + 1, perturbation=1e-4)
    return (
        {
            "n_pairs": n_pairs,
            "max_ratio": worst,
            "max_ratio_nearby": worst_near,
            "bound": privacy.LIPSCHITZ_BOUND,
        },
        ws.descriptor(),
    )


def _run_haar_moments(config: argparse.Namespace) -> tuple[dict, dict | None]:
    k = _need(config.n, "--n (matrix dimension)")
    return privacy.haar_moment_check(k, _or_default(config.samples, 20000), config.seed), None


def _run_theorem1(config: argparse.Namespace) -> tuple[dict, dict | None]:
    n = _need(config.n, "--n")
    delta = _need(config.delta, "--delta")
    report = privacy.theorem1_experiment(
        n, delta, config.c_prime, n_subspaces=_or_default(config.samples, 5), seed=config.seed
    )
    return report, None


def _run_capacity(config: argparse.Namespace) -> tuple[dict, dict | None]:
    n = _need(config.n, "--n")
    delta = _or_default(config.delta, 0.0)
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    tight, middle, cube = cap.rank_pi_prime_chain(n)
    payload = {
        "n": n,
        "delta": delta,
        "q_perfect": cap.q_perfect(n),
        "c_perfect_asymptotic": cap.c_perfect_asymptotic(n),
        "rank_pi_prime": tight,
        "rank_chain": {"tight": tight, "middle": middle, "cube": cube},
        "min_delta_for_advantage": cap.min_delta_for_advantage(n, config.c_prime),
        "classical_capacity_upper": (
            cap.classical_capacity_upper(n, delta) if delta <= 0.5 else None
        ),
        "thm1_dim_bound": cap.thm1_dim_bound(n, delta, config.c_prime) if delta > 0 else None,
    }
    return payload, None


def _run_net(config: argparse.Namespace) -> tuple[dict, dict | None]:
    dim_s = _need(config.dim_s, "--dim-s")
    epsilon = _need(config.epsilon, "--epsilon")
    net = privacy.build_eps_net(dim_s, epsilon, config.seed)
    return {
        "dim_s": dim_s,
        "epsilon": epsilon,
        "n_points": net.n_points,
        "covering_radius": net.covering_radius,
    }, None


HANDLERS = {
    "decompose": _run_decompose,
    "twirl-check": _run_twirl_check,
    "workspace": _run_workspace,
    "mean-f": _run_mean_f,
    "concentration": _run_concentration,
    "lipschitz": _run_lipschitz,
    "haar-moments": _run_haar_moments,
    "theorem1": _run_theorem1,
    "capacity": _run_capacity,
    "net": _run_net,
}
COMMANDS = (*HANDLERS, "emit-curve")  # emit-curve reads result files, see main


def run(config: argparse.Namespace) -> dict:
    """The result document: the echoed flags, the payload and the workspace
    descriptor.  Wall-clock time stays out of it, so its bytes are stable."""
    handler = HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    if config.samples is not None:
        check_limit(config.samples, SAMPLES_LIMIT, config.command, "samples")
    payload, ws_descriptor = handler(config)
    return {
        "config": vars(config),
        "tool_version": framecrypt.__version__,
        "payload": _jsonable(payload),
        "workspace_descriptor": ws_descriptor,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def canonical_json(data: dict) -> str:
    """Sorted keys, fixed indentation, trailing newline; bitwise stable."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _lookup_field(doc: dict, field: str):
    """The value at a dotted path, looked up in the payload, then the echoed
    config, then the whole document.

    At each level the rest of the path is first tried as one key and only
    then split at its first dot, so keys that hold a dot stay reachable:
    ``tail.0.2`` is ``payload["tail"]["0.2"]``.
    """

    def walk(node, path: str) -> list:  # [value] when found, [] otherwise; a value may be None
        if not isinstance(node, dict):
            return []
        if path in node:
            return [node[path]]
        head, dot, rest = path.partition(".")
        return walk(node[head], rest) if dot and head in node else []

    for root in (doc.get("payload", {}), doc.get("config", {}), doc):
        for value in walk(root, field):
            return value
    raise ValueError(f"field {field!r} not found in result document")


def emit_curve(results: list[dict], x_field: str, y_field: str) -> str:
    """RFC 4180 CSV with one row per result, sorted by the x field."""
    if not all(isinstance(doc, dict) for doc in results):
        raise ValueError("every input must hold a JSON object (a result document)")
    rows = [(_lookup_field(doc, x_field), _lookup_field(doc, y_field)) for doc in results]
    try:
        rows.sort(key=lambda r: r[0])
    except TypeError as exc:
        raise ValueError(f"values of {x_field!r} cannot be ordered: {exc}") from exc
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([x_field, y_field])
    for x, y in rows:
        writer.writerow([x, y])
    return buf.getvalue()


def payload_to_csv(payload: dict) -> str:
    """Flatten one payload's scalar fields into a two-column CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["field", "value"])

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            writer.writerow([prefix, value])

    walk("", payload)
    return buf.getvalue()


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report an error as one canonical JSON object on stderr."""
    print(canonical_json({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr, end="")
    return code


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    """Run one command; the exit status.  numpy's bundled OpenBLAS runs one
    thread for the call, so the output bytes do not depend on the caller's
    thread count and forked sampler workers do not compete with BLAS
    threads for the cores; the caller's count is restored on return."""
    threads = set_blas_threads(1)
    try:
        return _main(argv)
    finally:
        if threads is not None:
            set_blas_threads(threads)


def _main(argv) -> int:
    try:
        config = parse_config(argv)
    except ValueError as exc:
        return _fail("usage", exc, 2)

    timing = None  # emit-curve reports none
    # the run and the write fail alike: json.JSONDecodeError is a ValueError,
    # an unreadable input or an unwritable --out an OSError
    try:
        if config.command == "emit-curve":
            docs = []
            for path in config.inputs:
                with open(path, "r", encoding="utf-8") as fh:
                    docs.append(json.load(fh))
            text = emit_curve(docs, _need(config.x_field, "--x-field"), _need(config.y_field, "--y-field"))
        else:
            start = time.perf_counter()
            doc = run(config)
            timing = f"wall_clock_seconds={time.perf_counter() - start:.3f}"
            text = payload_to_csv(doc["payload"]) if config.fmt == "csv" else canonical_json(doc)
        _write(text, config.out)
    except (ValueError, OSError, AssertionError) as exc:
        return _fail("assertion" if isinstance(exc, AssertionError) else "domain", exc, 1)
    if timing:
        print(timing, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
