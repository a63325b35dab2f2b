"""Distinguishability experiments on random encoding subspaces.

The central quantity is, for a unit vector phi in the working space,

    f(phi) = || E(|phi><phi|) - rho_0 ||_1,

the trace distance between the channel output and the fixed reference
output.  Small f over a whole subspace S means states encoded in S are
nearly indistinguishable to anyone watching the channel output, while the
dimensions of the working space leave room for many such subspaces.  One
kernel, ``f_evals``, evaluates f on a stack of states with one stacked
eigensolve; ``f_eval`` is its one-state case.  Every sampled state, each
Lipschitz pair included, goes through one sampler, ``_f_on_draws``.  It owns
the generators, one ``derived_rng`` per 64 KiB chunk of states, which fixes
the sampled values; it draws each chunk's plain random states in one call
and normalizes them at once, and hands the kernel a 256 KiB batch of whole
chunks at a time, which sets only the speed.  Lipschitz pairs are drawn and
measured a chunk at a time, their gaps by the formula of np.linalg.norm.
A call with FORK_BYTES of states or more it spreads over the
process's CPUs, in worker processes forked for that one call and reaped
before it returns, each walking a contiguous share of the draws and writing
f into shared memory, with bit-identical values.  States on a subspace
(the probes of estimate_max_f, net points) reach it only as coefficient
rows through ``span``; it forms them a chunk at a time by one stacked
matrix-vector product.  The helpers here evaluate f two
independent ways, estimate its maximum over a subspace (an alternating ascent,
``_ascend_all``, that runs all its starts as one stack of eigensolves per
round, with a proved upper bound on 2-dimensional subspaces from a fixed
covering net and the Lipschitz constant of f), and run the mean /
concentration / smoothness experiments that the theory predicts:

- the mean of f is at most sqrt(D_alpha / D) <= 1 / sqrt(alpha);
- f is 2-Lipschitz in the Euclidean metric on state vectors;
- deviations of f from its median decay like exp2(-C (K-1) gamma^2 / 2).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import mmap
import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from framecrypt.linalg import (
    blas_threads,
    check_limit,
    dagger,
    derived_rng,
    haar_unitary,
    normalize_rows,
    random_pure_state,
    trace_norm,
)
from framecrypt.channel import reduced_blocks, reference_states, twirl_working_state
from framecrypt.workspace import WorkingSpace, build_working_space, workspace_vector

LIPSCHITZ_BOUND = 2.0
NET_SIZE_LIMIT = 200_000  # most points a net may have
ASCENT_ITERS = 80  # alternating-ascent rounds at most
ASCENT_TOL = 1e-12  # ascent stops once a round gains no more than this
ASCENT_RESTARTS = 4  # best random probes that each start one ascent
HAAR_CHUNK = 5000  # unitaries drawn at once by haar_moment_check
HAAR_STACK_LIMIT = 2**26  # bytes of the unitaries drawn at once (64 MiB)
# bytes of the states (not draws) of one _f_on_draws chunk (64 KiB).  Each
# chunk draws from its own generator, so where a chunk holds several draws
# (K <= 2,048 for single states) the sampled values change with this size
F_CHUNK_BYTES = 2**16
# bytes of the states _f_on_draws hands f_evals at once: as many whole chunks
# as fit, and never fewer than one (256 KiB).  It sets the speed only, never a
# value.  One operation of perfbench's sample_small (concentration --n 12,
# lipschitz --n 12, mean-f --n 24) by batch size, one CPU, one BLAS thread,
# 2-core Xeon: time as a share of one chunk per batch, median of 15
# interleaved operations, and the peak of its numpy allocations (tracemalloc).
# A fresh process's peak RSS after one operation moved only at 4 MiB (+0.8 MB):
#   batch       64 KiB   128 KiB  256 KiB  1 MiB   4 MiB
#   time        1.00     0.96     0.95     0.96    1.01
#   peak MiB    2.0      2.1      2.4      4.2     11.5
F_BATCH_BYTES = 2**18
# bytes of all the states of one _f_on_draws call (count x states per draw x
# K x 16) from which it forks workers (4 MiB).  Forked time as a share of
# serial, 2 workers, one BLAS thread, 2-core Xeon, median of 15 interleaved
# calls (forking and reaping an empty share takes about 2.5 ms):
#   K \ states    1 MiB   2 MiB   4 MiB
#   72            1.13    0.96    0.62
#   544           0.94    0.68    0.58
#   8,200         0.97    0.81    0.72
FORK_BYTES = 2**22
THEOREM1_BUDGET = 200  # random probes per subspace in theorem1_experiment
# most state coordinates (states handled x K; twirl-check: operator entries) one
# run may touch: the cap theorem1_experiment and the CLI check before any draw
WORK_LIMIT = 10**9
_ASSERT_SLACK = 1e-9


@dataclass(frozen=True)
class SubspaceSample:
    """An encoding subspace drawn from the invariant measure."""

    basis: np.ndarray = field(repr=False)  # ambient_dim x dim_s, orthonormal columns

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim_s(self) -> int:
        return self.basis.shape[1]

    def __post_init__(self):
        gram = self.basis.conj().T @ self.basis
        if not np.allclose(gram, np.eye(self.dim_s), rtol=0.0, atol=1e-10):
            raise ValueError("basis columns are not orthonormal")


@dataclass(frozen=True)
class EpsNet:
    """The points of :func:`build_eps_net`: within ``covering_radius`` <=
    epsilon/2 of every unit vector of C^dim_s, up to a global phase.

    With D = 2 dim_s - 1 and m = ceil(2 sqrt(D-1) / epsilon), the points are
    the normalised cell centres of an m^(D-1) grid on each of the 2D faces of
    [-1, 1]^D, read as (x0, x1 + i x2, ...).  Why they cover: turn a unit
    vector's phase until its first coordinate is real, giving x in R^D;
    x/||x||_inf lies on a face within sqrt(D-1)/m of a cell centre p; and
    z -> z/||z|| is the metric projection onto the unit ball on ||z|| >= 1,
    hence 1-Lipschitz, so x lies within sqrt(D-1)/m of p/||p||.
    """

    points: np.ndarray = field(repr=False)  # n_points x dim_s
    covering_radius: float

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass
class ConcentrationReport:
    """Summary of a batch of f evaluations on random working-space states."""

    n_samples: int
    mean_f: float
    median_f: float
    tail: dict  # gamma -> empirical P(|f - median| > gamma)
    levy_bound: dict  # gamma -> exp2(-levy_c (K-1) gamma^2 / 2)
    fitted_c: float | None
    seeds: list
    std_f: float
    stderr_f: float
    bound_inv_sqrt_alpha: float
    bound_ratio: float


def _centred_blocks(v: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """Stack of T_i - I/d_p: the per-block difference of channel output and
    reference on the multiplicity space."""
    t = reduced_blocks(v, ws)
    diag = np.arange(ws.d_alpha)
    t[..., diag, diag] -= 1.0 / ws.d_p
    return t


def _trace_norm_total(evals: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| over the last two axes of a (..., |Y|, D_alpha)
    stack, block by block; the result has the leading shape.

    The block totals are added one after another in block order, as cumsum
    adds them: ndarray.sum pairs them up once there are eight or more, which
    moves the last bits.
    """
    return np.cumsum(np.abs(evals).sum(axis=-1), axis=-1)[..., -1]


def f_chunk(k: int, states_per_draw: int = 1) -> int:
    """Draws per chunk of _f_on_draws when each draw holds states_per_draw
    states of K = k coordinates: as many as F_CHUNK_BYTES of states holds,
    and never fewer than one draw."""
    return max(1, F_CHUNK_BYTES // (states_per_draw * k * np.dtype(complex).itemsize))


def f_evals(phis: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """f on every state of an (m, ..., K) stack of working-space coordinates.

    The one kernel behind every f value here: one stacked eigenvalue problem
    over (m, ..., |Y|, D_alpha, D_alpha), then each state's block totals
    added in block order, so a state's value does not depend on the states
    next to it.  The result has the stack's leading shape; an empty (0, K)
    stack gives an empty array.  It does not chunk: _f_on_draws hands it at
    most one batch of states.
    """
    phis = np.asarray(phis, dtype=complex)
    if phis.ndim < 2 or phis.shape[-1] != ws.k:
        raise ValueError(f"states must form an (m, ..., {ws.k}) stack, got shape {phis.shape}")
    return _trace_norm_total(np.linalg.eigvalsh(_centred_blocks(phis, ws)))


def f_eval(phi: np.ndarray, ws: WorkingSpace) -> float:
    """Trace distance between the channel output for phi and the reference.

    Computed on the multiplicity space, where both operators live after the
    rotation factors are traced away; block-diagonal structure makes this
    one stacked eigenvalue problem over the kept blocks.  The one-state case
    of f_evals; phi is the K working-space coordinates.
    """
    return float(f_evals(workspace_vector(phi, ws)[None, :], ws)[0])


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(state_bytes: int, chunks: int) -> int:
    """Processes an _f_on_draws call of ``state_bytes`` of states in ``chunks``
    chunks is spread over: one per CPU of the affinity mask and at most one
    per chunk, from FORK_BYTES on, where the process can fork and BLAS runs
    one thread (more would make the workers' and BLAS's threads compete for
    the cores); otherwise 1, the caller alone."""
    if state_bytes < FORK_BYTES or not hasattr(os, "fork") or blas_threads() != 1:
        return 1
    return min(_cpus(), chunks)


def _shared_empty(shape: tuple, shared: bool) -> np.ndarray:
    """np.empty(shape); with ``shared``, in an anonymous shared mapping, so
    that what forked workers write into it reaches the caller."""
    if not shared:
        return np.empty(shape)
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, size * np.dtype(float).itemsize), count=size).reshape(shape)


def _child(run, share: range, stop: mmap.mmap, report: int) -> None:
    """Body of a forked worker: run(share, stop), then os._exit, so the
    child never returns into its caller's code, flushes no stdio buffer and
    runs no atexit handler.  An exception sets ``stop`` and is pickled to the
    pipe end ``report``; one that does not pickle and load back is sent as a
    ChildProcessError holding its repr."""
    code = 1
    try:
        try:
            run(share, stop)
            code = 0
        except BaseException as exc:
            stop[0] = 1
            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(ChildProcessError(f"a sampler worker raised {exc!r}"))
            with open(report, "wb") as fh:
                fh.write(data)
    finally:
        os._exit(code)


def _reap(children: list) -> BaseException | None:
    """Wait for every (pid, pipe read end) child; return the first one's
    reported exception, a ChildProcessError for the first that ended
    without a report (killed by a signal), or None."""
    error = None
    for pid, read in children:
        try:
            with open(read, "rb") as fh:
                data = fh.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if error is None and data:
            error = pickle.loads(data)  # bytes only this call's own child wrote
        elif error is None and status:
            how = f"by signal {-status}" if status < 0 else f"with status {status}"
            error = ChildProcessError(f"a sampler worker ended {how} without a result")
    return error


def _fan_out(run, shares: list) -> None:
    """run(share, stop) for every share (a range of draws) at once.

    The caller takes shares[0]; each other share runs in a child forked
    here (see _child) and reaped before the call returns, whether it
    succeeded or failed.  ``stop`` is a one-byte shared mapping that run
    checks before every chunk; a share that raises sets it, so every share
    ends at its next chunk.  The caller's own exception is raised first,
    then the first child's in share order.  With one share nothing forks.
    """
    stop = mmap.mmap(-1, 1)
    children = []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of forking while other threads exist.
                    # Here they are OpenBLAS's idle pool, which its own fork
                    # handler shuts down first, and the child runs only run
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:  # no child: its pipe is closed here, not reaped
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(run, share, stop, write)  # never returns
            os.close(write)
            children.append((pid, read))
        run(shares[0], stop)
    except BaseException:
        stop[0] = 1
        raise
    finally:
        error = _reap(children)
    if error is not None:
        raise error


def _f_on_draws(count: int, ws: WorkingSpace, draw=None, *, stream=None, shape=(), span=None, per_draw=None):
    """f on the states of draws 0, ..., count - 1, with result shape (count, *shape).

    The one loop here that draws and chunks states.  A draw is a
    (*shape, K) stack of states: one state for shape (), a pair for (2,).
    Draws are made f_chunk(K, states per draw) at a time, and with
    ``stream`` = (seed, *prefix) the sampler owns the generators: chunk c
    uses derived_rng(seed, *prefix, c).  With ``span`` = (basis, coeffs),
    draw i is the state basis @ coeffs[i], and each chunk's states are
    formed at once by _span_states.  With ``draw``, draw(m, rng) gives the
    chunk's first m draws as an (m, *shape, K) stack, rng being the chunk's
    generator (None without a stream), which it must consume draw by draw.
    With neither, the sampler draws a chunk's states itself in one
    standard_normal call of shape (draws, *shape, 2, K), each state's real
    parts, then its imaginary parts, and normalizes the chunk with
    normalize_rows: the states random_pure_state would give, called once
    per state on the chunk's generator, bit for bit.  So a partial last
    chunk draws a prefix of the full chunk's states, and where a chunk
    holds one draw (K > 2,048 for single states), draw i uses
    derived_rng(seed, *prefix, i).  With ``per_draw``, per_draw(states) is
    one float per draw of an (m, *shape, K) stack, and the call returns
    (f, those floats).

    The chunk fixes the values; the batch, the whole chunks in
    F_BATCH_BYTES of states (at least one), sets only the speed.  Each
    share fills one reused batch buffer chunk by chunk, checking ``stop``
    before every chunk, and hands it to f_evals whole, so the states of all
    draws never exist at once.  A call of FORK_BYTES of states or more is
    shared by _fan_out among the processes _workers allows, each share a
    contiguous run of whole chunks batched from its own start; its results
    go to shared memory.  A chunk's generator depends only on its index,
    and a state's f does not depend on the states next to it, so the values
    are the same bit for bit at any batch size and CPU count.  count must
    be positive.
    """
    per_draw_states = math.prod(shape)
    state_bytes = per_draw_states * ws.k * np.dtype(complex).itemsize
    full = f_chunk(ws.k, per_draw_states)
    chunk = min(full, count)
    batch = min(count, full * max(1, F_BATCH_BYTES // (full * state_bytes)))
    chunks = -(-count // chunk)
    workers = _workers(count * state_bytes, chunks)
    edges = [min(count, chunks * w // workers * chunk) for w in range(workers + 1)]
    fs = _shared_empty((count, *shape), workers > 1)
    values = _shared_empty((count,), workers > 1) if per_draw is not None else None

    def run(share: range, stop: mmap.mmap) -> None:
        states = np.empty((min(batch, len(share)), *shape, ws.k), dtype=complex)
        for first in range(share.start, share.stop, batch):
            last = min(first + batch, share.stop)
            for start in range(first, last, chunk):
                if stop[0]:
                    return
                end = min(start + chunk, last)
                rows = states[start - first : end - first]
                rng = derived_rng(*stream, start // chunk) if stream else None
                if span is not None:
                    rows[:] = _span_states(span[0], span[1][start:end])
                elif draw is not None:
                    rows[:] = draw(end - start, rng)
                else:
                    normals = rng.standard_normal((len(rows), *shape, 2, ws.k))
                    rows.real = normals[..., 0, :]
                    rows.imag = normals[..., 1, :]
                    # freed before normalize_rows' temporaries: at K = 78,561 a
                    # share then holds no more at once than random_pure_state
                    del normals
                    normalize_rows(rows)
            filled = states[: last - first]
            if values is not None:
                values[first:last] = per_draw(filled)
            fs[first:last] = f_evals(filled, ws)

    _fan_out(run, [range(edges[w], edges[w + 1]) for w in range(workers)])
    return fs if values is None else (fs, values)


def f_eval_direct(phi: np.ndarray, ws: WorkingSpace) -> float:
    """f via the full channel output: materialize E(|phi><phi|) - rho_0 block
    by block on the complete (2j+1) x multiplicity spaces and sum trace norms.

    trace_norm splits each block into its components, (2j+1) copies of one
    D_alpha x D_alpha block and zeros, so this route solves eigenproblems of
    the same size as f_eval's.  The two routes stay independent through the
    materialization and the component finder, not through eigensolve size."""
    out = twirl_working_state(phi, ws)
    ref = reference_states(ws)
    total = 0.0
    for tj in ws.y:
        total += trace_norm(out.blocks[tj] - ref.blocks[tj])
    return total


def helstrom_distinguish(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Best success probability of telling two equiprobable states apart."""
    rho1, rho2 = np.asarray(rho1), np.asarray(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError("states must share a dimension")
    return 0.5 + 0.25 * trace_norm(rho1 - rho2)


def sample_subspace(ws: WorkingSpace, dim_s: int, seed: int) -> SubspaceSample:
    """Subspace of the working space drawn from the invariant measure: the first
    dim_s columns of a K x K Haar unitary, refused above HAAR_STACK_LIMIT bytes.

    The basis is a contiguous copy of those columns, so the unitary is freed.
    """
    if not 1 <= dim_s <= ws.k:
        raise ValueError(f"dim_s must lie in [1, {ws.k}], got {dim_s}")
    check_limit(ws.k**2 * np.dtype(complex).itemsize, HAAR_STACK_LIMIT, f"a subspace of K={ws.k}", "unitary bytes")
    basis = haar_unitary(ws.k, seed)[:, :dim_s].copy()
    return SubspaceSample(basis=basis)


# ---------------------------------------------------------------------------
# covering nets and certified maxima
# ---------------------------------------------------------------------------

def _net_grid(dim_s: int, epsilon: float) -> tuple[int, int | float]:
    """D = 2 dim_s - 1 and EpsNet's cells m per face edge (inf for a subnormal epsilon), both checked."""
    if not (1 <= dim_s <= 3 and 0.0 < epsilon <= 1.0):
        raise ValueError(f"a net needs dim_s in {{1, 2, 3}} and epsilon in (0, 1], got {dim_s} and {epsilon}")
    d = 2 * dim_s - 1
    cells = 2.0 * math.sqrt(d - 1) / epsilon
    return d, max(1, math.ceil(cells)) if cells < math.inf else math.inf


def net_size(dim_s: int, epsilon: float) -> int:
    """build_eps_net's exact point count 2 D m^(D-1), refused over NET_SIZE_LIMIT; it builds nothing."""
    d, m = _net_grid(dim_s, epsilon)
    n_points = 2 * d * m ** (d - 1)
    check_limit(n_points, NET_SIZE_LIMIT, f"a net with epsilon={epsilon} on dim_s={dim_s}", "points")
    return n_points


def build_eps_net(dim_s: int, epsilon: float, seed: int) -> EpsNet:
    """The cube-surface net of ``EpsNet``, counted and refused by net_size first.

    It draws no random numbers: ``seed`` is unused and stays in the signature
    only because perfbench calls build_eps_net with three arguments.
    """
    n_points = net_size(dim_s, epsilon)
    d, m = _net_grid(dim_s, epsilon)
    centres = (2.0 * np.arange(m) + 1.0) / m - 1.0
    face = np.array(list(itertools.product(centres, repeat=d - 1))).reshape(m ** (d - 1), d - 1)
    x = np.concatenate([np.insert(face, axis, sign, axis=1) for axis in range(d) for sign in (1.0, -1.0)])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    points = np.empty((n_points, dim_s), dtype=complex)
    points[:, 0] = x[:, 0]
    points[:, 1:] = x[:, 1::2] + 1j * x[:, 2::2]
    return EpsNet(points=points, covering_radius=math.sqrt(d - 1) / m)


class MaxFEstimate(NamedTuple):
    """Lower bound on max f over a subspace, and a certified upper bound
    when one is available."""

    lower_bound: float
    certified_upper_bound: float | None


def _span_states(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The states basis @ c for every row c of an (m, dim_s) stack, shape (m, K).

    One stacked matrix-vector product, which gives each row the bits of its
    own basis @ c; the matrix-matrix product coeffs @ basis.T rounds
    differently and would move the seeded theorem1 output.
    """
    return np.matmul(basis, coeffs[..., None])[..., 0]


def _ascend_all(starts: np.ndarray, basis: np.ndarray, ws: WorkingSpace) -> tuple[np.ndarray, np.ndarray]:
    """Alternating maximization of f over the unit sphere of span(basis),
    from every row of an (r, dim_s) stack of starts at once.

    f(phi) = max over Hermitian W with ||W||_inf <= 1 of tr[W (F(phi) - ref)],
    so alternating 'best W for phi' (the eigenvalue-sign operator) with 'best
    phi for W' (top eigenvector of the lifted quadratic form) increases f
    monotonically.

    Each round makes one block eigh, one einsum, one quad product and one
    dim_s x dim_s eigh for the starts still running, each a stack whose rows
    have the bits of the one-start call.  A start leaves the stack in the
    round that gains no more than ASCENT_TOL, keeping the larger of its last
    two values, or after ASCENT_ITERS rounds, so every start runs as it
    would alone.  Returns each start's best value and final coefficients.
    """
    # one norm per start: norm(starts, axis=1) adds the squares in another order
    coeffs = starts / np.array([np.linalg.norm(c) for c in starts])[:, None]
    best = np.full(len(starts), -np.inf)
    running = np.arange(len(starts))
    basis_blocks = ws.blocks(basis.T)  # (dim_s, |Y|, D, D_alpha)
    for _ in range(ASCENT_ITERS):
        evals, evecs = np.linalg.eigh(_centred_blocks(_span_states(basis, coeffs[running]), ws))
        vals = _trace_norm_total(evals)
        stops = vals <= best[running] + ASCENT_TOL
        best[running] = np.maximum(best[running], vals)  # vals where the round gained
        running, evals, evecs = running[~stops], evals[~stops], evecs[~stops]
        if not running.size:
            break
        w = (evecs * np.sign(evals)[..., None, :]) @ dagger(evecs)
        # sum_j I_D (x) W_j^T on every basis column; einsum, not matmul,
        # whose different rounding would move the seeded theorem1 output
        lifted = np.einsum("sjml,rjkl->rsjmk", basis_blocks, w).reshape(len(running), *basis.shape[::-1])
        quad = basis.conj().T @ np.swapaxes(lifted, -1, -2)
        coeffs[running] = np.linalg.eigh((quad + dagger(quad)) / 2.0)[1][..., -1]
    return best, coeffs


def estimate_max_f(
    sample: SubspaceSample,
    ws: WorkingSpace,
    budget: int,
    seed: int,
    net_epsilon: float = 0.3,
) -> MaxFEstimate:
    """Estimate max of f over the unit sphere of the sampled subspace.

    The lower bound comes from ``budget`` random probes refined by alternating
    ascent from the best ASCENT_RESTARTS of them, all run at once by
    _ascend_all.  For dim_s = 1, f is phase invariant and the single value
    is exact; for dim_s = 2 the net of build_eps_net plus the Lipschitz
    constant yields a proved upper bound as well.
    """
    if sample.ambient_dim != ws.k:
        raise ValueError("subspace does not belong to this working space")
    if budget < 1:
        raise ValueError("budget must be positive")
    basis = sample.basis
    if sample.dim_s == 1:
        val = f_eval(basis[:, 0], ws)
        return MaxFEstimate(val, val)

    probes = random_pure_state(sample.dim_s, derived_rng(seed, 0), size=budget)
    vals = _f_on_draws(budget, ws, span=(basis, probes))
    order = np.argsort(vals)[::-1][:ASCENT_RESTARTS]
    lower = max(float(vals.max()), float(_ascend_all(probes[order], basis, ws)[0].max()))

    certified = None
    if sample.dim_s == 2:
        net = build_eps_net(2, net_epsilon, seed)
        net_vals = _f_on_draws(net.n_points, ws, span=(basis, net.points))
        lower = max(lower, float(net_vals.max()))
        # f is phase invariant and 2-Lipschitz, and every state lies within
        # covering_radius <= eps/2 of a net point: max f <= net max + eps
        certified = float(net_vals.max()) + float(net_epsilon)
    return MaxFEstimate(lower, certified)


# ---------------------------------------------------------------------------
# sampling experiments
# ---------------------------------------------------------------------------

def _sampled_report(ws: WorkingSpace, n_samples: int, seed: int) -> tuple[np.ndarray, ConcentrationReport]:
    """f on n_samples random states (stream (seed,) of _f_on_draws) and the
    statistics both experiments report; the tail fields are left empty."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    fs = _f_on_draws(n_samples, ws, stream=(seed,))
    std = float(fs.std(ddof=1))
    return fs, ConcentrationReport(
        n_samples=n_samples,
        mean_f=float(fs.mean()),
        median_f=float(np.median(fs)),
        tail={},
        levy_bound={},
        fitted_c=None,
        seeds=[int(seed)],
        std_f=std,
        stderr_f=std / math.sqrt(n_samples),
        bound_inv_sqrt_alpha=1.0 / math.sqrt(ws.alpha),
        bound_ratio=math.sqrt(ws.d_alpha / ws.d),
    )


def mean_f_experiment(ws: WorkingSpace, n_samples: int, seed: int) -> ConcentrationReport:
    """Sample f and check the mean and median against their predicted bounds.

    Raises AssertionError if the empirical mean exceeds 1/sqrt(alpha) (or the
    tighter sqrt(d_alpha/d)) by more than three standard errors, or if the
    median exceeds twice the mean.
    """
    _, r = _sampled_report(ws, n_samples, seed)
    mean, se = r.mean_f, r.stderr_f
    if mean > r.bound_inv_sqrt_alpha + 3.0 * se:
        raise AssertionError(f"mean f {mean} exceeds 1/sqrt(alpha)={r.bound_inv_sqrt_alpha} + 3 SE")
    if mean > r.bound_ratio + 3.0 * se:
        raise AssertionError(f"mean f {mean} exceeds sqrt(d_alpha/d)={r.bound_ratio} + 3 SE")
    if r.median_f > 2.0 * mean + _ASSERT_SLACK:
        raise AssertionError(f"median {r.median_f} exceeds twice the mean {mean}")
    return r


def concentration_experiment(
    ws: WorkingSpace,
    n_samples: int,
    gamma_grid,
    levy_c: float,
    seed: int,
) -> ConcentrationReport:
    """Empirical tail of |f - median| against the exponential reference curve.

    ``levy_bound`` is that curve, exp2(-levy_c (K-1) gamma^2 / 2), for the
    positive constant ``levy_c``.  ``fitted_c`` is the largest constant c
    for which exp2(-c (K-1) gamma^2 / 2) majorizes the observed tail on the
    whole grid (None when every observed tail is zero, i.e. no finite
    constraint).
    """
    gammas = [float(g) for g in gamma_grid]
    if not gammas or not all(g > 0.0 for g in gammas):  # refuses nan too
        raise ValueError("gamma grid must be positive")
    if not levy_c > 0.0:
        raise ValueError("levy_c must be positive")
    fs, report = _sampled_report(ws, n_samples, seed)
    dev = np.abs(fs - report.median_f)
    tail = {g: float(np.mean(dev > g)) for g in gammas}
    levy = {g: 2.0 ** (-levy_c * (ws.k - 1) * g**2 / 2.0) for g in gammas}
    constraints = [
        -2.0 * math.log2(t) / ((ws.k - 1) * g**2) for g, t in tail.items() if t > 0.0
    ]
    fitted = min(constraints) if constraints else None
    return dataclasses.replace(report, tail=tail, levy_bound=levy, fitted_c=fitted)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) for every row of an (m, K) complex stack, bit for bit.

    Its formula, sqrt(re . re + im . im), with each dot product a stacked
    matmul of a row by its column, which gives the bits of ndarray.dot
    (np.vecdot would do, but numpy before 2.0 lacks it).  A row sum such as
    norm(v, axis=-1) adds in another order.
    """
    re, im = v.real[:, None, :], v.imag[:, None, :]
    return np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0]


def lipschitz_check(
    ws: WorkingSpace,
    n_pairs: int,
    seed: int,
    perturbation: float | None = None,
) -> float:
    """Largest |f(phi) - f(psi)| / ||phi - psi|| over sampled pairs.

    With ``perturbation`` set, psi is phi plus Gaussian noise of that scale
    (renormalized), stressing the bound where it is tightest.  Pairs closer
    than 1e-13 are left out of the ratio, and the result is 0.0 when every
    pair is.  Asserts the ratio never exceeds 2 (plus roundoff slack);
    returns the maximum ratio.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    def nearby(m: int, rng: np.random.Generator) -> np.ndarray:
        # each pair's normals in the order it drew them alone: phi's real and
        # imaginary parts (random_pure_state), then the noise's
        normals = rng.standard_normal((m, 4, ws.k))
        pairs = np.empty((m, 2, ws.k), dtype=complex)
        phi, psi = pairs[:, 0], pairs[:, 1]
        phi.real, phi.imag = normals[:, 0], normals[:, 1]
        normalize_rows(phi)
        psi[:] = phi + perturbation * (normals[:, 2] + 1j * normals[:, 3])
        psi /= _norms(psi)[:, None]
        return pairs

    draw = None if perturbation is None else nearby
    gap = lambda pairs: _norms(pairs[:, 0] - pairs[:, 1])  # noqa: E731
    fs, gaps = _f_on_draws(n_pairs, ws, draw, stream=(seed,), shape=(2,), per_draw=gap)
    kept = gaps >= 1e-13  # closer pairs measure roundoff, not the slope of f
    worst = float((np.abs(fs[kept, 0] - fs[kept, 1]) / gaps[kept]).max(initial=0.0))
    if worst > LIPSCHITZ_BOUND + _ASSERT_SLACK:
        raise AssertionError(f"observed Lipschitz ratio {worst} exceeds 2")
    return worst


# ---------------------------------------------------------------------------
# unitary moment checks
# ---------------------------------------------------------------------------

def haar_fourth_moment(k: int, i: int, j: int, kk: int, l: int, m: int, n: int, p: int, q: int) -> float:
    """E[U_ij conj(U_kl) U_mn conj(U_pq)] for a Haar unitary on C^k (0-based).

    The standard two-permutation Weingarten expression for degree-2 moments.
    """
    if k < 2:
        raise ValueError("closed form requires k >= 2")
    d = lambda a, b: 1.0 if a == b else 0.0  # noqa: E731
    term_plus = d(i, kk) * d(j, l) * d(m, p) * d(n, q) + d(i, p) * d(j, q) * d(kk, m) * d(l, n)
    term_minus = d(i, kk) * d(j, q) * d(l, n) * d(m, p) + d(i, p) * d(j, l) * d(kk, m) * d(n, q)
    return (term_plus - term_minus / k) / (k**2 - 1)


def haar_moment_check(k: int, n_samples: int, seed: int) -> dict:
    """Monte Carlo fourth moments of Haar unitaries against the closed form.

    Checks E|U00|^4, E|U00|^2|U01|^2 and the cross term
    E[U00 conj(U01) U11 conj(U10)], each within four standard errors, plus
    the exact per-sample row normalization.  Returns a report dict.
    """
    if k < 2:
        raise ValueError("need dimension k >= 2")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    chunk = min(HAAR_CHUNK, n_samples)
    stack_bytes = chunk * k * k * np.dtype(complex).itemsize
    check_limit(stack_bytes, HAAR_STACK_LIMIT, f"a stack of {chunk} unitaries of k={k}", "bytes")
    m_abs4 = np.empty(n_samples)
    m_cross2 = np.empty(n_samples)
    m_loop = np.empty(n_samples, dtype=complex)
    for block_idx, start in enumerate(range(0, n_samples, HAAR_CHUNK)):
        us = haar_unitary(k, derived_rng(seed, block_idx), size=min(HAAR_CHUNK, n_samples - start))
        row_norm = np.abs(us[:, 0, :]) ** 2
        if np.max(np.abs(row_norm.sum(axis=1) - 1.0)) > 1e-10:
            raise AssertionError("sampled unitaries have non-normalized rows")
        u00, u01 = us[:, 0, 0], us[:, 0, 1]
        u10, u11 = us[:, 1, 0], us[:, 1, 1]
        m_abs4[start : start + len(us)] = np.abs(u00) ** 4
        m_cross2[start : start + len(us)] = (np.abs(u00) * np.abs(u01)) ** 2
        m_loop[start : start + len(us)] = u00 * u01.conj() * u11 * u10.conj()

    exact = {
        "abs4": haar_fourth_moment(k, 0, 0, 0, 0, 0, 0, 0, 0),
        "abs2abs2": haar_fourth_moment(k, 0, 0, 0, 0, 0, 1, 0, 1),
        "loop": haar_fourth_moment(k, 0, 0, 0, 1, 1, 1, 1, 0),
    }
    report = {"k": k, "n_samples": n_samples, "exact": exact, "estimate": {}, "z": {}}
    for name, samples in (("abs4", m_abs4), ("abs2abs2", m_cross2), ("loop", m_loop.real)):
        est = float(samples.mean())
        se = float(samples.std(ddof=1)) / math.sqrt(n_samples)
        z = abs(est - exact[name]) / se if se > 0 else 0.0
        report["estimate"][name] = est
        report["z"][name] = float(z)
        if z > 4.0:
            raise AssertionError(f"moment {name} off by {z:.2f} standard errors")
    imag_se = float(m_loop.imag.std(ddof=1)) / math.sqrt(n_samples)
    imag_z = abs(float(m_loop.imag.mean())) / imag_se if imag_se > 0 else 0.0
    report["estimate"]["loop_imag"] = float(m_loop.imag.mean())
    report["z"]["loop_imag"] = float(imag_z)
    if imag_z > 4.0:
        raise AssertionError(f"cross moment has spurious imaginary part ({imag_z:.2f} SE)")
    return report


# ---------------------------------------------------------------------------
# the headline experiment
# ---------------------------------------------------------------------------

def theorem1_experiment(n: int, delta: float, c_prime: float, n_subspaces: int, seed: int) -> dict:
    """Sample subspaces at the dimension the privacy bound permits.

    ``delta`` in (0, 2] is the privacy level, from which the canonical
    choices follow: alpha = 36/delta^2 and the net resolution epsilon =
    delta/3.  ``c_prime`` is the additive constant of the subspace dimension
    2^(3 log2 n + 3.5 log2 delta + c_prime).  Desk-scale parameters are often
    infeasible (the multiplicity slice truncates to zero, or the dimension
    is below one state or beyond the whole working space); those runs return
    a structured report with ``feasible = False`` rather than raising.  A
    feasible run whose state coordinates exceed WORK_LIMIT is refused before
    the first draw.
    """
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    if n_subspaces < 1:
        raise ValueError("need at least one subspace")
    alpha = 36.0 / delta**2 if delta**2 > 0.0 else math.inf  # delta**2 underflows below 1e-162
    epsilon = delta / 3.0
    bits = 3.0 * math.log2(n) + 3.5 * math.log2(delta) + c_prime if n > 0 else None  # n <= 0: no log
    base = {
        "n": n,
        "delta": delta,
        "alpha": alpha,
        "c_prime": c_prime,
        "dim_bits": bits,
        "feasible": False,
    }
    try:
        ws = build_working_space(n, alpha)
    except ValueError as exc:
        base["reason"] = str(exc)
        return base
    base["workspace"] = ws.descriptor()
    if bits >= 1024:  # 2.0**bits overflows, and no working space comes near it
        return {**base, "dim_s": None, "reason": f"dimension bound 2^{bits} exceeds the working space (K={ws.k})"}
    dim_s = math.floor(2.0**bits)
    base["dim_s"] = dim_s
    if dim_s < 1:
        base["reason"] = "dimension bound is below a single state"
        return base
    if dim_s > ws.k:
        base["reason"] = f"dimension bound {dim_s} exceeds the working space (K={ws.k})"
        return base
    # states of K coordinates per subspace: its K x K unitary, the random
    # probes, the dim_s basis columns every ascent round lifts, and the net
    per_subspace = ws.k + THEOREM1_BUDGET + ASCENT_RESTARTS * ASCENT_ITERS * dim_s
    if dim_s == 2:
        per_subspace += net_size(2, epsilon)
    what = f"theorem1 with {n_subspaces} subspaces of {per_subspace} states of K={ws.k}"
    check_limit(n_subspaces * per_subspace * ws.k, WORK_LIMIT, what, "state coordinates")

    subspaces = []
    n_violating = 0
    for s in range(n_subspaces):
        sub_seed = int(derived_rng(seed, s).integers(2**63))
        sub = sample_subspace(ws, dim_s, sub_seed)
        est = estimate_max_f(sub, ws, budget=THEOREM1_BUDGET, seed=sub_seed, net_epsilon=epsilon)
        violated = est.lower_bound > delta
        n_violating += int(violated)
        subspaces.append(
            {
                "seed": sub_seed,
                "lower_bound": est.lower_bound,
                "certified_upper_bound": est.certified_upper_bound,
                "violates_delta": bool(violated),
            }
        )
    base.update(
        feasible=True,
        subspaces=subspaces,
        fraction_violating=n_violating / n_subspaces,
    )
    return base
