"""Span tracer that wraps framecrypt's public functions from outside.

Wrapping is done by patching module attributes.  Many functions are imported
by name into other modules (``random_pure_state`` into ``privacy``,
``workspace_vector`` into ``channel`` and ``privacy``, ``trace_norm`` into the
package namespace), so each wrapper replaces *every* module binding that holds
the original object; a binding left unpatched would silently drop its calls.

Spans are kept in memory as tuples and written as JSON lines on request.
Self time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (home module, function names) per layer; the layer is the module's short name
TARGETS = (
    ("framecrypt.privacy", (
        "f_eval", "mean_f_experiment", "concentration_experiment", "lipschitz_check",
        "sample_subspace", "build_eps_net", "estimate_max_f",
    )),
    ("framecrypt.linalg", ("random_pure_state", "derived_rng", "haar_unitary", "trace_norm", "kron_power")),
    ("framecrypt.workspace", ("build_working_space", "workspace_vector", "embed_state")),
    ("framecrypt.repkit", ("schur_transform", "block_layout", "coupled_position", "rotation_su2")),
    ("framecrypt.channel", ("twirl_oracle", "twirl", "twirl_block")),
    ("framecrypt.cli", ("main", "run", "canonical_json")),
    # the eigensolves inside f evaluation and ascent; framecrypt reaches them
    # as np.linalg.<name>, so the numpy.linalg binding is the only one
    ("numpy.linalg", ("eigvalsh", "eigh")),
)

# counts computed from return values, attributed to the span that produced
# them: span name -> (metric name, unit, count of one return value)
RETURN_COUNTERS = {
    "repkit.schur_transform": ("repkit.schur_transform.bytes", "bytes", lambda t: t.matrix.nbytes),
    "privacy.build_eps_net": ("privacy.net_points", "count", lambda net: net.n_points),
}


def span_name(home: str, func: str) -> str:
    """``privacy.f_eval`` for framecrypt.privacy.f_eval; numpy keeps its full path."""
    return f"{home.removeprefix('framecrypt.')}.{func}"


def span_layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Records one span per call of each wrapped function while active."""

    def __init__(self):
        self.names: list[str] = ["harness.op"]  # index 0: the root span of an operation
        # (name index, start, end, parent span id or -1, operation id)
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of every loaded module binding of a target.

        The bindings are found and the wrappers made on the first call; later
        calls re-apply the same wrappers.
        """
        if self._patches is None:
            self._patches = []
            modules = [m for k, m in sys.modules.items() if k == "framecrypt" or k.startswith("framecrypt.")]
            for home, funcs in TARGETS:
                home_mod = sys.modules[home]
                scan = modules if home.startswith("framecrypt.") else [home_mod]
                for func in funcs:
                    original = getattr(home_mod, func)
                    wrapper = self._wrap(span_name(home, func), original)
                    for mod in scan:
                        if getattr(mod, func, None) is original:
                            self._patches.append((mod, func, original, wrapper))
        for mod, func, _, wrapper in self._patches:
            setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original, _ in self._patches or ():
            setattr(mod, func, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        counter = RETURN_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.op_id)
            if counter is not None:
                self.counters[counter[0]] += counter[2](out)
            return out

        return wrapper

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation and start recording."""
        self.op_id = op_id
        self._op_span = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._op_span)
        self._op_start = time.perf_counter()
        self.active = True

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        self._stack.pop()
        self.spans[self._op_span] = (0, self._op_start, end, -1, self.op_id)

    # -- reporting --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self_times(self.spans)):
            entry = out[self.names[span[0]]]
            entry["calls"] += 1
            entry["self_s"] += self_s
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (idx, start, end, parent, op) in enumerate(self.spans):
                name = self.names[idx]
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": span_layer(name), "start": start,
                    "end": end, "parent": None if parent < 0 else parent, "op": op,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``spans`` holds (name, start, end, parent, op) tuples; parent is the index
    of the parent span or -1.  Child intervals are clipped to the parent and
    merged before subtraction, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
