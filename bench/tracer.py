"""Per-layer tracing of trellislab from outside the package.

`Tracer.installed()` wraps every public module-level function of each layer
module, plus three private boundaries (`Subspace.__post_init__`,
`Mat.__post_init__`, `reduction._next_driver_steps`), and rebinds each
wrapper in every `trellislab.*` module that imported the function by name.
Leaving the context restores the originals, so checks run between traced
ops are not traced.

A span is (name, op id, parent span, start, end).  Every span is appended
to compact arrays in memory and written out only by `write_spans`, at the
end of a run.  When an op ends its spans are folded into per-name totals.
A span's self time is its duration minus the durations of its direct
children; children of one span never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("galois", "trellis", "fragments", "analysis", "reduction", "specfile", "corpus", "cli")
PRIVATE_BOUNDARIES = (
    ("galois", "Subspace", "__post_init__"),
    ("galois", "Mat", "__post_init__"),
    ("reduction", None, "_next_driver_steps"),
)
ROOT = "op"

# Named per-layer metric groups: metric prefix -> span names it sums over.
GROUPS = {
    "galois.kernel": ("galois.kernel",),
    "galois.rref": ("galois.rref", "galois.rank"),
    "galois.lattice": ("galois.lattice", "galois.cross_section", "galois.complement"),
    "galois.validate": ("galois.Subspace.__post_init__", "galois.Mat.__post_init__"),
    "trellis.behavior": ("trellis.behavior",),
    "trellis.dualize": ("trellis.dualize",),
    "fragments.fragment": ("fragments.fragment",),
    "fragments.t_profile": ("fragments.t_observability_profile",),
    "analysis.property_report": ("analysis.property_report",),
    "analysis.connected": ("analysis.connected",),
    "reduction.round": ("reduction._next_driver_steps",),
    "reduction.witness": ("reduction.find_zero_run_witness",),
    "specfile.parse": ("specfile.parse",),
    "specfile.serialize": ("specfile.serialize",),
    "corpus.evaluate_expectation": ("corpus.evaluate_expectation",),
}
ELIMINATIONS = ("kernel", "rref", "rank", "invert", "solve_particular")

# (metric name, unit, better), in report order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [
        ("galois.kernel.calls", "count", "lower"),
        ("galois.kernel.self_s", "s", "lower"),
        ("galois.rref.calls", "count", "lower"),
        ("galois.rref.self_s", "s", "lower"),
        ("galois.lattice.calls", "count", "lower"),
        ("galois.lattice.self_s", "s", "lower"),
        ("galois.validate.calls", "count", "lower"),
        ("galois.validate.self_s", "s", "lower"),
        ("galois.elim.cells", "count", "lower"),
        ("galois.elim.max_cols", "count", "lower"),
        ("trellis.behavior.calls", "count", "lower"),
        ("trellis.behavior.repeat_ratio", "ratio", "lower"),
        ("trellis.dualize.calls", "count", "lower"),
        ("fragments.fragment.calls", "count", "lower"),
        ("fragments.fragment.self_s", "s", "lower"),
        ("fragments.fragment.repeat_ratio", "ratio", "lower"),
        ("fragments.t_profile.calls", "count", "lower"),
        ("fragments.t_profile.self_s", "s", "lower"),
        ("analysis.property_report.self_s", "s", "lower"),
        ("analysis.connected.self_s", "s", "lower"),
        ("analysis.connected.states", "count", "lower"),
        ("reduction.round.calls", "count", "lower"),
        ("reduction.round.self_s", "s", "lower"),
        ("reduction.witness.calls", "count", "lower"),
        ("reduction.witness.self_s", "s", "lower"),
        ("reduction.witness.found_ratio", "ratio", "higher"),
        ("reduction.steps", "count", "lower"),
        ("specfile.parse.calls", "count", "lower"),
        ("specfile.serialize.calls", "count", "lower"),
        ("specfile.bytes", "B", "lower"),
        ("corpus.expectations", "count", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
            and not inspect.isgeneratorfunction(value)
        ):
            yield attr, value


class Tracer:
    """Spans and boundary counters of one traced run."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.max_cols = 0
        self._stack: list[int] = []
        self._op = -1
        self._seen: set = set()
        self._alive: list = []

    # -- span recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.op_id.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one CLI op.  Repeat ratios are scoped to the op, and
        its spans are folded into the totals when it ends."""
        self._op = op_id
        first = len(self.start)
        idx = self._open(self._intern(ROOT))
        try:
            yield
        finally:
            self._close(idx)
            self._seen.clear()
            self._alive.clear()
            self._fold(first)

    def _fold(self, first: int) -> None:
        """Add spans first.. to the per-name totals."""
        n = len(self.start)
        child = [0.0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        for i in range(first, n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            self.self_s[name] += dur - child[i - first]
            self.incl_s[name] += dur
            self.calls[name] += 1

    def _wrap(self, name: str, fn, probe):
        nid = self._intern(name)
        tracer_open, tracer_close = self._open, self._close

        def traced(*args, **kwargs):
            idx = tracer_open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer_close(idx)
            if probe is not None:
                probe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- counters taken at the boundaries -------------------------------------

    def _repeat(self, metric: str, key: tuple, obj) -> None:
        if key in self._seen:
            self.counts[metric] += 1
        else:
            self._seen.add(key)
            # Holding the object for the rest of the op keeps its id unique.
            self._alive.append(obj)

    def _probe_elim(self, args, result) -> None:
        mat = args[0]
        self.counts["galois.elim.cells"] += mat.rows * mat.cols
        self.max_cols = max(self.max_cols, mat.cols)

    def _probe_fragment(self, args, result) -> None:
        t, iv = args[0], args[1]
        self._repeat("fragments.fragment.repeats", ("fragment", id(t), iv.start, iv.length), t)

    def _probe_behavior(self, args, result) -> None:
        self._repeat("trellis.behavior.repeats", ("behavior", id(args[0])), args[0])

    def _probe_connected(self, args, result) -> None:
        t = args[0]
        self.counts["analysis.connected.states"] += sum(t.field.p ** d for d in t.state_dims)

    def _probe_witness(self, args, result) -> None:
        if result is not None:
            self.counts["reduction.witness.found"] += 1

    def _probe_round(self, args, result) -> None:
        if result is not None:
            self.counts["reduction.steps"] += len(result)

    def _probe_parse(self, args, result) -> None:
        self.counts["specfile.bytes"] += len(args[0])

    def _probe_serialize(self, args, result) -> None:
        self.counts["specfile.bytes"] += len(result)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the context."""
        modules = {layer: sys.modules[f"trellislab.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                originals[fn] = f"{layer}.{attr}"
        class_patches = []
        for layer, cls_name, attr in PRIVATE_BOUNDARIES:
            owner = getattr(modules[layer], cls_name) if cls_name else modules[layer]
            fn = vars(owner)[attr]
            name = f"{layer}.{cls_name}.{attr}" if cls_name else f"{layer}.{attr}"
            if cls_name:
                class_patches.append((owner, attr, fn, name))
            else:
                originals[fn] = name
        known = set(originals.values()) | {name for *_, name in class_patches}
        missing = {n for names in GROUPS.values() for n in names} - known
        if missing:
            raise RuntimeError(f"traced boundaries not found: {sorted(missing)}")
        wrappers = {
            fn: self._wrap(name, fn, PROBES.get(name)) for fn, name in originals.items()
        }
        rebound = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trellislab" and not mod_name.startswith("trellislab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    rebound.append((module, attr, value))
        for owner, attr, fn, name in class_patches:
            setattr(owner, attr, self._wrap(name, fn, None))
        try:
            yield
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)
            for owner, attr, fn, _ in class_patches:
                setattr(owner, attr, fn)

    # -- aggregation ----------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics, per traced op unless a ratio or a maximum."""
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        ops = calls.get(ROOT, 0)
        if ops == 0:
            raise ValueError("no traced ops")
        op_total = incl_s[ROOT]
        out: dict[str, float] = {}
        by_layer: Counter = Counter()
        for name, secs in self_s.items():
            by_layer[name.split(".", 1)[0]] += secs
        for layer in LAYERS:
            out[f"{layer}.self_s"] = by_layer[layer] / ops
        for layer in LAYERS:
            out[f"{layer}.share"] = by_layer[layer] / op_total
        for prefix, names in GROUPS.items():
            out[f"{prefix}.calls"] = sum(calls.get(n, 0) for n in names) / ops
            out[f"{prefix}.self_s"] = sum(self_s.get(n, 0.0) for n in names) / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        out["galois.elim.cells"] = c["galois.elim.cells"] / ops
        out["galois.elim.max_cols"] = float(self.max_cols)
        out["trellis.behavior.repeat_ratio"] = ratio(
            c["trellis.behavior.repeats"], calls.get("trellis.behavior", 0)
        )
        out["fragments.fragment.repeat_ratio"] = ratio(
            c["fragments.fragment.repeats"], calls.get("fragments.fragment", 0)
        )
        out["analysis.connected.states"] = c["analysis.connected.states"] / ops
        out["reduction.witness.found_ratio"] = ratio(
            c["reduction.witness.found"], calls.get("reduction.find_zero_run_witness", 0)
        )
        out["reduction.steps"] = c["reduction.steps"] / ops
        out["specfile.bytes"] = c["specfile.bytes"] / ops
        out["corpus.expectations"] = out["corpus.evaluate_expectation.calls"]
        out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: op, index, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.op_id[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


# Counters taken at a boundary: span name -> probe(tracer, args, result).
PROBES = {
    "fragments.fragment": Tracer._probe_fragment,
    "trellis.behavior": Tracer._probe_behavior,
    "analysis.connected": Tracer._probe_connected,
    "reduction.find_zero_run_witness": Tracer._probe_witness,
    "reduction._next_driver_steps": Tracer._probe_round,
    "specfile.parse": Tracer._probe_parse,
    "specfile.serialize": Tracer._probe_serialize,
    **{f"galois.{fn}": Tracer._probe_elim for fn in ELIMINATIONS},
}
