"""Per-layer spans and counts, recorded by wrapping reltree's functions.

Modules import names from each other directly (``from .ldt import
partition_ldt``), so each function is wrapped where its callers look it up,
not only where it is defined.  A wrapper records one span (name, start, end,
parent) and may add exact counts read from the call's arguments and result.
Spans stay in memory until the run ends.  A function that no longer exists
at its lookup site makes that layer's metrics absent instead of failing.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# Counter hooks read only the arguments and the result; an exception of one
# of these kinds means the program's interface moved, so the counter is absent.
_HOOK_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


def _count_best_split(t: "Tracer", args, kwargs, result) -> None:
    ldt, params = args[0], args[1]
    t.add("tree.best_split_column_rows", len(ldt.columns) * len(ldt))
    if t.pending_extension is not None and ldt is t.pending_extension:
        t.pending_extension = None
        if result is not None and result[1] > params.min_ig:
            t.add("ldt.extend_useful", 1)


def _count_partition(t: "Tracer", args, kwargs, result) -> None:
    ldt = args[0]
    t.add("ldt.partition_cells", len(ldt.columns) * len(ldt))


def _count_extend_ldt(t: "Tracer", args, kwargs, result) -> None:
    if result is not None:
        t.add("ldt.extend_returned", 1)
        t.pending_extension = result


def _count_restrict(t: "Tracer", args, kwargs, result) -> None:
    t.add("joinpath.restrict_rows", len(result.rows))


def _count_features(t: "Tracer", args, kwargs, result) -> None:
    inst = args[1]
    t.add("features.columns", len(result))
    t.add("features.cells", len(result) * inst.n_instances)
    if not inst.path.is_root:
        t.add("features.paths", 1)


def _count_flat(t: "Tracer", args, kwargs, result) -> None:
    t.add("eager.flat_cells", len(result.columns) * result.n_rows)


def _count_loaded_rows(t: "Tracer", args, kwargs, result) -> None:
    t.add("storage.rows", sum(table.n_rows for table in result.tables.values()))


@dataclass(frozen=True)
class SpanSpec:
    name: str  # "<module>.<function>", the defining module
    sites: tuple[str, ...]  # "module:attribute" or "module:Class.method" lookup sites
    hook: object = None
    counters: tuple[str, ...] = ()  # counters the hook adds
    self_name: str | None = None  # metric name of the self time, when not "<name>_self_s"


SPANS = (
    SpanSpec("schema.load_schema", ("reltree.schema:load_schema",)),
    SpanSpec("storage.load_database", ("reltree.storage:load_database",), _count_loaded_rows,
             ("storage.rows",), self_name="storage.csv_read_s"),
    SpanSpec("storage.build_database", ("reltree.storage:build_database",)),
    SpanSpec("schema.table_depths", ("reltree.joinpath:table_depths",)),
    SpanSpec("schema.neighbors", ("reltree.joinpath:neighbors",)),
    SpanSpec("tree.grow_tree", ("reltree.tree:grow_tree", "reltree.evaluate:grow_tree"),
             self_name="tree.grow_self_s"),
    SpanSpec("ldt.build_root_ldt", ("reltree.tree:build_root_ldt",)),
    SpanSpec("tree.best_split", ("reltree.tree:best_split",), _count_best_split,
             ("tree.best_split_column_rows", "ldt.extend_useful")),
    SpanSpec("ldt.partition_ldt", ("reltree.tree:partition_ldt",), _count_partition, ("ldt.partition_cells",)),
    SpanSpec("ldt.extend_ldt", ("reltree.tree:extend_ldt",), _count_extend_ldt, ("ldt.extend_returned",)),
    SpanSpec("joinpath.restrict", ("reltree.joinpath:JoinInstantiation.restrict",), _count_restrict,
             ("joinpath.restrict_rows",)),
    SpanSpec("joinpath.extend_instantiation", ("reltree.joinpath:extend_instantiation",)),
    SpanSpec("features.features_for_path", ("reltree.ldt:features_for_path", "reltree.eager:features_for_path"),
             _count_features, ("features.columns", "features.cells", "features.paths")),
    SpanSpec("eager.train_flat", ("reltree.evaluate:train_flat",)),
    SpanSpec("eager.propositionalize", ("reltree.eager:propositionalize",), _count_flat, ("eager.flat_cells",)),
    SpanSpec("tree.predict_many", ("reltree.tree:predict_many", "reltree.evaluate:predict_many")),
    SpanSpec("tree.predict", ("reltree.tree:predict",)),
    SpanSpec("evaluate.cross_validate", ("reltree.evaluate:cross_validate",)),
)


# Metrics derived after a round, beside the span metrics: name -> (unit, better).
EXTRA_METRICS = {
    "tree.best_split_p50_us": ("us", "lower"),
    "tree.best_split_p99_us": ("us", "lower"),
    "storage.rows_per_s": ("1/s", "higher"),
    "ldt.extend_useful_ratio": ("ratio", "higher"),
    "joinpath.lookups_d1": ("count", "lower"),
    "joinpath.lookups_d2": ("count", "lower"),
    "joinpath.lookups_d3": ("count", "lower"),
    "joinpath.lookups_d4": ("count", "lower"),
    "evaluate.lazy_eager_lookup_ratio": ("ratio", "lower"),
    "evaluate.fold_train_s": ("s", "lower"),
    "evaluate.fold_predict_s": ("s", "lower"),
    "tree.nodes": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
_HIGHER_COUNTERS = {"storage.rows", "ldt.extend_useful"}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for spec in SPANS:
        out[f"{spec.name}_s"] = ("s", "lower")
        out[spec.self_name or f"{spec.name}_self_s"] = ("s", "lower")
        out[f"{spec.name}_calls"] = ("count", "lower")
        for counter in spec.counters:
            out[counter] = ("count", "higher" if counter in _HIGHER_COUNTERS else "lower")
    out.update(EXTRA_METRICS)
    return out


def _resolve(site: str):
    """(owner object, attribute name) of a lookup site, or raise AttributeError."""
    module_name, _, dotted = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


NAMES = tuple(spec.name for spec in SPANS)


@dataclass
class Tracer:
    """Installs the span wrappers and keeps spans and counters in memory.

    Span fields live in flat arrays, which the garbage collector never scans,
    so a long trace does not slow collections in the code being measured.
    """

    name_ids: array = field(default_factory=lambda: array("h"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    parents: array = field(default_factory=lambda: array("l"))  # -1 for a top-level span
    nested: array = field(default_factory=lambda: array("b"))  # 1 inside a span of the same name
    counters: dict[str, int] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)  # span names and counters that could not be recorded
    round_starts: list[tuple[int, int]] = field(default_factory=list)  # (round, first span)
    pending_extension: object = None
    _stack: list[int] = field(default_factory=list)
    _active: list[int] = field(default_factory=lambda: [0] * len(SPANS))
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def install(self) -> None:
        for name_id, spec in enumerate(SPANS):
            resolved = []
            for site in spec.sites:
                try:
                    resolved.append(_resolve(site))
                except (ImportError, AttributeError):
                    resolved = None
                    break
            if resolved is None:
                self.absent.add(spec.name)
                self.absent.update(spec.counters)
                continue
            for owner, attr in resolved:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name_id, spec))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self.pending_extension = None

    def _wrap(self, fn, name_id: int, spec: SpanSpec):
        name_ids, starts, ends, parents, nested = self.name_ids, self.starts, self.ends, self.parents, self.nested
        stack, active, clock = self._stack, self._active, time.perf_counter
        hook = spec.hook

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            nested.append(active[name_id] > 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            active[name_id] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
                active[name_id] -= 1
            if hook is not None and spec.counters[0] not in self.absent:
                try:
                    hook(self, args, kwargs, result)
                except _HOOK_ERRORS:
                    self.absent.update(spec.counters)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", spec.name)
        return wrapper

    def mark(self, round_no: int) -> tuple[int, dict[str, int]]:
        """Start round ``round_no``; returns the position :meth:`layer_metrics` measures from."""
        self.round_starts.append((round_no, len(self.starts)))
        return len(self.starts), dict(self.counters)

    def layer_metrics(self, since: tuple[int, dict[str, int]]) -> dict[str, float | None]:
        """Per-span totals, self times and calls, plus counter deltas, since ``since``.

        Inclusive time counts a span only when no enclosing span has the same
        name; self time is a span's duration minus that of its direct children.
        """
        first, counters0 = since
        n = len(self.starts) - first
        durations = [self.ends[first + i] - self.starts[first + i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[first + i] - first
            if parent >= 0:
                child[parent] += durations[i]
        total = [0.0] * len(SPANS)
        self_time = [0.0] * len(SPANS)
        calls = [0] * len(SPANS)
        best_split = NAMES.index("tree.best_split")
        best: list[float] = []
        for i in range(n):
            name_id = self.name_ids[first + i]
            calls[name_id] += 1
            self_time[name_id] += durations[i] - child[i]
            if not self.nested[first + i]:
                total[name_id] += durations[i]
            if name_id == best_split:
                best.append(durations[i])

        out: dict[str, float | None] = {}
        for name_id, spec in enumerate(SPANS):
            recorded = spec.name not in self.absent
            out[f"{spec.name}_s"] = total[name_id] if recorded else None
            out[spec.self_name or f"{spec.name}_self_s"] = self_time[name_id] if recorded else None
            out[f"{spec.name}_calls"] = calls[name_id] if recorded else None
            for counter in spec.counters:
                value = self.counters.get(counter, 0) - counters0.get(counter, 0)
                out[counter] = None if counter in self.absent else value

        if "tree.best_split" in self.absent or len(best) < 2:
            out["tree.best_split_p50_us"] = out["tree.best_split_p99_us"] = None
        else:
            out["tree.best_split_p50_us"] = statistics.median(best) * 1e6
            out["tree.best_split_p99_us"] = statistics.quantiles(best, n=100, method="inclusive")[98] * 1e6
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as ``round name start end parent`` (seconds, tab-separated)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = self.round_starts + [(None, len(self.starts))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round\tname\tstart_s\tend_s\tparent\n")
            for (rnd, lo), (_, hi) in zip(bounds, bounds[1:]):
                fh.writelines(
                    f"{rnd}\t{NAMES[self.name_ids[i]]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                    for i in range(lo, hi)
                )
