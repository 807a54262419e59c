#!/usr/bin/env python3
"""Layered benchmark of reltree: one workload and one seed in, one JSON line out.

    python3 perfbench/run.py --workload school-deep --seed 1 --seconds 35 --trace 0

The ``PARTS`` datasets of the seed are generated in a child process (and
cached), so this process only loads and measures.  It repeats rounds of
operations on the datasets in turn until ``--seconds`` have passed (at least
two rounds each, so the determinism checks have something to compare) and
reports, per operation, the mean over datasets of the lower quartile of its
times scaled to a reference speed (see ``reference_sample``): seconds as the
program would take at that speed, not its wall-clock seconds.  With
``--trace 0`` the last line carries the end-to-end metrics and the line
before it the same metrics unscaled and each round's median slowdown; with
``--trace 1`` untraced and traced rounds alternate and the last line carries
the per-layer metrics of ``layers.py``.  README.md describes workloads,
metrics and checks.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA_DIR = HERE / "_data"
SPANS_DIR = HERE / "_spans"
# No round starts when it could end after this many seconds of measuring,
# which keeps a run inside its 180 s limit.
DEADLINE_S = 140.0
GEN_TIMEOUT_S = 120

MODES = {"lazy-restricted": "restricted", "lazy-unrestricted": "unrestricted", "eager": "eager"}

END_TO_END = {
    "setup_s": "s",
    "learn_s": "s",
    "predict_rows_per_s": "1/s",
    "predict_one_p50_ms": "ms",
    "predict_one_p99_ms": "ms",
    "cv_restricted_s": "s",
    "cv_unrestricted_s": "s",
    "cv_eager_s": "s",
    "cv_acc_restricted": "ratio",
    "cv_acc_unrestricted": "ratio",
    "cv_acc_eager": "ratio",
    "peak_rss_mb": "MB",
}


# Nominal seconds of one reference sample (see ``reference_sample``).
REFERENCE_S = 0.016
# The reference work: small Python objects visited in a fixed random order,
# a working set of about 17 MB that every run holds (and ``peak_rss_mb``
# counts) alike.
_REFERENCE_OBJECTS = [(i, float(i), str(i)) for i in range(100_000)]
_REFERENCE_ORDER = random.Random(0).sample(range(100_000), 30_000)

# Single-row predict: a fixed seeded sample of at most ONE_ROWS target rows,
# each called ONE_SWEEPS times a round, with a reference sample before every
# block of ONE_BLOCK calls.  A row's latency is the median of its calls, so a
# passing hiccup of the machine does not land in the percentiles.
ONE_ROWS = 500
ONE_SWEEPS = 2
ONE_BLOCK = 200
# predict_many runs over every target row in passes, each timed after its own
# reference sample, until a round has predicted at least this many row ids.
PREDICT_MANY_IDS = 2000
# Cross-validation folds.  Two keep a round short, so that a run takes many
# rounds and its statistics span the machine's slow and fast spells.
FOLDS = 2

# Independent datasets a run measures, drawn from its seed.  A learned
# tree's shape, and so the cost of learning and prediction, varies from one
# dataset to the next; a run reports the mean over its datasets, which
# narrows that spread between seeds by about the square root of PARTS.
PARTS = 4

# Workload name -> (the feature the learned root must test, if any; the
# learner's depth limit).  Unbounded, the trees of school-deep and retail-cv
# fit their noisy labels with chains whose length varies by seed: the depth
# of the 99th-percentile row ran from 15 to 35 levels between seeds and alone
# set the single-row p99.  Each limit cuts only those chains (2 to 3% of the
# nodes), so the deepest rows of nearly every seed end at the limit.
WORKLOADS = {
    "school-deep": (None, 20),
    "school-bulk": ("Professor->Movie(MID).genre:identity", math.inf),
    "retail-cv": (None, 16),
}


def dataset(workload: str, seed: int, part: int) -> Path:
    """Directory of dataset ``part`` of the workload for ``seed``, generated on first use."""
    import gen

    out = DATA_DIR / f"{workload}-{gen.spec_key(workload)}-seed{seed}-part{part}"
    if not out.is_dir():
        DATA_DIR.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
               "--part", str(part), "--out", str(out)]
        subprocess.run(cmd, check=True, timeout=GEN_TIMEOUT_S)
    return out


def reference_sample() -> float:
    """Seconds a fixed piece of memory-bound interpreter work takes right now.

    The VM this benchmark was tuned on runs all code up to 1.8 times slower
    in spells that last from a fraction of a second to longer than a run.
    Every timed operation comes right after one of these samples and is
    scaled by ``REFERENCE_S`` over it (see ``slowdown``).  Random access to
    many small objects slows down in a spell about as much as reltree does;
    a loop over a few cached values did not.  The work is the benchmark's
    own, so a change to reltree never moves it.
    """
    objects = _REFERENCE_OBJECTS
    t0 = time.perf_counter()
    total = 0.0
    for i in _REFERENCE_ORDER:
        total += objects[i][1]
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than the reference speed the machine runs right now."""
    return reference_sample() / REFERENCE_S


def read_labels(data_dir: Path) -> list[str]:
    """Target labels in row order, read straight from the CSV, not through reltree."""
    import yaml

    doc = yaml.safe_load((data_dir / "schema.yaml").read_text(encoding="utf-8"))
    table, attribute = doc["target"].split(".")
    entry = next(t for t in doc["tables"] if t["name"] == table)
    with open(data_dir / entry["file"], newline="", encoding="utf-8") as fh:
        return [row[attribute] for row in csv.DictReader(fh)]


@dataclass
class Round:
    part: int
    traced: bool
    wall_s: float = 0.0
    # Metric name -> (wall-clock seconds, slowdown just before it was
    # measured), one entry per operation or predict_many pass.
    timings: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    target_rows: int = 0
    # Sampled row -> (wall-clock ms, slowdown) of each single-row call on it.
    one_ms: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    cv_s: dict[str, float] = field(default_factory=dict)
    cv_acc: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float | None] = field(default_factory=dict)


class Bench:
    def __init__(self, name: str, seed: int, part: int, data_dir: Path):
        from reltree import evaluate, params, schema, storage, tree

        self.schema, self.storage, self.tree, self.evaluate = schema, storage, tree, evaluate
        self.root_test, max_depth = WORKLOADS[name]
        self.params = params.LearnParams(strategy=params.RESTRICTED, max_depth=max_depth)
        self.seed, self.part, self.data_dir = seed, part, data_dir
        self.labels = read_labels(data_dir)
        # Every sampled row once, in a seeded order, before any row comes again.
        rng = random.Random(seed * 1000 + part)
        rows = rng.sample(range(len(self.labels)), min(ONE_ROWS, len(self.labels)))
        self.sample = [row for _ in range(ONE_SWEEPS) for row in rng.sample(rows, len(rows))]
        self.attempted = 0
        self.failed = 0
        self.ref_doc: str | None = None
        self.nodes: int | None = None
        self.ref_cv: dict[str, tuple] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def attempt(self, what: str, fn):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc()
            self.fail(what)
            return None

    def setup(self):
        catalog = self.schema.load_schema(self.data_dir / "schema.yaml")
        return self.storage.load_database(catalog, self.data_dir)

    def round(self, number: int, traced: bool, tracer) -> Round:
        r = Round(self.part, traced)
        gc.collect()
        if traced:
            tracer.install()
            since = tracer.mark(number)
        t_round = time.perf_counter()
        try:
            db, _ = self.timed(r, "setup_s", self.setup)
            if db is None:
                return r
            stats = getattr(getattr(db, "stats", None), "measure", None)
            with stats() if traced and stats else nullcontext() as measured:
                self._learn_and_predict(db, r)
                self._cross_validate(db, r)
        finally:
            r.wall_s = time.perf_counter() - t_round
            if traced:
                tracer.uninstall()
        if traced:
            r.layers.update(tracer.layer_metrics(since))
            lookups = getattr(measured, "lookups_by_depth", None)
            for d in range(1, 5):
                r.layers[f"joinpath.lookups_d{d}"] = None if lookups is None else lookups.get(d, 0)
        return r

    def timed(self, r: Round, metric: str, fn):
        """(result or None, seconds) of one operation, after a garbage collection.

        The seconds are recorded under ``metric`` with the slowdown measured
        just before the operation.
        """
        gc.collect()
        scale = slowdown()
        t0 = time.perf_counter()
        result = self.attempt(metric, fn)
        seconds = time.perf_counter() - t0
        r.timings.setdefault(metric, []).append((seconds, scale))
        return result, seconds

    def _learn_and_predict(self, db, r: Round) -> None:
        tree = self.tree
        model, _ = self.timed(r, "learn_s", lambda: tree.grow_tree(db, self.params))
        if model is None:
            return
        doc = tree.serialize_model(model)
        if self.ref_doc is None:
            self.ref_doc, self.nodes = doc, model.n_nodes
        elif doc != self.ref_doc:
            self.fail("repeated learn gave a different model document")
        if self.root_test is not None:
            root = getattr(getattr(model.root, "test", None), "descriptor", None)
            if root is None or root.name != self.root_test:
                self.fail(f"root tests {root.name if root else 'nothing'}, expected {self.root_test}")
        if r.traced:
            r.layers["tree.nodes"] = self.nodes

        n = r.target_rows = len(self.labels)
        ids = list(range(n))
        preds = None
        for _ in range(-(-PREDICT_MANY_IDS // n)):
            out, _ = self.timed(r, "predict_many_s", lambda: tree.predict_many(model, db, ids))
            if out is None:
                return
            if preds is None:
                preds = out
            elif out != preds:
                self.fail("repeated predict_many gave different predictions")
        # Every target row is labeled and trains the model, so routing the
        # training rows must land each in the leaf that counted it.
        leaf_hits = sum(node.counts[node.prediction] for node in model.iter_nodes() if hasattr(node, "counts"))
        pred_hits = sum(p.label == y for p, y in zip(preds, self.labels))
        if leaf_hits != pred_hits:
            self.fail(f"predict_many gets {pred_hits} training rows right, the leaf counts say {leaf_hits}")

        restored = tree.deserialize_model(doc)
        for i, row in enumerate(self.sample):
            if i % ONE_BLOCK == 0:
                gc.collect()
                scale = slowdown()
            t0 = time.perf_counter_ns()
            p = self.attempt("predict", lambda: tree.predict(restored, db, row))
            r.one_ms.setdefault(row, []).append(((time.perf_counter_ns() - t0) / 1e6, scale))
            if p is not None and (p.index, p.probabilities) != (preds[row].index, preds[row].probabilities):
                self.fail(f"row {row}: predict after a serialize round trip differs from predict_many")

    def _cross_validate(self, db, r: Round) -> None:
        lookups = {}
        fold_train = 0.0
        for mode, short in MODES.items():
            report, r.cv_s[short] = self.timed(
                r,
                f"cv_{short}_s",
                lambda: self.evaluate.cross_validate(db, self.params, k=FOLDS, seed=self.seed, mode=mode, max_path_len=None),
            )
            if report is None:
                continue
            r.cv_acc[short] = report.mean_accuracy
            signature = (report.fold_accuracies, [sorted(f.join_lookups.items()) for f in report.fold_results])
            if self.ref_cv.setdefault(mode, signature) != signature:
                self.fail(f"repeated cv {mode} gave different accuracies or lookup counts")
            lookups[mode] = report.total_join_lookups
            fold_train += report.total_seconds
        if r.traced:
            r.layers["evaluate.fold_train_s"] = fold_train
            r.layers["evaluate.fold_predict_s"] = sum(r.cv_s.values()) - fold_train
            eager = lookups.get("eager")
            r.layers["evaluate.lazy_eager_lookup_ratio"] = (
                lookups["lazy-restricted"] / eager if eager and "lazy-restricted" in lookups else None
            )


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _mean_over_parts(rounds: list[Round], metrics) -> dict[str, float | None]:
    """Mean over datasets of ``metrics(rounds of one dataset)``; None when any dataset lacks a value."""
    per_part = [metrics([r for r in rounds if r.part == part]) for part in sorted({r.part for r in rounds})]
    out: dict[str, float | None] = {}
    for name in per_part[0]:
        values = [m.get(name) for m in per_part]
        out[name] = None if None in values else statistics.fmean(values)
    return out


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict[str, float | None]:
    """Mean over datasets of their operation times (see ``_end_to_end``), and
    single-row latency percentiles over the sampled rows of every dataset."""
    out = _mean_over_parts(rounds, lambda part_rounds: _end_to_end(part_rounds, scaled))
    # A row's latency is the median of its calls; rows of all datasets are pooled,
    # so that at least ten rows lie beyond the 99th percentile.
    calls: dict[tuple[int, int], list[float]] = {}
    for r in rounds:
        for row, pairs in r.one_ms.items():
            calls.setdefault((r.part, row), []).extend(t / factor if scaled else t for t, factor in pairs)
    per_row = [statistics.median(ms) for ms in calls.values()]
    out["predict_one_p50_ms"] = statistics.median(per_row) if per_row else None
    out["predict_one_p99_ms"] = statistics.quantiles(per_row, n=100, method="inclusive")[98] if len(per_row) > 1 else None
    return out


def _low_quartile(values):
    values = [v for v in values if v is not None]
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else _median(values)


def _end_to_end(rounds: list[Round], scaled: bool) -> dict[str, float | None]:
    """Metrics of one dataset from every measurement on it, each time divided
    by the slowdown measured just before it unless ``scaled`` is false.

    An operation's time is the lower quartile of its times: a slow spell of
    the machine only ever adds time, so the lower quartile of a run's few
    repeats moves less with it than their median does.
    """

    def scale(pairs) -> list[float]:
        return [t / factor if scaled else t for t, factor in pairs]

    def times(metric: str) -> list[float]:
        return [t for r in rounds for t in scale(r.timings.get(metric, ()))]

    out = {"setup_s": _low_quartile(times("setup_s")), "learn_s": _low_quartile(times("learn_s"))}
    # Every predict_many pass covers every target row.
    passes = times("predict_many_s")
    out["predict_rows_per_s"] = rounds[0].target_rows / _low_quartile(passes) if passes else None
    for short in MODES.values():
        out[f"cv_{short}_s"] = _low_quartile(times(f"cv_{short}_s"))
    for short in MODES.values():
        out[f"cv_acc_{short}"] = _median([r.cv_acc.get(short) for r in rounds])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(rounds: list[Round]) -> dict[str, float | None]:
    """Mean over datasets of the per-layer metrics of their traced rounds."""
    return _mean_over_parts(rounds, _per_layer)


def _per_layer(rounds: list[Round]) -> dict[str, float | None]:
    import layers

    traced = [r for r in rounds if r.traced]
    out: dict[str, float | None] = {}
    for name in layers.per_layer_metrics():
        values = [r.layers.get(name) for r in traced]
        out[name] = None if not values or None in values else statistics.median_low(values)

    def ratio(num, den, empty):
        if out.get(num) is None or out.get(den) is None:
            return None
        return out[num] / out[den] if out[den] else empty

    out["storage.rows_per_s"] = ratio("storage.rows", "storage.load_database_s", None)
    out["ldt.extend_useful_ratio"] = ratio("ldt.extend_useful", "ldt.extend_returned", 0.0)
    plain = _median([r.wall_s for r in rounds if not r.traced])
    with_spans = _median([r.wall_s for r in traced])
    if plain is not None and with_spans is not None:
        out["trace.overhead_s"] = with_spans - plain
        out["trace.overhead_share"] = (with_spans - plain) / plain
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reltree" / "__init__.py").is_file():
        print(f"perfbench: no reltree sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers

    benches = [Bench(args.workload, args.seed, part, dataset(args.workload, args.seed, part)) for part in range(PARTS)]
    tracer = layers.Tracer() if args.trace else None

    # Rounds visit the datasets in turn; with tracing, an untraced and a
    # traced round run on one dataset before the next.  Every dataset gets at
    # least two rounds, so the determinism checks have something to compare.
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        n = len(rounds)
        traced = bool(args.trace) and n % 2 == 1
        bench = benches[(n // 2 if args.trace else n) % PARTS]
        rounds.append(bench.round(n, traced, tracer))
        last = rounds[-1]
        print(f"round {n} dataset {bench.part}{' traced' if traced else ''}: {last.wall_s:.3f} s; "
              + ", ".join(f"cv {m} {s:.3f} s" for m, s in last.cv_s.items()), flush=True)
        if not last.cv_s:
            break  # set-up failed; nothing else can run
        elapsed = time.perf_counter() - start
        longest = max(r.wall_s for r in rounds)
        unpaired = bool(args.trace) and len(rounds) % 2 == 1
        if len(rounds) >= 2 * PARTS and not unpaired and (elapsed >= args.seconds or elapsed + longest > DEADLINE_S):
            break

    if args.trace:
        metrics = per_layer(rounds)
        units = {name: unit for name, (unit, _) in layers.per_layer_metrics().items()}
        tracer.write_spans(SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv")
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END
        # The program's own wall-clock figures, before scaling, on a line of their own.
        print(json.dumps({
            "unscaled": {name: value for name, value in end_to_end(rounds, scaled=False).items() if value is not None},
            "slowdown_per_round": [statistics.median(s for v in r.timings.values() for _, s in v) for r in rounds],
            "single_row_calls": sum(len(pairs) for r in rounds for pairs in r.one_ms.values()),
        }))

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds over {PARTS} datasets, "
          f"{sum(r.traced for r in rounds)} traced, {len(bench.sample)} single-row predicts per round "
          f"({ONE_SWEEPS} on each of {len(bench.sample) // ONE_SWEEPS} sampled rows); the learned trees have "
          + ", ".join(str(b.nodes) for b in benches) + " nodes")
    failed = sum(b.failed for b in benches)
    result = {}
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:40s} {'absent' if value is None else format(value, '.6g'):>14s} {unit}")
        result[name] = {"value": value, "unit": unit} if value is not None else {"value": None, "unit": unit, "absent": True}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(b.attempted for b in benches),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
