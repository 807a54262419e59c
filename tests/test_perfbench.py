"""The per-layer tracer of perfbench reads reltree's interface; this keeps that reading working."""

import importlib.util
import sys
from pathlib import Path

from reltree.evaluate import SchoolSpec, cross_validate, generate_school_db
from reltree.params import LearnParams
from reltree.tree import grow_tree

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_the_tracer_records_every_layer_metric():
    """Every span resolves, every counter hook reads its call, and best_split runs often enough for percentiles."""
    layers = _layers()
    db = generate_school_db(5, SchoolSpec(n_professors=120, rule="avg_grade", label_noise=0.1)).db
    params = LearnParams(max_depth=6)
    tracer = layers.Tracer()
    tracer.install()
    try:
        since = tracer.mark(0)
        grow_tree(db, params)
        for mode in ("lazy-restricted", "lazy-unrestricted", "eager"):
            cross_validate(db, params, k=2, seed=1, mode=mode, max_path_len=None)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    metrics = tracer.layer_metrics(since)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["tree.best_split_calls"] >= 2 and metrics["ldt.partition_ldt_calls"] >= 1
