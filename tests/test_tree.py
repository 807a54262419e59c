import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _score_column,
    entropy as oracle_entropy,
    exhaustive_split,
    per_column_best_split,
    random_micro_db,
    single_best,
    two_children,
    unpruned_numeric_candidates,
)

from reltree import tree
from reltree.eager import propositionalize, train_flat
from reltree.evaluate import SchoolSpec, generate_school_db
from reltree.features import BOOLEAN, CATEGORICAL, NUMERIC, Agg, FeatureColumn, FeatureDescriptor
from reltree.joinpath import JoinPath
from reltree.ldt import LocalDataTable, partition_ldt
from reltree.params import RESTRICTED, UNRESTRICTED, LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import build_database
from reltree.tree import (
    MODEL_VERSION,
    InnerNode,
    LeafNode,
    ModelFormatError,
    ModelMismatchError,
    best_split,
    deserialize_model,
    entropy,
    grow_tree,
    predict,
    predict_many,
    serialize_model,
)

PARAMS = LearnParams()


def test_entropy_examples():
    assert entropy([5, 5]) == pytest.approx(1.0)
    assert entropy([4, 0]) == 0.0
    assert entropy([1, 3]) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(ValueError):
        entropy([0, 0])


def _ldt_from_columns(specs, labels):
    """specs: list of (kind, cells, dictionary); cells use None for undefined."""
    columns = []
    for i, (kind, cells, dictionary) in enumerate(specs):
        if kind == "numeric":
            values = np.array([0.0 if v is None else float(v) for v in cells])
        elif kind == "boolean":
            values = np.array([bool(v) for v in cells])
        else:
            values = np.array([-1 if v is None else dictionary.index(v) for v in cells], dtype=np.int64)
        columns.append(
            FeatureColumn(
                descriptor=FeatureDescriptor(path=JoinPath(start="T"), attribute=f"a{i}", agg=Agg.IDENTITY),
                kind=kind,
                values=values,
                defined=np.array([v is not None for v in cells]),
                dictionary=tuple(dictionary) if dictionary else None,
            )
        )
    return LocalDataTable(
        instance_ids=np.arange(len(labels), dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        n_classes=int(max(labels)) + 1,
        columns=columns,
        frontier={},
    )


def test_best_split_midpoint_example():
    ldt = _ldt_from_columns([("numeric", [1.0, 2.0, 3.0, 4.0], None)], [0, 0, 1, 1])
    (test,), (ig,) = best_split(ldt, PARAMS)
    assert test.kind == "numeric_le"
    assert test.threshold == pytest.approx(2.5)
    assert ig == pytest.approx(1.0, abs=1e-12)


def test_best_split_constant_column_yields_nothing():
    ldt = _ldt_from_columns([("numeric", [7.0, 7.0, 7.0], None)], [0, 1, 0])
    assert best_split(ldt, PARAMS)[0] == [None]


def test_best_split_undefined_routing_example():
    ldt = _ldt_from_columns([("numeric", [1.0, None, 3.0], None)], [0, 0, 1])
    (test,), (ig,) = best_split(ldt, PARAMS)
    assert test.threshold == pytest.approx(2.0)
    assert test.undefined_route == "pass"
    assert ig == pytest.approx(0.9182958340544896, abs=1e-12)
    # the alternative routing would only reach H(2/3): 0.2516...
    _, _, gains = exhaustive_split([("a0", "numeric", [1.0, None, 3.0], None)], [0, 0, 1])
    assert gains[("a0", "numeric_le", 2.0, "fail")] == pytest.approx(0.2516291673878229, abs=1e-12)


def test_best_split_ties_break_by_descriptor_order():
    cells = [1.0, 1.0, 3.0, 3.0]
    ldt = _ldt_from_columns([("numeric", cells, None), ("numeric", cells, None)], [0, 0, 1, 1])
    (test,), _ = best_split(ldt, PARAMS)
    assert test.descriptor.attribute == "a0"


def test_best_split_ties_inside_a_column_go_to_the_lower_threshold():
    # Thresholds 1.5 and 3.5 each cut one class-0 row off a {0, 1, 1, 0} node.
    ldt = _ldt_from_columns([("numeric", [1.0, 2.0, 3.0, 4.0], None)], [0, 1, 1, 0])
    (test,), (ig,) = best_split(ldt, PARAMS)
    _, _, gains = exhaustive_split([("a0", "numeric", [1.0, 2.0, 3.0, 4.0], None)], [0, 1, 1, 0])
    assert gains[("a0", "numeric_le", 1.5, "fail")] == gains[("a0", "numeric_le", 3.5, "fail")] == ig
    assert test.threshold == 1.5


# Values with repeats, and two adjacent floats whose midpoint rounds up.
_GRID = (0.0, 1.0, float(np.nextafter(1.0, 2.0)), 2.5, 3.0, -4.0)
# Infinities and huge finite values (sums and variances of large cells reach
# them): midpoints overflow to inf, and that of -inf and inf is NaN.
_EXTREMES = (-np.inf, -1.7e308, -1e308, -0.0, 0.0, 1e308, 1.7e308, np.inf)


def _draw_columns(draw, n):
    """Columns of ``n`` cells of every shape the split search distinguishes, in a drawn order."""
    defined_cells = st.lists(st.booleans(), min_size=n, max_size=n)
    columns = []
    for i in range(draw(st.integers(1, 9))):
        shape = draw(st.sampled_from([
            "numeric", "numeric", "extreme", "boolean", "categorical", "categorical", "undefined", "constant",
            "no_dictionary", "duplicate",
        ]))
        if shape == "duplicate" and columns:  # the same cells under a later name: ties across columns
            source = draw(st.sampled_from(columns))
            kind, values, defined, dictionary = source.kind, source.values, source.defined, source.dictionary
        elif shape in ("numeric", "duplicate", "extreme"):
            kind, dictionary = NUMERIC, None
            grid = _EXTREMES if shape == "extreme" else _GRID
            values = np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)))
            defined = np.array(draw(defined_cells)) | draw(st.booleans())
        elif shape == "boolean":
            kind, dictionary = BOOLEAN, None
            values = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            defined = np.array(draw(defined_cells))
        elif shape == "categorical":
            kind, dictionary = CATEGORICAL, tuple("abcdefg"[:draw(st.integers(1, 7))])
            codes = st.integers(0, len(dictionary) - 1)
            values = np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.int64)
            defined = np.array(draw(defined_cells))
            values[~defined] = -1
        elif shape == "undefined":
            kind, dictionary = NUMERIC, None
            values, defined = np.zeros(n), np.zeros(n, dtype=bool)
        elif shape == "constant":
            kind, dictionary = NUMERIC, None
            values, defined = np.full(n, 2.5), np.array(draw(defined_cells))
        else:  # defined cells but an empty dictionary
            kind, dictionary = CATEGORICAL, ()
            values, defined = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
        descriptor = FeatureDescriptor(path=JoinPath(start="T"), attribute=f"a{i}", agg=Agg.IDENTITY)
        columns.append(FeatureColumn(descriptor, kind, values, defined, dictionary))
    order = draw(st.permutations(range(len(columns))))
    return [columns[k] for k in order]


@st.composite
def _split_search_ldts(draw):
    """LDTs of every column shape the split search distinguishes."""
    n = draw(st.integers(1, 40))
    n_classes = draw(st.sampled_from([2, 3]))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return LocalDataTable(
        instance_ids=np.arange(n, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        n_classes=n_classes,
        columns=_draw_columns(draw, n),
        frontier={},
    )


@settings(max_examples=300, deadline=None)
@given(_split_search_ldts())
def test_best_split_equals_the_per_column_search(ldt):
    """The block search picks exactly the test and gain of the column-at-a-time search."""
    assert single_best(best_split(ldt, PARAMS)) == per_column_best_split(ldt)


@st.composite
def _segmented_ldts(draw):
    """Tables of 1 to 6 segments, some of one row and some copies of an earlier one, over shared columns."""
    n_classes = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    n = sum(sizes)
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=np.int64)
    columns = _draw_columns(draw, n)
    bounds = np.cumsum([0, *sizes])
    for s in range(1, len(sizes)):
        earlier = [t for t in range(s) if sizes[t] == sizes[s]]
        if earlier and draw(st.booleans()):  # the same rows again: equal best gains in two segments
            t = draw(st.sampled_from(earlier))
            target, source = slice(bounds[s], bounds[s + 1]), slice(bounds[t], bounds[t + 1])
            labels[target] = labels[source]
            for c in columns:
                c.values[target], c.defined[target] = c.values[source], c.defined[source]
    table = LocalDataTable(np.arange(n, dtype=np.int64), labels, n_classes, columns, frontier={})
    return partition_ldt(table, [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])


@settings(max_examples=300, deadline=None)
@given(_segmented_ldts())
def test_segmented_search_equals_the_per_column_search_of_each_segment(table):
    """Every segment gets exactly the test and gain its rows alone get from the column-at-a-time search."""
    tests, igs = best_split(table, PARAMS)
    assert igs.dtype == np.float64 and len(tests) == len(igs) == table.n_segments
    for s in range(table.n_segments):
        assert single_best(([tests[s]], igs[s : s + 1])) == per_column_best_split(table.segment(s))
        assert (tests[s] is None) == (igs[s] == -np.inf)


def test_segmented_search_covers_its_edge_cases():
    """One-row segments, a segment without candidates, an all-undefined column, a value of one segment only,
    and equal best gains in two segments."""
    cells = [
        ("numeric", [None] * 8, None),
        ("numeric", [1.0, 1.0, 1.0, 5.0, 2.0, 2.0, 2.0, 2.0], None),
        ("categorical", ["a", "a", "a", "b", "c", "a", "b", "a"], "abc"),
    ]
    table = _ldt_from_columns(cells, [0, 1, 0, 1, 1, 0, 0, 0])
    # Rows 0-2 have constant cells, row 3 is alone, and rows 4-7 come twice.
    rows = [np.arange(0, 3), np.arange(3, 4), np.arange(4, 8), np.arange(4, 8)]
    table = partition_ldt(table, rows)
    tests, igs = best_split(table, PARAMS)
    assert tests[:2] == [None, None] and igs[0] == igs[1] == -np.inf
    assert tests[2] == tests[3] and igs[2] == igs[3] > 0
    assert (tests[2].descriptor.attribute, tests[2].value) == ("a2", "c")  # "c" occurs in segment 2 only
    for s in range(4):
        assert single_best(([tests[s]], igs[s : s + 1])) == per_column_best_split(table.segment(s))


@st.composite
def _count_rows(draw):
    """(pass, fail, undefined) int64 count rows of 2 to 4 classes, with empty sides and zero undefined rows."""
    n_classes = draw(st.integers(2, 4))
    m = draw(st.integers(1, 12))
    counts = st.lists(st.integers(0, 5), min_size=n_classes, max_size=n_classes)
    sides = []
    for _ in range(m):
        row = [draw(counts) for _ in range(3)]
        for side in draw(st.sets(st.sampled_from([0, 1, 2]))):  # all-zero sides, and rows without undefined
            row[side] = [0] * n_classes
        sides.append(row)
    pass_counts, fail_counts, undef_counts = (np.array([r[k] for r in sides], dtype=np.int64) for k in range(3))
    return pass_counts, fail_counts, undef_counts


@settings(max_examples=300, deadline=None)
@given(_count_rows(), st.integers(1, 60), st.floats(0.0, 2.0))
def test_score_candidates_equals_scoring_both_routings_of_every_row(rows, n, h_parent):
    """Skipping the pass routing where nothing is undefined changes no gain and no route, bit for bit."""
    m = len(rows[0])
    ig, route_is_pass = tree._score_candidates(*rows, np.full(m, n), np.full(m, h_parent))
    want_ig, want_route = _score_column(*rows, n, h_parent)
    assert ig.tobytes() == want_ig.tobytes()
    assert (ig == want_ig).all() and (route_is_pass == want_route).all()


def _count_entropy_passes(monkeypatch):
    """The number of count rows of each entropy pass, in order: both sides of each candidate row ``_gains`` scores."""
    rows = []
    gains = tree._gains

    def counted(pass_counts, fail_counts, undef_counts, scored, *rest):
        rows.append(2 * len(pass_counts[scored]))
        return gains(pass_counts, fail_counts, undef_counts, scored, *rest)

    monkeypatch.setattr(tree, "_gains", counted)
    return rows


def test_a_node_without_undefined_cells_scores_in_one_entropy_pass(monkeypatch):
    passes = _count_entropy_passes(monkeypatch)
    ldt = _ldt_from_columns([("numeric", [1.0, 2.0, 3.0, 4.0], None), ("categorical", list("abab"), "ab")],
                            [0, 0, 1, 1])
    assert best_split(ldt, PARAMS)[0] != [None]
    assert passes == [2 * 3]  # both sides of threshold 2.5 and 2 values; 1.5 and 3.5 lie inside one-class runs


def test_the_pass_routing_is_scored_only_on_rows_with_undefined_instances(monkeypatch):
    passes = _count_entropy_passes(monkeypatch)
    pass_counts = np.array([[1, 0], [2, 1], [0, 3], [1, 1]])
    undef_counts = np.array([[0, 0], [1, 0], [0, 0], [0, 2]])
    tree._score_candidates(pass_counts, 4 - pass_counts - undef_counts, undef_counts, np.full(4, 8), np.ones(4))
    assert passes == [2 * 4, 2 * 2]


# Repeats, infinities and undefined (NaN) cells.
_BLOCK_VALUES = (-np.inf, -2.0, 0.0, 1.0, 1.5, 2.0, 3.0, np.inf, np.nan)


@st.composite
def _numeric_blocks(draw):
    """(values, labels, bounds, n_classes) of a numeric block of 1 to 6 segments, runs of one class common."""
    n_classes = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=6))
    labels = []
    for size in sizes:  # a few classes per segment, so that runs of one class are common
        palette = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=3))
        labels += draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size))
    cells = st.lists(st.sampled_from(_BLOCK_VALUES), min_size=len(labels), max_size=len(labels))
    values = np.array(draw(st.lists(cells, min_size=1, max_size=4)))
    return values, np.array(labels, dtype=np.int64), np.cumsum([0, *sizes]), n_classes


def _numeric_rows(build, values, labels, bounds, n_classes):
    segment_ids = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return build(values, ~np.isnan(values), labels, bounds, segment_ids, n_classes)


def _best_per_row_and_segment(found, labels, bounds, n_classes):
    """(gain, threshold, route) of the first highest-gain candidate of each (block row, segment)."""
    slots, segments, pass_counts, fail_counts, thresholds = found
    class_counts = np.array([np.bincount(labels[lo:hi], minlength=n_classes)
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
    sizes = np.diff(bounds).astype(np.float64)
    h = np.array([entropy(counts) for counts in class_counts])
    undef_counts = class_counts[segments] - pass_counts - fail_counts
    ig, route_is_pass = tree._score_candidates(pass_counts, fail_counts, undef_counts, sizes[segments], h[segments])
    best = {}
    for i, key in enumerate(zip(slots.tolist(), segments.tolist())):
        if key not in best or ig[i] > best[key][0]:
            best[key] = (ig[i], thresholds[i], route_is_pass[i])
    return best


@settings(max_examples=400, deadline=None)
@given(_numeric_blocks())
def test_boundary_thresholds_keep_every_best_test(block):
    """Dropping the thresholds inside runs of one class keeps a subset that scores the same best test."""
    values, labels, bounds, n_classes = block
    got = _numeric_rows(tree._numeric_candidates, *block)
    want = _numeric_rows(unpruned_numeric_candidates, *block)
    if want is None:
        assert got is None
        return

    def rows(found):
        slots, segments, pass_counts, fail_counts, thresholds = found
        return list(zip(slots.tolist(), segments.tolist(), thresholds.tolist(),
                        map(tuple, pass_counts.tolist()), map(tuple, fail_counts.tolist())))

    kept = rows(got)
    assert set(kept) <= set(rows(want))
    assert kept == sorted(kept, key=lambda row: (row[0], row[1]))  # by block row, then segment
    assert _best_per_row_and_segment(got, labels, bounds, n_classes) == _best_per_row_and_segment(
        want, labels, bounds, n_classes)


def _thresholds(cells, labels, n_classes=3):
    values = np.array([[np.nan if v is None else v for v in cells]])
    found = _numeric_rows(tree._numeric_candidates, values, np.array(labels), np.array([0, len(labels)]), n_classes)
    return [] if found is None else found[4].tolist()


# Values 1 and 2 are a run of class 0 that reaches the lowest defined value;
# the four undefined cells are mostly class 2.
_LOW_RUN = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, None, None, None, None]
_LOW_RUN_LABELS = [0, 0, 1, 0, 0, 1, 2, 2, 0, 2]


@pytest.mark.parametrize("sign", [1, -1])
def test_a_run_reaching_an_end_keeps_its_thresholds_when_cells_are_undefined(sign):
    """The outer end of the run sends every defined cell to one side, a split no threshold makes, so
    the threshold inside the run is the best test: under the pass routing at the low end, mirrored at the high."""
    cells = [None if v is None else sign * v for v in _LOW_RUN]
    assert sign * 1.5 in _thresholds(cells, _LOW_RUN_LABELS)
    ldt = _ldt_from_columns([("numeric", cells, None)], _LOW_RUN_LABELS)
    test, ig = single_best(best_split(ldt, PARAMS))
    assert (test, ig) == per_column_best_split(ldt)
    assert test.threshold == sign * 1.5 and test.undefined_route == ("pass" if sign == 1 else "fail")


def test_a_run_reaching_an_end_drops_its_thresholds_when_no_cell_is_undefined():
    cells, labels = _LOW_RUN[:6], _LOW_RUN_LABELS[:6]
    assert _thresholds(cells, labels) == [2.5, 3.5, 5.5]  # 1.5 and 4.5 lie inside runs of class 0
    ldt = _ldt_from_columns([("numeric", cells, None)], labels)
    assert single_best(best_split(ldt, PARAMS)) == per_column_best_split(ldt)


def test_a_column_of_one_class_keeps_its_thresholds_in_a_pure_node(monkeypatch):
    """Every gain of a pure node is 0, which clears min_ig=-1: the lowest threshold splits, as with every threshold."""
    assert _thresholds([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], n_classes=1) == [1.5, 2.5, 3.5]
    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"x": "num"}, {"y": "cat"}]}]}
    rows = {"T": [{"id": str(i), "x": str(i + 1), "y": "a"} for i in range(4)]}
    db = build_database(catalog_from_dict(doc), rows)
    params = LearnParams(min_ig=-1.0, min_inst=1)
    model = grow_tree(db, params)
    assert isinstance(model.root, InnerNode) and model.root.test.threshold == 1.5
    monkeypatch.setattr(tree, "_numeric_candidates", unpruned_numeric_candidates)
    assert serialize_model(model) == serialize_model(grow_tree(db, params))


def test_equal_values_make_no_threshold():
    assert _thresholds([2.0, 2.0, 2.0, None], [0, 1, 2, 0]) == []


@st.composite
def _count_blocks(draw):
    """Blocks of class counts, 1 to 12 classes, with zero counts common and no all-zero row."""
    n_classes = draw(st.integers(1, 12))
    count = st.one_of(st.just(0), st.integers(0, 40))
    row = st.lists(count, min_size=n_classes, max_size=n_classes).filter(any)
    return np.array(draw(st.lists(row, min_size=1, max_size=20)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_count_blocks())
def test_row_entropies_equal_entropy_bit_for_bit_and_the_oracle(counts):
    """One routine: a row's entropy in a block is entropy() of the row, bit for bit, and the textbook sum."""
    sizes, got = tree._row_entropies(counts.astype(np.float64))
    assert sizes.tolist() == counts.sum(axis=1).tolist()
    assert [np.float64(h).tobytes() for h in got] == [np.float64(entropy(row)).tobytes() for row in counts]
    for h, row in zip(got.tolist(), counts.tolist()):
        assert h == pytest.approx(oracle_entropy(row), rel=0, abs=1e-12)


def _models(db, params):
    return [
        serialize_model(grow_tree(db, replace(params, strategy=RESTRICTED))),
        serialize_model(grow_tree(db, replace(params, strategy=UNRESTRICTED))),
        serialize_model(train_flat(db, None, params)),
    ]


def test_models_equal_those_grown_scoring_both_routings_of_every_row(monkeypatch):
    """Restricted, unrestricted and eager models are byte-identical under the four-pass reference scoring."""
    dbs = [generate_school_db(1, SchoolSpec()).db]
    for seed in range(30):
        doc, tables = random_micro_db(seed)
        dbs.append(build_database(catalog_from_dict(doc), tables))
    params = LearnParams(min_inst=2)
    got = [_models(db, params) for db in dbs]
    monkeypatch.setattr(tree, "_score_candidates", _score_column)
    assert got == [_models(db, params) for db in dbs]
    assert any('"undefined_route": "pass"' in doc for models in got for doc in models)


def test_threshold_between_infinities_splits_where_the_values_do():
    # The midpoint of -inf and inf is NaN, and `v <= NaN` passes nothing.
    ldt = _ldt_from_columns([("numeric", [-np.inf, np.inf, -np.inf, np.inf], None)], [0, 1, 0, 1])
    (test,), (ig,) = best_split(ldt, PARAMS)
    assert test.threshold == -np.inf and ig == 1.0
    left, right = two_children(ldt, test)
    assert left.instance_ids.tolist() == [0, 2] and right.instance_ids.tolist() == [1, 3]


def _random_oracle_ldt(rnd, max_rows=64, max_features=8):
    n = rnd.randint(4, max_rows)
    n_classes = rnd.choice([2, 2, 3])
    labels = [rnd.randrange(n_classes) for _ in range(n)]
    if len(set(labels)) == 1:
        labels[0] = (labels[0] + 1) % n_classes
    specs = []
    oracle_cols = []
    for i in range(rnd.randint(1, max_features)):
        kind = rnd.choice(["numeric", "numeric", "boolean", "categorical"])
        if kind == "numeric":
            grid = [0.0, 1.0, 2.0, 3.5, 5.0, 7.25]
            cells = [None if rnd.random() < 0.15 else rnd.choice(grid) for _ in range(n)]
            dictionary = None
        elif kind == "boolean":
            cells = [None if rnd.random() < 0.15 else rnd.random() < 0.5 for _ in range(n)]
            dictionary = None
        else:
            dictionary = ["a", "b", "c"]
            cells = [None if rnd.random() < 0.15 else rnd.choice(dictionary) for _ in range(n)]
        specs.append((kind, cells, dictionary))
        oracle_cols.append((f"T.a{i}:identity", kind, cells, dictionary))
    return _ldt_from_columns(specs, labels), oracle_cols, labels


def _production_key(test):
    if test.kind == "numeric_le":
        param = test.threshold
    elif test.kind == "categorical_eq":
        param = test.value
    else:
        param = None
    return (test.descriptor.name, test.kind, param, test.undefined_route)


def test_best_split_matches_exhaustive_oracle():
    rnd = random.Random(20240)
    for _ in range(150):
        ldt, oracle_cols, labels = _random_oracle_ldt(rnd)
        got = single_best(best_split(ldt, PARAMS))
        best_ig, best_key, gains = exhaustive_split(oracle_cols, labels)
        if got is None:
            assert best_ig is None
            continue
        test, ig = got
        assert best_ig is not None
        assert ig == pytest.approx(best_ig, abs=1e-12)
        key = _production_key(test)
        assert key in gains, f"{key} not evaluated by oracle"
        assert gains[key] == pytest.approx(best_ig, abs=1e-12)


def test_grow_tree_degenerates_to_majority_leaf_without_features():
    from reltree.schema import catalog_from_dict
    from reltree.storage import build_database

    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    rows = {"T": [{"id": str(i), "y": "a" if i < 4 else "b"} for i in range(6)]}
    db = build_database(catalog_from_dict(doc), rows)
    model = grow_tree(db, PARAMS)
    assert isinstance(model.root, LeafNode)
    assert model.root.counts == (4, 2)
    assert model.class_labels[model.root.prediction] == "a"


def test_grow_tree_max_depth_zero_is_majority_leaf(school_db):
    model = grow_tree(school_db, LearnParams(max_depth=0, min_inst=1))
    assert isinstance(model.root, LeafNode)
    assert model.root.counts == (2, 2)
    assert model.root.prediction == 0  # tie broken toward the lowest class code


def test_grow_tree_depth1_concept_is_lazy():
    data = generate_school_db(11, SchoolSpec(n_professors=200, rule="movie_genre"))
    with data.db.stats.measure() as m:
        model = grow_tree(data.db, PARAMS)
    assert sum(n for d, n in m.lookups_by_depth.items() if d >= 2) == 0
    root = model.root
    assert isinstance(root, InnerNode)
    assert root.test.descriptor.path.render() == "Professor->Movie(MID)"
    preds = predict_many(model, data.db, range(200))
    assert np.mean([p.label == y for p, y in zip(preds, data.labels)]) == 1.0


def test_grow_tree_recovers_deep_average_concept():
    data = generate_school_db(13, SchoolSpec(n_professors=200, rule="avg_grade"))
    model = grow_tree(data.db, PARAMS)
    tested = {(d.attribute, d.agg) for d in model.descriptors}
    assert ("grade", Agg.AVG) in tested
    preds = predict_many(model, data.db, range(200))
    assert np.mean([p.label == y for p, y in zip(preds, data.labels)]) == 1.0


def test_predict_follows_undefined_route_without_error():
    data = generate_school_db(17, SchoolSpec(n_professors=150, rule="avg_grade", p_no_courses=0.3))
    model = grow_tree(data.db, PARAMS)
    preds = predict_many(model, data.db, range(150))
    assert len(preds) == 150
    for p in preds:
        assert p.label in ("yes", "no")
        assert 0.0 <= p.confidence <= 1.0
        assert sum(p.probabilities) == pytest.approx(1.0)


def test_predict_checks_schema_fingerprint(school_db):
    data = generate_school_db(3, SchoolSpec(n_professors=50))
    model = grow_tree(data.db, PARAMS)
    with pytest.raises(ModelMismatchError):
        predict(model, school_db, 0)


def _route_on_flat(model, flat):
    by_name = {c.descriptor.name: c for c in flat.columns}
    out = []
    for i in range(flat.n_rows):
        node = model.root
        while isinstance(node, InnerNode):
            col = by_name[node.test.descriptor.name]
            if not col.defined[i]:
                go_left = node.test.undefined_route == "pass"
            elif node.test.kind == "numeric_le":
                go_left = col.values[i] <= node.test.threshold
            elif node.test.kind == "boolean_true":
                go_left = bool(col.values[i])
            else:
                go_left = (col.dictionary or ())[int(col.values[i])] == node.test.value
            node = node.left if go_left else node.right
        out.append(node.prediction)
    return out


def test_predict_matches_routing_over_materialized_table():
    data = generate_school_db(23, SchoolSpec(n_professors=120, rule="avg_grade", p_no_courses=0.2, label_noise=0.05))
    model = grow_tree(data.db, PARAMS)
    flat = propositionalize(data.db, None, PARAMS)
    expected = _route_on_flat(model, flat)
    got = [p.index for p in predict_many(model, data.db, flat.instance_ids)]
    assert got == expected


def test_serialize_round_trip_and_determinism():
    data = generate_school_db(29, SchoolSpec(n_professors=80, rule="avg_grade", label_noise=0.05))
    m1 = grow_tree(data.db, PARAMS)
    m2 = grow_tree(data.db, PARAMS)
    doc1 = serialize_model(m1)
    assert doc1 == serialize_model(m2)
    restored = deserialize_model(doc1)
    assert serialize_model(restored) == doc1
    assert restored.class_labels == m1.class_labels
    assert restored.descriptors == m1.descriptors
    # the restored model predicts identically
    a = [p.index for p in predict_many(m1, data.db, range(80))]
    b = [p.index for p in predict_many(restored, data.db, range(80))]
    assert a == b


def test_deserialize_rejects_bad_documents():
    data = generate_school_db(31, SchoolSpec(n_professors=40))
    doc = serialize_model(grow_tree(data.db, PARAMS))
    with pytest.raises(ModelFormatError):
        deserialize_model(doc[: len(doc) // 2])
    with pytest.raises(ModelFormatError):
        deserialize_model(doc.replace(f'"version": {MODEL_VERSION}', '"version": 99'))
    with pytest.raises(ModelFormatError):
        deserialize_model("{}")


def test_deserialize_names_the_field_path_of_a_missing_key():
    data = generate_school_db(29, SchoolSpec(n_professors=80, rule="avg_grade", label_noise=0.1))
    doc = json.loads(serialize_model(grow_tree(data.db, PARAMS)))
    # The first node two levels below the root, and its field path.
    where, node = next(
        (f"root.{a}.{b}", doc["root"][a][b])
        for a in ("left", "right") if doc["root"][a]["type"] == "inner"
        for b in ("left", "right")
    )
    del node["type"]
    with pytest.raises(ModelFormatError, match=f"^invalid model document: {re.escape(where)}: missing 'type'$"):
        deserialize_model(json.dumps(doc))
    # Descriptors are read before the nodes.
    del doc["descriptors"][0]["path"]["hops"][0]["label"]
    where = re.escape("descriptors[0].path.hops[0]")
    with pytest.raises(ModelFormatError, match=f"^invalid model document: {where}: missing 'label'$"):
        deserialize_model(json.dumps(doc))


def test_deserialize_rejects_a_document_nested_too_deeply():
    nested = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ModelFormatError, match="recursion"):
        deserialize_model(f'{{"format": "reltree-model", "version": {MODEL_VERSION}, "root": {nested}}}')


def test_deserialize_reads_version_1_documents():
    data = generate_school_db(29, SchoolSpec(n_professors=80, rule="avg_grade", label_noise=0.05))
    doc = serialize_model(grow_tree(data.db, PARAMS))
    old = json.loads(doc)
    assert old["version"] == MODEL_VERSION == 2 and "seed" not in old["params"]
    old["version"] = 1
    old["params"]["seed"] = 0
    v1 = deserialize_model(json.dumps(old))
    v2 = deserialize_model(doc)
    assert serialize_model(v1) == doc
    assert v1.params == v2.params
    assert predict_many(v1, data.db, range(80)) == predict_many(v2, data.db, range(80))


def test_deserialize_rejects_params_missing_a_field():
    data = generate_school_db(31, SchoolSpec(n_professors=40))
    doc = json.loads(serialize_model(grow_tree(data.db, PARAMS)))
    del doc["params"]["min_ig"]
    with pytest.raises(ModelFormatError, match="min_ig"):
        deserialize_model(json.dumps(doc))


def test_learn_params_reject_nan():
    for field in ("min_ig", "max_depth"):
        with pytest.raises(ValueError, match=field):
            LearnParams(**{field: float("nan")})


def test_deserialize_rejects_nan_params():
    data = generate_school_db(31, SchoolSpec(n_professors=40))
    doc = json.loads(serialize_model(grow_tree(data.db, PARAMS)))
    for field in ("min_ig", "max_depth"):
        bad = json.loads(json.dumps(doc))
        bad["params"][field] = float("nan")
        with pytest.raises(ModelFormatError, match=field):
            deserialize_model(json.dumps(bad))


def test_gain_bounds_on_random_ldts():
    rnd = random.Random(5)
    for _ in range(40):
        ldt, _, labels = _random_oracle_ldt(rnd, max_rows=32, max_features=4)
        found = single_best(best_split(ldt, PARAMS))
        if found is None:
            continue
        _, ig = found
        h = entropy(np.bincount(labels))
        assert -1e-12 <= ig <= h + 1e-12
