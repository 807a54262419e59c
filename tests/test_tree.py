import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import exhaustive_split, per_column_best_split

from reltree.eager import propositionalize
from reltree.evaluate import SchoolSpec, generate_school_db
from reltree.features import BOOLEAN, CATEGORICAL, NUMERIC, Agg, FeatureColumn, FeatureDescriptor
from reltree.joinpath import JoinPath
from reltree.ldt import LocalDataTable, partition_ldt
from reltree.params import LearnParams
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
    test, ig = best_split(ldt, PARAMS)
    assert test.kind == "numeric_le"
    assert test.threshold == pytest.approx(2.5)
    assert ig == pytest.approx(1.0, abs=1e-12)


def test_best_split_constant_column_yields_nothing():
    ldt = _ldt_from_columns([("numeric", [7.0, 7.0, 7.0], None)], [0, 1, 0])
    assert best_split(ldt, PARAMS) is None


def test_best_split_undefined_routing_example():
    ldt = _ldt_from_columns([("numeric", [1.0, None, 3.0], None)], [0, 0, 1])
    test, ig = best_split(ldt, PARAMS)
    assert test.threshold == pytest.approx(2.0)
    assert test.undefined_route == "pass"
    assert ig == pytest.approx(0.9182958340544896, abs=1e-12)
    # the alternative routing would only reach H(2/3): 0.2516...
    _, _, gains = exhaustive_split([("a0", "numeric", [1.0, None, 3.0], None)], [0, 0, 1])
    assert gains[("a0", "numeric_le", 2.0, "fail")] == pytest.approx(0.2516291673878229, abs=1e-12)


def test_best_split_ties_break_by_descriptor_order():
    cells = [1.0, 1.0, 3.0, 3.0]
    ldt = _ldt_from_columns([("numeric", cells, None), ("numeric", cells, None)], [0, 0, 1, 1])
    test, _ = best_split(ldt, PARAMS)
    assert test.descriptor.attribute == "a0"


def test_best_split_ties_inside_a_column_go_to_the_lower_threshold():
    # Thresholds 1.5 and 3.5 each cut one class-0 row off a {0, 1, 1, 0} node.
    ldt = _ldt_from_columns([("numeric", [1.0, 2.0, 3.0, 4.0], None)], [0, 1, 1, 0])
    test, ig = best_split(ldt, PARAMS)
    _, _, gains = exhaustive_split([("a0", "numeric", [1.0, 2.0, 3.0, 4.0], None)], [0, 1, 1, 0])
    assert gains[("a0", "numeric_le", 1.5, "fail")] == gains[("a0", "numeric_le", 3.5, "fail")] == ig
    assert test.threshold == 1.5


# Values with repeats, and two adjacent floats whose midpoint rounds up.
_GRID = (0.0, 1.0, float(np.nextafter(1.0, 2.0)), 2.5, 3.0, -4.0)
# Infinities and huge finite values (sums and variances of large cells reach
# them): midpoints overflow to inf, and that of -inf and inf is NaN.
_EXTREMES = (-np.inf, -1.7e308, -1e308, -0.0, 0.0, 1e308, 1.7e308, np.inf)


@st.composite
def _split_search_ldts(draw):
    """LDTs of every column shape the split search distinguishes."""
    n = draw(st.integers(1, 40))
    n_classes = draw(st.sampled_from([2, 3]))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
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
    return LocalDataTable(
        instance_ids=np.arange(n, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        n_classes=n_classes,
        columns=[columns[k] for k in order],
        frontier={},
    )


@settings(max_examples=300, deadline=None)
@given(_split_search_ldts())
def test_best_split_equals_the_per_column_search(ldt):
    """The block search picks exactly the test and gain of the column-at-a-time search."""
    assert best_split(ldt, PARAMS) == per_column_best_split(ldt)


def test_threshold_between_infinities_splits_where_the_values_do():
    # The midpoint of -inf and inf is NaN, and `v <= NaN` passes nothing.
    ldt = _ldt_from_columns([("numeric", [-np.inf, np.inf, -np.inf, np.inf], None)], [0, 1, 0, 1])
    test, ig = best_split(ldt, PARAMS)
    assert test.threshold == -np.inf and ig == 1.0
    left, right = partition_ldt(ldt, test)
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
        got = best_split(ldt, PARAMS)
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
    assert m.lookups_at_depth_ge(2) == 0
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
        found = best_split(ldt, PARAMS)
        if found is None:
            continue
        _, ig = found
        h = entropy(np.bincount(labels))
        assert -1e-12 <= ig <= h + 1e-12
