"""Batch prediction: request handling, feature reuse, and a differential
check against the row-at-a-time router in ``oracles.naive_predict``."""

import gc
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import _descriptor_value, naive_predict, random_micro_db

import reltree.tree as tree_module
from reltree.evaluate import SchoolSpec, generate_school_db
from reltree.features import Agg
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import DataError, build_database
from reltree.tree import LeafNode, Prediction, grow_tree, predict, predict_many


def _pairs(preds):
    return [(p.index, p.probabilities) for p in preds]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    strategy=st.sampled_from(["restricted", "unrestricted"]),
    data=st.data(),
)
def test_predict_many_matches_naive_router(seed, strategy, data):
    doc, tables = random_micro_db(seed)
    db = build_database(catalog_from_dict(doc), tables)
    try:
        model = grow_tree(db, LearnParams(min_inst=1, strategy=strategy))
    except DataError:
        assume(False)
    n = db.tables[db.catalog.target_table].n_rows
    request = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n), label="request")
    assert _pairs(predict_many(model, db, request)) == naive_predict(model, db, request)
    assert _pairs(predict_many(model, db, range(n))) == naive_predict(model, db, range(n))
    for i in request:
        assert predict(model, db, i) == predict_many(model, db, [i])[0]


def test_duplicates_and_order_follow_the_request():
    data = generate_school_db(41, SchoolSpec(n_professors=120, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    every = predict_many(model, data.db, range(120))
    request = [7, 3, 7, 119, 0, 3, 3, 64]
    assert predict_many(model, data.db, request) == [every[i] for i in request]
    assert predict_many(model, data.db, np.array(request[::-1])) == [every[i] for i in request[::-1]]


def _reordered_movies(data):
    """The database of ``data`` with its movie rows reversed.

    That gives the genres another first-seen order, so a trained value code
    means another genre there.
    """
    tables = dict(data.tables)
    tables["Movie"] = list(reversed(data.tables["Movie"]))
    return build_database(data.catalog, tables)


def test_categorical_tests_route_by_value_not_code():
    data = generate_school_db(19, SchoolSpec(n_professors=150, rule="movie_genre"))
    model = grow_tree(data.db, LearnParams())
    root = model.root.test
    assert root.kind == "categorical_eq"

    other = _reordered_movies(data)
    genre = other.tables["Movie"].columns["genre"]
    assert genre.dictionary != data.db.tables["Movie"].columns["genre"].dictionary
    assert genre.dictionary.index(root.value) != root.value_code

    got = predict_many(model, other, range(150))
    assert _pairs(got) == naive_predict(model, other, range(150))
    assert [p.label for p in got] == data.labels
    assert got == predict_many(model, data.db, range(150))


def test_a_categorical_value_missing_from_the_predicting_database_fails_its_test():
    data = generate_school_db(19, SchoolSpec(n_professors=150, rule="movie_genre"))
    model = grow_tree(data.db, LearnParams())
    root = model.root.test
    assert root.kind == "categorical_eq"
    tables = dict(data.tables)
    tables["Movie"] = [{**row, "genre": "renamed" if row["genre"] == root.value else row["genre"]}
                       for row in data.tables["Movie"]]
    renamed = build_database(data.catalog, tables)
    assert root.value not in renamed.tables["Movie"].columns["genre"].dictionary

    rnd = random.Random(5)
    request = [rnd.randrange(150) for _ in range(300)]
    got = predict_many(model, renamed, request)
    assert _pairs(got) == naive_predict(model, renamed, request)
    singles = [predict(model, renamed, i) for i in range(150)]
    assert _pairs(singles) == naive_predict(model, renamed, range(150))
    # Every row whose root cell is defined takes the fail side: the root's test over a class-0
    # leaf on its pass side and a class-1 leaf on its fail side predicts class 1 for each of them,
    # and the model predicts them as its fail subtree alone does.
    defined = [i for i in range(150) if _descriptor_value(renamed, i, root.descriptor, {})[1]]
    assert defined
    n_classes = len(model.class_labels)
    pass_leaf, fail_leaf = (LeafNode(tuple(int(c == k) for c in range(n_classes)), k) for k in (0, 1))
    stump = replace(model, root=replace(model.root, left=pass_leaf, right=fail_leaf))
    assert {p.index for p in predict_many(stump, renamed, defined)} == {1}
    assert {predict(stump, renamed, i).index for i in defined} == {1}
    fail_side = replace(model, root=model.root.right)
    assert predict_many(model, renamed, defined) == predict_many(fail_side, renamed, defined)
    assert [singles[i] for i in defined] == predict_many(fail_side, renamed, defined)


def test_contains_tests_stay_linear_in_a_larger_dictionary():
    # Contains features are gated by the training database's domain size only;
    # a predicting database with the same schema may hold far more values.
    doc = {
        "target": "Customer.churn",
        "tables": [
            {"name": "Customer", "file": "customer.csv", "columns": [{"CID": "pk"}, {"churn": "cat"}]},
            {
                "name": "Orders",
                "file": "orders.csv",
                "columns": [{"OID": "pk"}, {"CID": "fk(Customer.CID)"}, {"item": "cat"}],
            },
        ],
    }
    catalog = catalog_from_dict(doc)
    rnd = random.Random(3)
    n = 400
    customers, orders = [], []
    for c in range(n):
        items = [rnd.choice("abcd") for _ in range(rnd.randint(1, 4))]
        customers.append({"CID": f"c{c}", "churn": "yes" if "a" in items else "no"})
        for item in items:
            orders.append({"OID": f"o{len(orders)}", "CID": f"c{c}", "item": item})
    model = grow_tree(build_database(catalog, {"Customer": customers, "Orders": orders}), LearnParams())
    assert any(d.agg is Agg.CONTAINS for d in model.descriptors)

    k = 40_000
    extra = [{"OID": f"x{j}", "CID": f"c{j % n}", "item": f"new{j}"} for j in range(k)]
    big = build_database(catalog, {"Customer": customers, "Orders": orders + extra})
    tracemalloc.start()
    try:
        got = predict_many(model, big, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _pairs(got) == naive_predict(model, big, range(n))
    assert [p.label for p in got] == [c["churn"] for c in customers]
    assert peak < n * k / 4  # a (bags x dictionary) matrix alone would take n * k bytes


def test_out_of_range_ids_are_rejected(school_db):
    model = grow_tree(school_db, LearnParams(min_inst=1))
    n = school_db.tables["Professor"].n_rows
    with pytest.raises(ValueError, match="instance id -1 "):
        predict(model, school_db, -1)
    with pytest.raises(ValueError, match=f"instance id {n} "):
        predict(model, school_db, n)
    with pytest.raises(ValueError, match=f"instance id {n} "):
        predict_many(model, school_db, [0, 1, n, -1])
    assert predict_many(model, school_db, []) == []


def test_prediction_adds_nothing_to_stats():
    data = generate_school_db(43, SchoolSpec(n_professors=100, rule="avg_grade", p_no_courses=0.2))
    model = grow_tree(data.db, LearnParams())
    assert any(len(d.path) >= 3 for d in model.descriptors)
    with data.db.stats.measure() as m:
        predict_many(model, data.db, range(100))
        predict(model, data.db, 5)
    assert not m.lookups_by_depth and m.features == 0 and not m.paths


def test_each_tested_feature_is_computed_once_per_request(monkeypatch):
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    calls = []
    real = tree_module.feature_cells

    def counting(db, inst, descriptor, aggregates):
        calls.append(descriptor)
        return real(db, inst, descriptor, aggregates)

    monkeypatch.setattr(tree_module, "feature_cells", counting)
    predict_many(model, data.db, range(150))
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(model.descriptors)

    # Single-row calls route the whole table once per model and database.
    calls.clear()
    for i in range(50):
        predict(model, data.db, (7 * i) % 150)
    assert calls and len(calls) == len(set(calls))
    assert set(calls) <= set(model.descriptors)


def test_single_row_predictions_follow_the_database_they_are_asked_of(monkeypatch):
    data = generate_school_db(19, SchoolSpec(n_professors=150, rule="movie_genre"))
    model = grow_tree(data.db, LearnParams())
    reordered = _reordered_movies(data)
    # Each professor's movie moves to the next one, so many predictions change.
    tables = dict(data.tables)
    mids = [row["MID"] for row in data.tables["Professor"]]
    tables["Professor"] = [{**row, "MID": mid} for row, mid in zip(data.tables["Professor"], mids[1:] + mids[:1])]
    moved = build_database(data.catalog, tables)
    rows = range(150)
    assert naive_predict(model, moved, rows) != naive_predict(model, data.db, rows)
    calls = []
    real = tree_module.feature_cells

    def counting(db, inst, descriptor, aggregates):
        calls.append((id(db), descriptor))
        return real(db, inst, descriptor, aggregates)

    monkeypatch.setattr(tree_module, "feature_cells", counting)
    for db in (data.db, reordered, data.db, moved, data.db, reordered):
        assert _pairs(predict(model, db, i) for i in rows) == naive_predict(model, db, rows)
    # Each database keeps its own request, so coming back to one computes nothing again.
    assert len(calls) == len(set(calls))


def _predict_every_row(model, db):
    for i in range(db.tables[db.catalog.target_table].n_rows):
        predict(model, db, i)


def test_the_kept_predictions_go_with_their_database():
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    db = data.db
    del data
    _predict_every_row(model, db)
    kept = model._requests[db]
    leaf = kept[0]
    held, listed = sys.getrefcount(leaf), sum(p is leaf for p in kept)
    del kept
    gone = weakref.ref(db)
    del db
    gc.collect()
    assert gone() is None and len(model._requests) == 0 and len(model._fits) == 0
    assert sys.getrefcount(leaf) == held - listed  # the list went with its database


def test_the_kept_predictions_go_with_their_model():
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    _predict_every_row(model, data.db)
    # A prediction the kept list holds; the model's leaf predictions hold it too.
    kept = weakref.ref(model._requests[data.db][0])
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert kept() is None  # freed by reference counting, without a collection
    finally:
        if enabled:
            gc.enable()


def test_the_kept_state_is_one_prediction_per_row():
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    _predict_every_row(model, data.db)
    kept = model._requests[data.db]
    # No join, aggregate or cell array: one Prediction per target-table row.
    assert type(kept) is list and len(kept) == 150
    assert all(type(p) is Prediction for p in kept)
    assert kept == predict_many(model, data.db, range(150))


def test_a_model_checks_each_database_it_fits_once(monkeypatch):
    data = generate_school_db(19, SchoolSpec(n_professors=150, rule="movie_genre"))
    model = grow_tree(data.db, LearnParams())
    other = _reordered_movies(data)
    checked, compared = [], []
    real_check, real_fingerprint = tree_module._check_fits, tree_module.fingerprint

    def check(m, db):
        checked.append(db)
        return real_check(m, db)

    def fingerprint(catalog):
        compared.append(catalog)
        return real_fingerprint(catalog)

    monkeypatch.setattr(tree_module, "_check_fits", check)
    monkeypatch.setattr(tree_module, "fingerprint", fingerprint)
    for i in range(20):
        for db in (data.db, other):
            assert _pairs([predict(model, db, i)]) == naive_predict(model, db, [i])
    predict_many(model, data.db, range(10))
    assert len(checked) == 2 and checked[0] is data.db and checked[1] is other
    assert len(compared) == 41  # the schema fingerprint is still compared on every call


def test_a_model_makes_its_leaf_predictions_once():
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    first = predict_many(model, data.db, range(150))
    again = predict_many(model, data.db, range(149, -1, -1))
    # Each call hands out the model's own Prediction objects, not copies made per call.
    assert len(first) == 150 and all(p is q for p, q in zip(first, reversed(again)))
    assert all(predict(model, data.db, i) is first[i] for i in range(150))


def test_a_finished_request_leaves_no_cyclic_garbage():
    data = generate_school_db(53, SchoolSpec(n_professors=80, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    predict(model, data.db, 0)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(20):
            predict(model, data.db, i)
        predict_many(model, data.db, range(80))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
