"""Batch prediction: request handling, feature reuse, and a differential
check against the row-at-a-time router in ``oracles.naive_predict``."""

import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import naive_predict, random_micro_db

import reltree.tree as tree_module
from reltree.evaluate import SchoolSpec, generate_school_db
from reltree.features import Agg
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import DataError, build_database
from reltree.tree import grow_tree, predict, predict_many


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
    for i in request[:4]:
        assert predict(model, db, i) == predict_many(model, db, [i])[0]


def test_duplicates_and_order_follow_the_request():
    data = generate_school_db(41, SchoolSpec(n_professors=120, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    every = predict_many(model, data.db, range(120))
    request = [7, 3, 7, 119, 0, 3, 3, 64]
    assert predict_many(model, data.db, request) == [every[i] for i in request]
    assert predict_many(model, data.db, np.array(request[::-1])) == [every[i] for i in request[::-1]]


def test_categorical_tests_route_by_value_not_code():
    data = generate_school_db(19, SchoolSpec(n_professors=150, rule="movie_genre"))
    model = grow_tree(data.db, LearnParams())
    root = model.root.test
    assert root.kind == "categorical_eq"

    # Reordered movie rows give the predicting database another first-seen
    # order of genres, so the trained value code means another genre there.
    tables = dict(data.tables)
    tables["Movie"] = list(reversed(data.tables["Movie"]))
    other = build_database(data.catalog, tables)
    genre = other.tables["Movie"].columns["genre"]
    assert genre.dictionary != data.db.tables["Movie"].columns["genre"].dictionary
    assert genre.dictionary.index(root.value) != root.value_code

    got = predict_many(model, other, range(150))
    assert _pairs(got) == naive_predict(model, other, range(150))
    assert [p.label for p in got] == data.labels
    assert got == predict_many(model, data.db, range(150))


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


def _lifetime(db):
    life = db.stats.lifetime
    return dict(life.lookups_by_depth), life.features, set(life.paths), set(life.descriptors)


def test_prediction_adds_nothing_to_stats():
    data = generate_school_db(43, SchoolSpec(n_professors=100, rule="avg_grade", p_no_courses=0.2))
    model = grow_tree(data.db, LearnParams())
    assert any(len(d.path) >= 3 for d in model.descriptors)
    before = _lifetime(data.db)
    with data.db.stats.measure() as m:
        predict_many(model, data.db, range(100))
        predict(model, data.db, 5)
    assert _lifetime(data.db) == before
    assert m.total_lookups == 0 and m.features == 0


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


def test_a_model_compiles_its_router_once(monkeypatch):
    data = generate_school_db(47, SchoolSpec(n_professors=150, rule="avg_grade", label_noise=0.1))
    model = grow_tree(data.db, LearnParams())
    compiled = []
    real = tree_module._compile

    def counting(m):
        compiled.append(m)
        return real(m)

    monkeypatch.setattr(tree_module, "_compile", counting)
    first = predict_many(model, data.db, range(150))
    assert predict_many(model, data.db, range(150)) == first
    assert len(compiled) == 1 and compiled[0] is model


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
