import csv
import re

import numpy as np
import pytest

from oracles import flat_cells, random_micro_db

import reltree.eager as eager_module
from reltree.eager import (
    BudgetExceededError,
    enumerate_paths,
    export_flat_csv,
    manifest_lines,
    propositionalize,
    train_flat,
)
from reltree.evaluate import SchoolSpec, generate_school_db
from reltree.ldt import build_root_ldt, training_rows
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import DataError, build_database
from reltree.tree import InnerNode, grow_tree, predict, predict_many, serialize_model

PARAMS = LearnParams()


def test_propositionalize_school_columns(school_db):
    flat = propositionalize(school_db, 3, PARAMS)
    names = [c.descriptor.name for c in flat.columns]
    assert "Professor->Course(PID).credits:avg" in names
    assert "Professor->Movie(MID).genre:identity" in names
    assert "Professor->Course(PID)->Enrolled(CID)->Student(SID).grade:avg" in names
    assert "Professor->Course(PID)->Enrolled(CID)->Student(SID).grade:count" in names
    keys = [c.descriptor.sort_key() for c in flat.columns]
    assert keys == sorted(keys)  # columns follow the descriptor total order
    assert flat.n_rows == 4


def test_propositionalize_len1_equals_root_ldt_columns(school_db):
    flat = propositionalize(school_db, 1, PARAMS)
    root = build_root_ldt(school_db, PARAMS)
    assert [c.descriptor for c in flat.columns] == sorted(
        (c.descriptor for c in root.columns), key=lambda d: d.sort_key()
    )


def test_propositionalize_labels_every_requested_row():
    from conftest import school_doc, school_rows

    rows = school_rows()
    rows["Professor"].append({"PID": "p_quirrell", "MID": "m1", "popular": ""})  # row 4, no label
    db = build_database(catalog_from_dict(school_doc()), rows)
    flat = propositionalize(db, 2, PARAMS, instance_ids=[3, 4, 3, 0])
    assert flat.instance_ids.tolist() == [0, 3, 3, 4]
    assert flat.class_labels == ("yes", "no")
    assert flat.labels.tolist() == [0, 0, 0, -1]  # each copy of row 3 keeps its label


def test_propositionalize_columns_come_in_descriptor_order_unsorted():
    """Paths are enumerated in path order and each path's features come sorted, so no sort is needed."""
    for seed in range(27):
        doc, rows = random_micro_db(seed)
        db = build_database(catalog_from_dict(doc), rows)
        for bound in (1, 2, 3, None):
            keys = [c.descriptor.sort_key() for c in propositionalize(db, bound, PARAMS).columns]
            assert keys == sorted(keys), (seed, bound)


def test_propositionalize_rejects_zero_bound(school_db):
    with pytest.raises(ValueError):
        propositionalize(school_db, 0, PARAMS)


def test_flat_cells_match_bruteforce_oracle():
    from conftest import school_doc, school_rows

    cases = [(school_doc(), school_rows())]
    for seed in (101, 102):
        cases.append(random_micro_db(seed))
    for doc, rows in cases:
        catalog = catalog_from_dict(doc)
        db = build_database(catalog, rows)
        flat = propositionalize(db, 3, PARAMS)
        expected = flat_cells(doc, rows, 3)
        got = {}
        for col in flat.columns:
            cells = []
            for i in range(flat.n_rows):
                if not col.defined[i]:
                    cells.append(None)
                elif col.kind == "boolean":
                    cells.append(bool(col.values[i]))
                elif col.kind == "categorical":
                    cells.append((col.dictionary or ())[int(col.values[i])])
                else:
                    cells.append(float(col.values[i]))
            got[col.descriptor.name] = cells
        assert set(got) == set(expected)
        for name in expected:
            for a, b in zip(got[name], expected[name]):
                if b is None or isinstance(b, (bool, str)):
                    assert a == b, name
                else:
                    assert a == pytest.approx(b, rel=1e-9, abs=1e-12), name


def test_export_flat_csv(school_db, tmp_path):
    flat = propositionalize(school_db, 3, PARAMS)
    out = tmp_path / "flat.csv"
    export_flat_csv(flat, school_db, out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == flat.n_rows + 1
    header = rows[0]
    assert header[:2] == ["instance_id", "popular"]
    assert header[2:] == [c.descriptor.name for c in flat.columns]
    genre_col = header.index("Professor->Movie(MID).genre:identity")
    binns = next(r for r in rows[1:] if r[0] == "p_binns")
    assert binns[genre_col] == "?"  # undefined -> missing token
    lupin = next(r for r in rows[1:] if r[0] == "p_lupin")
    avg_col = header.index("Professor->Course(PID)->Enrolled(CID)->Student(SID).grade:avg")
    assert float(lupin[avg_col]) == 10.0


def test_manifest_lines(school_db):
    flat = propositionalize(school_db, 3, PARAMS)
    lines = manifest_lines(flat.columns)
    assert len(lines) == len(flat.columns)
    name, path, attribute, agg = lines[0].split("\t")
    assert name == flat.columns[0].descriptor.name
    assert path.startswith("Professor")


def test_eager_root_split_agrees_with_lazy_root():
    data = generate_school_db(7, SchoolSpec(n_professors=150, rule="movie_genre"))
    lazy = grow_tree(data.db, PARAMS)
    eager = train_flat(data.db, 1, PARAMS)
    assert isinstance(lazy.root, InnerNode) and isinstance(eager.root, InnerNode)
    assert lazy.root.test == eager.root.test
    assert lazy.root.ig == pytest.approx(eager.root.ig, abs=1e-12)


def test_lazy_descriptors_subset_of_eager_universe():
    data = generate_school_db(9, SchoolSpec(n_professors=120, rule="avg_grade"))
    with data.db.stats.measure() as m:
        grow_tree(data.db, PARAMS)
    flat = propositionalize(data.db, None, PARAMS)
    universe = {c.descriptor.name for c in flat.columns}
    assert m.descriptors <= universe


def test_enumerate_paths_unbounded_terminates(school_catalog):
    renders = [p.render() for p in enumerate_paths(school_catalog, None)]
    assert renders == [
        "Professor->Course(PID)",
        "Professor->Course(PID)->Enrolled(CID)->Student(SID)",
        "Professor->Movie(MID)",
    ]


def test_budget_exceeded_names_path(school_db, monkeypatch):
    monkeypatch.setattr(eager_module, "MAX_FLAT_CELLS", 10)
    with pytest.raises(BudgetExceededError, match="Professor->"):
        propositionalize(school_db, 3, PARAMS)


@pytest.mark.parametrize("ids, bad", [([-1, 0], -1), ([7], 7), ([0, 4, -2], 4)])
def test_propositionalize_refuses_an_id_outside_the_target_table(school_db, ids, bad):
    """As predict_many does: -1 would take the last row's label, 7 end in a bare IndexError."""
    with pytest.raises(ValueError, match=rf"^instance id {bad} is outside the target table's rows \[0, 4\)$"):
        propositionalize(school_db, None, PARAMS, instance_ids=ids)


@pytest.mark.parametrize("learn", [grow_tree, lambda db, params, ids: train_flat(db, 2, params, ids)],
                         ids=["lazy", "eager"])
def test_both_learners_train_on_each_labeled_requested_row_once(school_db, learn):
    """One training-row rule: an id outside the table is refused, a repeated id trains once, an unlabeled one not at all."""
    from conftest import school_doc, school_rows

    params = LearnParams(min_inst=1)
    with pytest.raises(ValueError, match=r"^instance id 99 is outside the target table's rows \[0, 4\)$"):
        learn(school_db, params, [0, 1, 2, 3, 99])
    once = serialize_model(learn(school_db, params, [0, 1, 2, 3]))
    assert serialize_model(learn(school_db, params, [0, 0, 0, 1, 2, 3])) == once
    rows = school_rows()
    rows["Professor"].append({"PID": "p_quirrell", "MID": "m1", "popular": ""})  # row 4, no label
    db = build_database(catalog_from_dict(school_doc()), rows)
    assert training_rows(db, [3, 4, 3, 1])[0].tolist() == [1, 3]
    assert serialize_model(learn(db, params, [3, 4, 3, 1, 0, 2])) == once


@pytest.mark.parametrize("ids, bad", [
    ([2.9, 1.9], 2.9),
    (np.array([2.0, 3.0]), 2.0),
    ([0, 1.5], 1.5),
    (["3"], "3"),
    ([0, "a"], "a"),
    ([True], True),
    (np.array([False, True]), False),
    ([1, None], None),
])
def test_every_entry_point_refuses_non_integer_ids(school_db, ids, bad):
    """A float, bool, string or object id is refused, naming the first such id, not truncated to a row."""
    model = grow_tree(school_db, LearnParams(min_inst=1))
    message = rf"^instance id {re.escape(repr(bad))} is not an integer$"
    entry_points = [
        lambda: grow_tree(school_db, PARAMS, ids),
        lambda: train_flat(school_db, 2, PARAMS, ids),
        lambda: propositionalize(school_db, 2, PARAMS, instance_ids=ids),
        lambda: predict_many(model, school_db, ids),
        lambda: predict(model, school_db, bad),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match=message):
            call()
    for scalar, shown in ((np.float64(1.0), "1.0"), (np.bool_(True), "True")):
        with pytest.raises(ValueError, match=rf"^instance id {shown} is not an integer$"):
            predict(model, school_db, scalar)


def test_integer_ids_of_any_integer_type_are_accepted(school_db):
    model = grow_tree(school_db, LearnParams(min_inst=1))
    expected = predict_many(model, school_db, [0, 1, 2, 3])
    for ids in (np.arange(4, dtype=np.uint8), np.arange(4, dtype=np.int32), range(4)):
        assert predict_many(model, school_db, ids) == expected
    assert predict(model, school_db, np.int32(2)) == expected[2]
    assert predict_many(model, school_db, []) == []
    assert propositionalize(school_db, 2, PARAMS, instance_ids=[]).n_rows == 0


@pytest.mark.parametrize("learn", [grow_tree, lambda db, params, ids: train_flat(db, 2, params, ids)],
                         ids=["lazy", "eager"])
def test_both_learners_say_when_no_requested_row_is_labeled(school_db, learn):
    """The target table has labeled rows; the request just names none of them."""
    from conftest import school_doc, school_rows

    message = "^none of the requested rows is a labeled target-table row$"
    with pytest.raises(DataError, match=message):
        learn(school_db, PARAMS, [])
    rows = school_rows()
    rows["Professor"].append({"PID": "p_quirrell", "MID": "m1", "popular": ""})  # row 4, no label
    db = build_database(catalog_from_dict(school_doc()), rows)
    with pytest.raises(DataError, match=message):
        learn(db, PARAMS, [4, 4])
