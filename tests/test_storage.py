import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import school_doc, school_rows, write_school_files
from oracles import random_micro_db

from reltree.schema import catalog_from_dict, load_schema
from reltree.storage import (
    DataError,
    LoadOptions,
    build_database,
    load_database,
    rows_matching,
)


def test_load_school_csvs(school_dir):
    catalog = load_schema(school_dir / "schema.yaml")
    db = load_database(catalog, school_dir)
    assert {name: t.n_rows for name, t in db.tables.items()} == {
        "Professor": 4,
        "Course": 3,
        "Enrolled": 5,
        "Student": 4,
        "Movie": 2,
    }
    expected_indexes = {
        ("Professor", "PID"),
        ("Professor", "MID"),
        ("Course", "PID"),
        ("Course", "CID"),
        ("Enrolled", "CID"),
        ("Enrolled", "SID"),
        ("Student", "SID"),
        ("Movie", "MID"),
    }
    assert expected_indexes <= set(db.indexes)


def test_empty_table_loads(school_dir):
    (school_dir / "movie.csv").write_text("MID,genre\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    db = load_database(catalog, school_dir)
    assert db.tables["Movie"].n_rows == 0
    assert len(rows_matching(db, "Movie", "MID", "m1")) == 0


def test_strip_target_features():
    doc = {
        "target": "A.y",
        "tables": [{"name": "A", "columns": [{"id": "pk"}, {"extra": "num"}, {"y": "cat"}]}],
    }
    rows = {"A": [{"id": "1", "extra": "9", "y": "a"}, {"id": "2", "extra": "8", "y": "b"}]}
    catalog = catalog_from_dict(doc)
    stripped = build_database(catalog, rows, LoadOptions(strip_target_features=True))
    assert "extra" not in stripped.tables["A"].columns
    plain = build_database(catalog, rows)
    assert "extra" in plain.tables["A"].columns


def test_rows_matching_examples(school_db):
    lupin_courses = rows_matching(school_db, "Course", "PID", "p_lupin")
    assert list(lupin_courses) == [0, 1]
    assert list(rows_matching(school_db, "Course", "PID", "p_nobody")) == []
    # s1 occurs in two enrollments
    assert list(rows_matching(school_db, "Enrolled", "SID", "s1")) == [0, 4]


def test_rows_matching_requires_index(school_db):
    with pytest.raises(DataError):
        rows_matching(school_db, "Student", "grade", 1)


def test_rows_matching_equals_linear_scan_on_random_dbs():
    for seed in range(25):
        doc, tables = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        db = build_database(catalog, tables)
        for (table, column), index in db.indexes.items():
            codes = db.tables[table].columns[column].codes
            domain = db.tables[table].columns[column].domain
            probe = list(range(len(domain))) + [len(domain) + 3]
            for code in probe:
                got = rows_matching(db, table, column, code)
                expected = np.nonzero(codes == code)[0]
                assert np.array_equal(got, expected)
                assert list(got) == sorted(set(got.tolist()))


def test_reload_determinism(tmp_path):
    write_school_files(tmp_path / "a")
    catalog = load_schema(tmp_path / "a" / "schema.yaml")
    db1 = load_database(catalog, tmp_path / "a")
    db2 = load_database(catalog, tmp_path / "a")
    for name in db1.tables:
        for col, data in db1.tables[name].columns.items():
            other = db2.tables[name].columns[col]
            if hasattr(data, "dictionary"):
                assert data.dictionary == other.dictionary
                assert np.array_equal(data.codes, other.codes)
            elif hasattr(data, "domain"):
                assert data.domain.values == other.domain.values
                assert np.array_equal(data.codes, other.codes)
            else:
                assert np.array_equal(data.values, other.values, equal_nan=True)


def test_dangling_foreign_keys_counted_and_join_empty(school_db):
    assert school_db.dangling[("Professor", "MID")] == 1  # m_gone
    code = school_db.key_code("Professor", "MID", "m_gone")
    assert code is not None
    assert len(rows_matching(school_db, "Movie", "MID", code)) == 0


def test_missing_key_rejects_row():
    doc = school_doc()
    rows = school_rows()
    rows["Enrolled"].append({"EID": "e6", "CID": "", "SID": "s1"})
    db = build_database(catalog_from_dict(doc), rows)
    assert db.tables["Enrolled"].n_rows == 5
    assert db.rejected_rows["Enrolled"] == 1


def test_duplicate_primary_key_rejected():
    rows = school_rows()
    rows["Student"].append({"SID": "s1", "grade": "5"})
    with pytest.raises(DataError, match="duplicate primary key"):
        build_database(catalog_from_dict(school_doc()), rows)


def test_bad_numeric_token_reports_location():
    rows = school_rows()
    rows["Student"][2]["grade"] = "twelve"
    with pytest.raises(DataError, match=r"Student column grade row 3.*twelve"):
        build_database(catalog_from_dict(school_doc()), rows)


def test_header_mismatch(school_dir):
    (school_dir / "student.csv").write_text("SID,score\ns1,8\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError, match="grade"):
        load_database(catalog, school_dir)


def test_missing_file(school_dir):
    (school_dir / "student.csv").unlink()
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError):
        load_database(catalog, school_dir)


def test_configurable_missing_tokens():
    doc = {"target": "A.y", "tables": [{"name": "A", "columns": [{"id": "pk"}, {"v": "num"}, {"y": "cat"}]}]}
    rows = {"A": [{"id": "1", "v": "NA", "y": "a"}, {"id": "2", "v": "3", "y": "b"}]}
    db = build_database(catalog_from_dict(doc), rows, LoadOptions(missing_tokens=("NA",)))
    col = db.tables["A"].columns["v"]
    assert bool(col.missing[0]) and not bool(col.missing[1])


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
def test_key_index_matches_scan_property(codes):
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "B", "columns": [{"id": "pk"}, {"a": "fk(A.id)"}]},
        ],
    }
    rows = {
        "A": [{"id": f"k{i}", "y": "x"} for i in range(6)],
        "B": [{"id": f"b{i}", "a": f"k{c}"} for i, c in enumerate(codes)],
    }
    db = build_database(catalog_from_dict(doc), rows)
    col = db.tables["B"].columns["a"].codes
    for code in range(8):
        assert np.array_equal(rows_matching(db, "B", "a", code), np.nonzero(col == code)[0])
