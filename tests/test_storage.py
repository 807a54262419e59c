import csv
import gc
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import school_doc, school_rows, write_school_files
from oracles import naive_build_database, random_micro_db

from reltree.schema import catalog_from_dict, load_schema
from reltree.storage import (
    CategoricalColumn,
    DataError,
    KeyColumn,
    KeyIndex,
    LoadOptions,
    NumericColumn,
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


def test_duplicate_primary_key_names_the_input_row_of_its_second_occurrence():
    rows = school_rows()
    rows["Student"] += [{"SID": "", "grade": "7"}, {"SID": "s2", "grade": "5"}]  # the rejected row still counts
    with pytest.raises(DataError) as info:
        build_database(catalog_from_dict(school_doc()), rows)
    assert str(info.value) == f"table Student column SID row {len(rows['Student'])}: duplicate primary key value 's2'"


def test_duplicate_primary_key_in_a_csv_names_the_line_of_its_second_occurrence(school_dir):
    (school_dir / "student.csv").write_text("SID,grade\ns0,8\n\n,9\ns1,10\ns0,12\ns1,3\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError) as info:
        load_database(catalog, school_dir)
    assert str(info.value) == f"{school_dir / 'student.csv'} line 6: column SID: duplicate primary key value 's0'"


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


@pytest.mark.parametrize("domain_size", [1, 255, 256, 65_535, 65_536, 65_537])
def test_key_index_equals_a_stable_argsort_of_the_codes(domain_size):
    """The narrow-dtype radix sort gives the int64 stable sort's order, dangling codes past n_primary included."""
    n_primary = domain_size - 1 if domain_size > 1 else 0
    rng = np.random.default_rng(domain_size)
    picks = np.concatenate((rng.integers(0, domain_size, 2 * domain_size), [domain_size - 1]))
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "B", "columns": [{"id": "pk"}, {"a": "fk(A.id)"}]},
        ],
    }
    tables = {
        "A": {"id": [f"k{i}" for i in range(n_primary)], "y": ["x"] * n_primary},
        "B": {"id": [f"b{i}" for i in range(len(picks))], "a": [f"k{c}" for c in picks.tolist()]},
    }
    db = build_database(catalog_from_dict(doc), tables)
    domain = db.key_domains[("A", "id")]
    assert (len(domain), domain.n_primary) == (domain_size, n_primary)
    for key in (("A", "id"), ("B", "a")):
        codes = db.tables[key[0]].columns[key[1]].codes
        index = db.indexes[key]
        assert np.array_equal(index.starts, np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=domain_size)))))
        assert index.rows.dtype == np.int64
        assert np.array_equal(index.rows, np.argsort(codes, kind="stable"))
    assert db.dangling[("B", "a")] == np.count_nonzero(db.tables["B"].columns["a"].codes >= n_primary) > 0


def test_primary_key_index_equals_the_sorted_one_with_dangling_foreign_keys(school_db):
    """A primary key's index is built without a sort; the dangling codes past its rows hold no row."""
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "B", "columns": [{"id": "pk"}, {"a": "fk(A.id)"}, {"b": "fk(B.id)"}]},
        ],
    }
    tables = {
        "A": {"id": ["k0", "k1", "k2"], "y": ["x", "x", "z"]},
        "B": {"id": ["b0", "b1", "b2", "b3"], "a": ["k9", "k1", "k7", "k9"], "b": ["b1", "gone", "b0", "b3"]},
    }
    for db in (school_db, build_database(catalog_from_dict(doc), tables)):
        primary = [db.tables[ts.name].columns[ts.primary_key.name] for ts in db.catalog.tables]
        assert any(len(col.domain) > col.domain.n_primary for col in primary)  # codes past the rows
        for ts, col in zip(db.catalog.tables, primary):
            want = KeyIndex.build(col.codes, len(col.domain))
            got = db.indexes[(ts.name, ts.primary_key.name)]
            assert got.starts.dtype == got.rows.dtype == np.int64
            assert np.array_equal(got.starts, want.starts) and np.array_equal(got.rows, want.rows)


def assert_same_database(got, want):
    assert list(got.tables) == list(want.tables)
    for name, table in want.tables.items():
        other = got.tables[name]
        assert other.n_rows == table.n_rows
        assert list(other.columns) == list(table.columns)
        for col_name, col in table.columns.items():
            mine = other.columns[col_name]
            assert type(mine) is type(col), (name, col_name)
            if isinstance(col, KeyColumn):
                assert mine.codes.dtype == np.int64 and np.array_equal(mine.codes, col.codes)
                assert (mine.domain.table, mine.domain.column) == (col.domain.table, col.domain.column)
            elif isinstance(col, NumericColumn):
                assert mine.values.dtype == np.float64
                assert np.array_equal(mine.values, col.values, equal_nan=True)
                assert mine.missing.dtype == bool and np.array_equal(mine.missing, col.missing)
            else:
                assert isinstance(col, CategoricalColumn)
                assert mine.codes.dtype == np.int64 and np.array_equal(mine.codes, col.codes)
                assert mine.dictionary == col.dictionary
                assert mine.missing.dtype == bool and np.array_equal(mine.missing, col.missing)
    assert list(got.key_domains) == list(want.key_domains)
    for key, dom in want.key_domains.items():
        mine = got.key_domains[key]
        assert mine.values == dom.values
        assert mine.code_of == dom.code_of
        assert mine.n_primary == dom.n_primary
    assert list(got.indexes) == list(want.indexes)
    for key, index in want.indexes.items():
        assert np.array_equal(got.indexes[key].starts, index.starts)
        assert np.array_equal(got.indexes[key].rows, index.rows)
    assert got.dangling == want.dangling
    assert got.rejected_rows == want.rejected_rows


def _build_or_error(build, catalog, tables, options):
    try:
        return build(catalog, tables, options)
    except DataError as exc:
        return str(exc)


_KEY_VALUE = re.compile(r"[a-z0-9]+k(\d+)")


def _perturb(doc, tables, rnd):
    """Mix Python numbers, absent cells, None, extra tokens and bad numbers into the rows."""
    kinds = {t["name"]: dict(next(iter(c.items())) for c in t["columns"]) for t in doc["tables"]}
    numeric_keys = rnd.random() < 0.5  # every key "<table>k<n>" becomes n, as an int or a string
    for name, rows in tables.items():
        for row in rows:
            for col in list(row):
                kind, v, r = kinds[name][col], row[col], rnd.random()
                if numeric_keys and (kind == "pk" or kind.startswith("fk(")) and _KEY_VALUE.fullmatch(v):
                    n = int(_KEY_VALUE.fullmatch(v).group(1))
                    row[col] = n if rnd.random() < 0.5 else str(n)
                elif kind == "num" and r < 0.004:
                    row[col] = rnd.choice(["twelve", "nan", "-inf", float("inf")])
                elif r < 0.03:
                    del row[col]
                elif r < 0.06:
                    row[col] = None
                elif r < 0.10:
                    row[col] = "NA"
                elif kind == "num" and v not in ("", "?") and r < 0.4:
                    row[col] = int(float(v)) if float(v).is_integer() else float(v)
                elif kind == "cat" and r < 0.15:
                    row[col] = rnd.choice([1, 1.0, 2])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    tokens=st.sampled_from([("", "?"), ("", "?", "NA"), ("", "?", "NA", "0")]),
)
def test_build_database_matches_naive_builder(seed, tokens):
    doc, tables = random_micro_db(seed)
    _perturb(doc, tables, random.Random(seed))
    catalog = catalog_from_dict(doc)
    options = LoadOptions(missing_tokens=tokens)
    want = _build_or_error(naive_build_database, catalog, tables, options)
    got = _build_or_error(build_database, catalog, tables, options)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_database(got, want)


def _write_csvs(doc, tables, directory, rnd):
    directory.mkdir()
    for entry in doc["tables"]:
        cols = [next(iter(c)) for c in entry["columns"]] + ["unused"]
        rnd.shuffle(cols)
        with open(directory / entry["file"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in tables[entry["name"]]:
                writer.writerow([row.get(c, "u") for c in cols])


def test_load_database_equals_build_database_on_same_rows(tmp_path):
    for seed in range(12):
        doc, tables = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        _write_csvs(doc, tables, tmp_path / str(seed), random.Random(seed))
        assert_same_database(load_database(catalog, tmp_path / str(seed)), build_database(catalog, tables))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999", float("nan")])
def test_non_finite_number_rejected(cell):
    rows = school_rows()
    rows["Student"][0]["grade"] = cell
    with pytest.raises(DataError) as info:
        build_database(catalog_from_dict(school_doc()), rows)
    assert str(info.value) == f"table Student column grade row 1: not finite: {cell!r}"


def test_non_finite_token_can_mean_missing():
    rows = school_rows()
    rows["Student"][1]["grade"] = "nan"
    db = build_database(catalog_from_dict(school_doc()), rows, LoadOptions(missing_tokens=("", "nan")))
    grade = db.tables["Student"].columns["grade"]
    assert grade.missing.tolist() == [False, True, False, True]


def test_first_bad_number_in_row_order_is_reported():
    rows = school_rows()
    rows["Student"][1]["grade"] = "inf"
    rows["Student"][2]["grade"] = "twelve"
    with pytest.raises(DataError, match=r"^table Student column grade row 2: not finite: 'inf'$"):
        build_database(catalog_from_dict(school_doc()), rows)


def test_column_form_needs_every_schema_column():
    doc = {"target": "A.y", "tables": [{"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    catalog = catalog_from_dict(doc)
    db = build_database(catalog, {"A": {"id": ["1", "2"], "y": ["a", "?"]}})
    assert db.tables["A"].columns["y"].missing.tolist() == [False, True]
    with pytest.raises(DataError, match="table A columns: y"):
        build_database(catalog, {"A": {"id": ["1"]}})
    with pytest.raises(DataError, match="different lengths"):
        build_database(catalog, {"A": {"id": ["1", "2"], "y": ["a"]}})


def test_utf8_byte_order_mark_is_skipped(school_dir):
    text = (school_dir / "student.csv").read_text(encoding="utf-8")
    (school_dir / "student.csv").write_text("\ufeff" + text, encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    assert_same_database(load_database(catalog, school_dir), build_database(catalog, school_rows()))


def test_duplicate_header_name_rejected(school_dir):
    (school_dir / "student.csv").write_text("SID,grade,SID\ns1,8,s9\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError, match=r"student\.csv: header repeats column 'SID'"):
        load_database(catalog, school_dir)


@pytest.mark.parametrize("bad_row", ["s5", "s5,9,extra"])
def test_ragged_row_rejected_with_line_number(school_dir, bad_row):
    (school_dir / "student.csv").write_text(f"SID,grade\ns1,8\n\ns2,10\n{bad_row}\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    fields = len(bad_row.split(","))
    with pytest.raises(DataError, match=rf"student\.csv line 5: {fields} fields, header has 2"):
        load_database(catalog, school_dir)


def test_blank_lines_are_skipped(school_dir):
    (school_dir / "student.csv").write_text("SID,grade\n\ns1,8\ns2,10\n\n\ns3,12\ns4,\n\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    assert_same_database(load_database(catalog, school_dir), build_database(catalog, school_rows()))


@pytest.mark.parametrize("cell, problem", [("x", "not numeric"), ("inf", "not finite")])
def test_bad_number_in_a_csv_names_its_physical_line(school_dir, cell, problem):
    # Blank lines before the bad cell: it is data row 3 but line 6 of the file.
    (school_dir / "student.csv").write_text(f"SID,grade\ns1,8\n\n\ns2,10\ns3,{cell}\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError) as info:
        load_database(catalog, school_dir)
    assert str(info.value) == f"{school_dir / 'student.csv'} line 6: column grade: {problem}: {cell!r}"


def test_bad_number_after_a_multi_line_record_names_the_line_it_ends_on(school_dir):
    (school_dir / "student.csv").write_text('SID,grade,note\ns1,8,"two\nlines"\ns2,x,\n', encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError, match=r"student\.csv line 4: column grade: not numeric: 'x'$"):
        load_database(catalog, school_dir)


def test_csv_parse_error_is_a_data_error(school_dir):
    (school_dir / "student.csv").write_text("SID,grade\ns1,8\ns2," + "9" * 200_000 + "\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError, match=r"student\.csv line 3: field larger than field limit"):
        load_database(catalog, school_dir)


def test_non_utf8_file_is_a_data_error(school_dir):
    (school_dir / "student.csv").write_bytes(b"SID,grade\ns1,8\ns2,\xff9\n")
    catalog = load_schema(school_dir / "schema.yaml")
    with pytest.raises(DataError, match=r"student\.csv: not UTF-8 text: invalid start byte"):
        load_database(catalog, school_dir)


@pytest.mark.parametrize("collector_on", [True, False])
@pytest.mark.parametrize("ragged", [False, True])
def test_loading_leaves_the_garbage_collector_as_it_found_it(school_dir, collector_on, ragged):
    """The collector, off through the whole load, is back as it was after a good load and after a DataError alike."""
    if ragged:
        (school_dir / "student.csv").write_text("SID,grade\ns1,8\ns2,9,extra\n", encoding="utf-8")
    catalog = load_schema(school_dir / "schema.yaml")
    was = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        if ragged:
            with pytest.raises(DataError, match="line 3: 3 fields, header has 2"):
                load_database(catalog, school_dir)
        else:
            load_database(catalog, school_dir)
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was else gc.disable)()


def test_csv_rows_are_read_with_the_garbage_collector_off(school_dir, monkeypatch):
    seen = []
    reader = csv.reader

    def recording_reader(fh):
        for row in reader(fh):
            seen.append(gc.isenabled())
            yield row

    monkeypatch.setattr(csv, "reader", recording_reader)
    was = gc.isenabled()
    gc.enable()
    try:
        load_database(load_schema(school_dir / "schema.yaml"), school_dir)
        assert seen and not any(seen)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_loading_runs_no_garbage_collection(school_dir):
    """Thousands of CSV rows, far above the youngest generation's threshold, and not one collection."""
    with open(school_dir / "student.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["SID", "grade"])
        writer.writerows([f"s{i}", str(i % 20)] for i in range(1, 5001))
    catalog = load_schema(school_dir / "schema.yaml")
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        db = load_database(catalog, school_dir)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert db.tables["Student"].n_rows == 5000 > gc.get_threshold()[0]
    assert collections == []
