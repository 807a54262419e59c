import pytest

import oracles
from conftest import school_doc, self_referencing_school_doc
from oracles import random_micro_db

from reltree.schema import (
    SchemaError,
    catalog_from_dict,
    fingerprint,
    is_associative,
    load_schema,
    neighbors,
    table_depths,
)


def test_load_school_schema(school_dir):
    catalog = load_schema(school_dir / "schema.yaml")
    assert sorted(catalog.table_names) == ["Course", "Enrolled", "Movie", "Professor", "Student"]
    assert catalog.target_table == "Professor"
    assert catalog.target_attribute == "popular"
    assert len(catalog.fk_edges) == 4


def test_single_table_schema_has_no_edges():
    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    catalog = catalog_from_dict(doc)
    assert catalog.fk_edges == ()
    assert table_depths(catalog) == {"T": 0}
    assert neighbors(catalog, "T") == ()


def test_dangling_fk_is_rejected():
    doc = {
        "target": "A.y",
        "tables": [{"name": "A", "columns": [{"id": "pk"}, {"b": "fk(B.id)"}, {"y": "cat"}]}],
    }
    with pytest.raises(SchemaError, match="A.b"):
        catalog_from_dict(doc)


def test_fk_must_reference_primary_key():
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"b": "fk(B.x)"}, {"y": "cat"}]},
            {"name": "B", "columns": [{"id": "pk"}, {"x": "num"}]},
        ],
    }
    with pytest.raises(SchemaError, match="B.x"):
        catalog_from_dict(doc)


def test_duplicate_columns_and_multiple_pks_rejected():
    with pytest.raises(SchemaError, match="duplicate column"):
        catalog_from_dict({"target": "A.y", "tables": [{"name": "A", "columns": [{"id": "pk"}, {"id": "num"}, {"y": "cat"}]}]})
    with pytest.raises(SchemaError, match="exactly one primary key"):
        catalog_from_dict({"target": "A.y", "tables": [{"name": "A", "columns": [{"id": "pk"}, {"id2": "pk"}, {"y": "cat"}]}]})


def test_target_attribute_must_be_categorical():
    doc = {"target": "A.y", "tables": [{"name": "A", "columns": [{"id": "pk"}, {"y": "num"}]}]}
    with pytest.raises(SchemaError, match="categorical"):
        catalog_from_dict(doc)


def test_unreachable_tables_are_dropped_with_warning(school_catalog):
    doc = school_doc()
    doc["tables"].append({"name": "Island", "columns": [{"id": "pk"}, {"z": "num"}]})
    catalog = catalog_from_dict(doc)
    assert catalog.unreachable == ("Island",)
    assert "Island" not in catalog.table_names


def test_school_depths(school_catalog):
    assert table_depths(school_catalog) == {
        "Professor": 0,
        "Course": 1,
        "Movie": 1,
        "Enrolled": 2,
        "Student": 3,
    }


def test_depths_with_two_distinct_fk_edges_between_same_pair():
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "B", "columns": [{"id": "pk"}, {"a1": "fk(A.id)"}, {"a2": "fk(A.id)"}, {"v": "num"}]},
        ],
    }
    catalog = catalog_from_dict(doc)
    assert table_depths(catalog) == {"A": 0, "B": 1}
    # two edges -> two distinct adjacency entries
    assert len(neighbors(catalog, "A")) == 2
    assert len(neighbors(catalog, "B")) == 2


def test_depths_ignore_declaration_order(school_catalog):
    doc = school_doc()
    doc["tables"] = list(reversed(doc["tables"]))
    assert table_depths(catalog_from_dict(doc)) == table_depths(school_catalog)


def test_neighbors_course(school_catalog):
    adj = neighbors(school_catalog, "Course")
    assert [(a.to_table, a.from_column, a.to_column) for a in adj] == [
        ("Professor", "PID", "PID"),
        ("Enrolled", "CID", "CID"),
    ]


def test_neighbors_enrolled(school_catalog):
    adj = neighbors(school_catalog, "Enrolled")
    assert [(a.to_table, a.from_column) for a in adj] == [("Course", "CID"), ("Student", "SID")]


def test_neighbors_unknown_table(school_catalog):
    with pytest.raises(SchemaError):
        neighbors(school_catalog, "Dormitory")


def test_is_associative(school_catalog):
    assert is_associative(school_catalog, "Enrolled")
    assert not is_associative(school_catalog, "Student")  # carries grade
    assert not is_associative(school_catalog, "Course")  # carries credits
    # one FK and no attributes still is not associative
    doc = {
        "target": "A.y",
        "tables": [
            {"name": "A", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "L", "columns": [{"id": "pk"}, {"a": "fk(A.id)"}]},
        ],
    }
    assert not is_associative(catalog_from_dict(doc), "L")


def test_edge_depth_difference_at_most_one_on_random_schemas():
    for seed in range(40):
        doc, _ = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        depths = table_depths(catalog)
        for e in catalog.fk_edges:
            assert abs(depths[e.fk_table] - depths[e.pk_table]) <= 1


def test_fingerprint_tracks_structure(school_catalog):
    assert fingerprint(school_catalog) == fingerprint(catalog_from_dict(school_doc()))
    doc = school_doc()
    doc["tables"][3]["columns"].append({"age": "num"})
    assert fingerprint(catalog_from_dict(doc)) != fingerprint(school_catalog)


def test_stored_graph_matches_the_oracle():
    """Depths and hops are computed once, with the catalog; they must equal the oracle's on every kind of schema."""
    docs = [school_doc(), self_referencing_school_doc()] + [random_micro_db(seed)[0] for seed in range(40)]
    for doc in docs:
        catalog = catalog_from_dict(doc)
        assert table_depths(catalog) == oracles.depths(doc)
        for table in catalog.table_names:
            hops = neighbors(catalog, table)
            assert all(h.from_table == table for h in hops)
            assert [(h.from_column, h.to_table, h.to_column, h.label) for h in hops] == oracles.neighbors(doc, table)
            for h in hops:
                assert h.many_to_one == (h.to_column == oracles.primary_key(doc, h.to_table))


def test_a_self_referencing_key_gives_both_directions():
    catalog = catalog_from_dict(self_referencing_school_doc())
    mentor = [(h.from_column, h.to_column, h.many_to_one) for h in neighbors(catalog, "Professor") if h.label == "mentor"]
    assert mentor == [("mentor", "PID", True), ("PID", "mentor", False)]
    assert table_depths(catalog) == table_depths(catalog_from_dict(school_doc()))
