import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import aggregate_categorical, aggregate_numeric, flat_cells, naive_numeric, random_micro_db

from reltree.eager import enumerate_paths
from reltree.features import (
    BOOLEAN,
    CATEGORICAL,
    Agg,
    BagAggregates,
    FeatureDescriptor,
    contains_enabled,
    feature_cells,
    features_for_path,
    path_descriptors,
)
from reltree.joinpath import (
    JoinPath,
    ValueBags,
    candidate_extensions,
    empty_path,
    initial_paths,
    instantiate,
    root_instantiation,
)
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import build_database


def test_aggregate_numeric_basic():
    a = aggregate_numeric([8, 10, 12])
    assert a.avg == pytest.approx(10.0)
    assert a.var == pytest.approx(8 / 3)
    assert a.std == pytest.approx(math.sqrt(8 / 3))
    assert a.max == 12 and a.min == 8 and a.sum == 30 and a.count == 3


def test_aggregate_numeric_empty_is_all_undefined():
    a = aggregate_numeric([])
    assert all(v is None for v in (a.avg, a.std, a.var, a.max, a.min, a.sum, a.count))


def test_aggregate_numeric_all_missing_keeps_count():
    a = aggregate_numeric([None, None])
    assert a.count == 2
    assert all(v is None for v in (a.avg, a.std, a.var, a.max, a.min, a.sum))


def test_aggregate_categorical_basic():
    a = aggregate_categorical(["a", "a", "b"], ["a", "b", "c"], emit_contains=True)
    assert a.count == 3 and a.distinct_count == 2
    assert a.contains == {"a": True, "b": True, "c": False}


def test_aggregate_categorical_empty_all_undefined():
    a = aggregate_categorical([], ["a", "b"], emit_contains=True)
    assert a.count is None and a.distinct_count is None
    assert a.contains == {"a": None, "b": None}


def test_aggregate_categorical_missing_excluded_from_distinct():
    a = aggregate_categorical([None, "a"], ["a", "b"], emit_contains=True)
    assert a.count == 2 and a.distinct_count == 1
    assert a.contains == {"a": True, "b": False}
    # all-missing: counts stay defined, contains does not
    b = aggregate_categorical([None, None], ["a"], emit_contains=True)
    assert b.count == 2 and b.distinct_count == 0
    assert b.contains == {"a": None}


def test_contains_enabled_thresholds():
    params = LearnParams()
    assert not contains_enabled(25, 100, params)  # 25 >= 0.2 * 100
    assert contains_enabled(2, 500, params)
    assert not contains_enabled(40, 10_000, params)  # absolute bound is strict


@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)),
        max_size=40,
    )
)
def test_scalar_matches_oracle_numeric(values):
    a = aggregate_numeric(values)
    expected = naive_numeric(values)
    for field in ("avg", "std", "var", "max", "min", "sum", "count"):
        got = getattr(a, field)
        want = expected[field]
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(
    st.lists(
        st.lists(
            st.one_of(st.none(), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)),
            max_size=8,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_vectorized_numeric_matches_scalar(bags):
    offsets = np.cumsum([0] + [len(b) for b in bags]).astype(np.int64)
    flat = [v for b in bags for v in b]
    values = np.array([0.0 if v is None else v for v in flat], dtype=np.float64)
    missing = np.array([v is None for v in flat], dtype=bool)

    vb = ValueBags(offsets=offsets, kind="numeric", values=values, missing=missing)
    field = {
        Agg.AVG: "avg", Agg.STD: "std", Agg.VAR: "var", Agg.MAX: "max",
        Agg.MIN: "min", Agg.SUM: "sum", Agg.COUNT: "count",
    }
    aggregates = BagAggregates(vb)
    cols = {agg: aggregates.cells(FeatureDescriptor(JoinPath(start="T"), "a", agg))[1:] for agg in field}
    for i, bag in enumerate(bags):
        scalar = aggregate_numeric(bag)
        for agg, name in field.items():
            want = getattr(scalar, name)
            values, defined = cols[agg]
            if want is None:
                assert not defined[i]
            else:
                assert defined[i]
                assert values[i] == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(st.lists(st.one_of(st.none(), st.sampled_from("abcd")), max_size=30))
def test_categorical_count_properties(values):
    a = aggregate_categorical(values, "abcd", emit_contains=False)
    if not values:
        assert a.count is None
    else:
        assert a.count == len(values)
        missing = sum(1 for v in values if v is None)
        assert a.count == missing + sum(1 for v in values if v is not None)
        assert a.distinct_count <= a.count


def _instantiated(db, catalog, render):
    cache = {empty_path(catalog): root_instantiation(db)}
    queue = list(initial_paths(catalog))
    while queue:
        p = queue.pop()
        if p.render() == render:
            return instantiate(db, p, cache)
        queue.extend(candidate_extensions(catalog, p))
    raise AssertionError(render)


def test_features_for_deep_path_school(school_catalog, school_db):
    inst = _instantiated(school_db, school_catalog, "Professor->Course(PID)->Enrolled(CID)->Student(SID)")
    cols = features_for_path(school_db, inst, LearnParams())
    names = [c.descriptor.name for c in cols]
    base = "Professor->Course(PID)->Enrolled(CID)->Student(SID)"
    assert names == [
        f"{base}.:is_empty",
        f"{base}.grade:avg",
        f"{base}.grade:std",
        f"{base}.grade:var",
        f"{base}.grade:max",
        f"{base}.grade:min",
        f"{base}.grade:sum",
        f"{base}.grade:count",
    ]
    by = {c.descriptor.name: c for c in cols}
    avg = by[f"{base}.grade:avg"]
    assert avg.defined[0] and avg.values[0] == pytest.approx(10.0)
    # Snape reaches {missing, 8}: count 2, avg of the sub-multiset
    cnt = by[f"{base}.grade:count"]
    assert cnt.values[1] == 2 and avg.values[1] == pytest.approx(8.0)
    # empty bags: is_empty true, everything else undefined
    is_empty = by[f"{base}.:is_empty"]
    assert bool(is_empty.values[2]) and bool(is_empty.values[3])
    assert not avg.defined[2] and not cnt.defined[3]


def test_identity_features_for_determinate_path(school_catalog, school_db):
    inst = _instantiated(school_db, school_catalog, "Professor->Movie(MID)")
    cols = features_for_path(school_db, inst, LearnParams())
    assert [c.descriptor.name for c in cols] == ["Professor->Movie(MID).genre:identity"]
    genre = cols[0]
    assert genre.kind == "categorical"
    assert genre.dictionary[genre.values[0]] == "comedy"
    assert genre.dictionary[genre.values[1]] == "drama"
    assert not genre.defined[2]  # dangling movie reference -> empty bag
    assert genre.defined[3]


def test_identity_features_through_a_reference_to_an_empty_table():
    doc = {
        "target": "P.y",
        "tables": [
            {"name": "P", "columns": [{"id": "pk"}, {"m": "fk(M.id)"}, {"y": "cat"}]},
            {"name": "M", "columns": [{"id": "pk"}, {"g": "cat"}, {"x": "num"}]},
        ],
    }
    rows = {"P": [{"id": "p1", "m": "m1", "y": "a"}, {"id": "p2", "m": "m2", "y": "b"}], "M": []}
    catalog = catalog_from_dict(doc)
    db = build_database(catalog, rows)
    cols = features_for_path(db, _instantiated(db, catalog, "P->M(m)"), LearnParams())
    assert [c.descriptor.name for c in cols] == ["P->M(m).g:identity", "P->M(m).x:identity"]
    assert not any(c.defined.any() for c in cols)


def test_keys_only_terminal_yields_only_is_empty():
    doc = {
        "target": "P.y",
        "tables": [
            {"name": "P", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "C", "columns": [{"id": "pk"}, {"p": "fk(P.id)"}]},
        ],
    }
    rows = {"P": [{"id": "p1", "y": "a"}], "C": [{"id": "c1", "p": "p1"}]}
    catalog = catalog_from_dict(doc)
    db = build_database(catalog, rows)
    inst = _instantiated(db, catalog, "P->C(p)")
    cols = features_for_path(db, inst, LearnParams())
    assert [c.descriptor.name for c in cols] == ["P->C(p).:is_empty"]


def test_root_path_excludes_target_attribute(school_db, school_catalog):
    inst = root_instantiation(school_db)
    cols = features_for_path(school_db, inst, LearnParams())
    assert cols == []  # Professor carries only keys and the class label


def test_contains_features_generated_from_base_dictionary():
    doc = {
        "target": "P.y",
        "tables": [
            {"name": "P", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "C", "columns": [{"id": "pk"}, {"p": "fk(P.id)"}, {"tag": "cat"}]},
        ],
    }
    rows = {
        "P": [{"id": "p1", "y": "a"}, {"id": "p2", "y": "b"}],
        "C": [
            {"id": "c1", "p": "p1", "tag": "red"},
            {"id": "c2", "p": "p1", "tag": "blue"},
            {"id": "c3", "p": "p2", "tag": "red"},
            {"id": "c4", "p": "p2", "tag": "?"},
            {"id": "c5", "p": "p2", "tag": "green"},
            {"id": "c6", "p": "p2", "tag": "red"},
            {"id": "c7", "p": "p1", "tag": "red"},
            {"id": "c8", "p": "p2", "tag": "blue"},
            {"id": "c9", "p": "p1", "tag": "green"},
            {"id": "c10", "p": "p2", "tag": "red"},
            {"id": "c11", "p": "p1", "tag": "blue"},
            {"id": "c12", "p": "p2", "tag": "green"},
            {"id": "c13", "p": "p1", "tag": "red"},
            {"id": "c14", "p": "p2", "tag": "blue"},
            {"id": "c15", "p": "p1", "tag": "green"},
            {"id": "c16", "p": "p2", "tag": "red"},
        ],
    }
    catalog = catalog_from_dict(doc)
    db = build_database(catalog, rows)
    inst = _instantiated(db, catalog, "P->C(p)")
    cols = features_for_path(db, inst, LearnParams())
    contains = [c for c in cols if c.descriptor.agg == Agg.CONTAINS]
    # 3 distinct tags over 16 rows: 3 < 40 and 3 < 3.2 -> enabled, one per value
    assert sorted(c.descriptor.value for c in contains) == ["blue", "green", "red"]
    red = next(c for c in contains if c.descriptor.value == "red")
    assert bool(red.values[0]) and bool(red.values[1])


def test_descriptor_order_is_total_and_permutation_invariant(school_catalog):
    paths = list(initial_paths(school_catalog))
    paths.append(candidate_extensions(school_catalog, paths[0])[0])
    descriptors = [FeatureDescriptor(path=empty_path(school_catalog), attribute="z", agg=Agg.IDENTITY)]
    for p in paths:
        descriptors.append(FeatureDescriptor(path=p, attribute=None, agg=Agg.IS_EMPTY))
        for agg in (Agg.AVG, Agg.COUNT, Agg.MIN):
            descriptors.append(FeatureDescriptor(path=p, attribute="grade", agg=agg))
        for v in ("a", "b"):
            descriptors.append(FeatureDescriptor(path=p, attribute="genre", agg=Agg.CONTAINS, value=v))
    keys = [d.sort_key() for d in descriptors]
    assert len(set(keys)) == len(keys)  # strict total order
    expected = sorted(descriptors, key=lambda d: d.sort_key())
    rnd = random.Random(7)
    for _ in range(5):
        shuffled = descriptors[:]
        rnd.shuffle(shuffled)
        assert sorted(shuffled, key=lambda d: d.sort_key()) == expected


def test_is_empty_sorts_before_attribute_columns(school_catalog, school_db):
    inst = _instantiated(school_db, school_catalog, "Professor->Course(PID)")
    cols = features_for_path(school_db, inst, LearnParams())
    assert cols[0].descriptor.agg == Agg.IS_EMPTY
    aggs = [c.descriptor.agg for c in cols[1:]]
    assert aggs == [Agg.AVG, Agg.STD, Agg.VAR, Agg.MAX, Agg.MIN, Agg.SUM, Agg.COUNT]


def _oracle_cells(col):
    """A feature column as the oracle writes it: None where undefined, else a bool, a value string or a float."""
    cells = []
    for i in range(len(col)):
        if not col.defined[i]:
            cells.append(None)
        elif col.kind == BOOLEAN:
            cells.append(bool(col.values[i]))
        elif col.kind == CATEGORICAL:
            cells.append(col.dictionary[int(col.values[i])])
        else:
            cells.append(float(col.values[i]))
    return cells


# Aggregates the oracle computes with other arithmetic (fmean, pvariance, fsum).
_ROUNDED = (Agg.AVG, Agg.STD, Agg.VAR, Agg.SUM)


def test_feature_cells_equal_the_oracle_cells():
    """Each descriptor's cells, computed one at a time as prediction does, are the brute-force oracle's."""
    params = LearnParams()
    for seed in range(40):
        doc, tables = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        db = build_database(catalog, tables)
        expected = flat_cells(doc, tables, 3)
        cache = {empty_path(catalog): root_instantiation(db)}
        names = set()
        for path in [empty_path(catalog), *enumerate_paths(catalog, 3)]:
            inst = instantiate(db, path, cache)
            aggregates = {}
            for d in reversed(path_descriptors(db, path, params)):  # not training's order
                got, want = _oracle_cells(feature_cells(db, inst, d, aggregates)), expected[d.name]
                names.add(d.name)
                assert len(got) == len(want), d.name
                for a, b in zip(got, want):
                    if d.agg in _ROUNDED and a is not None and b is not None:
                        assert a == pytest.approx(b, rel=1e-9, abs=1e-12), d.name
                    else:
                        assert a == b and type(a) is type(b), d.name
        assert names == set(expected)


@pytest.mark.parametrize("domsize_abs", [40, 0])
def test_path_descriptors_name_the_oracle_features_in_descriptor_order(domsize_abs):
    """Without a join, each path's descriptors are the oracle's features of that path."""
    params = LearnParams(domsize_abs=domsize_abs)
    for seed in range(20):
        doc, tables = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        db = build_database(catalog, tables)
        names = []
        for path in [empty_path(catalog), *enumerate_paths(catalog, 3)]:
            descriptors = path_descriptors(db, path, params)
            assert descriptors == sorted(descriptors, key=FeatureDescriptor.sort_key)
            assert all(d.path == path for d in descriptors)
            names += [d.name for d in descriptors]
        assert len(set(names)) == len(names)
        assert set(names) == set(flat_cells(doc, tables, 3, domsize_abs=domsize_abs))
