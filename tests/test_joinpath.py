from dataclasses import dataclass

import numpy as np
import pytest

from oracles import dfs_paths, path_bags, kept_rows, random_micro_db, render_path

from reltree.features import features_for_path
from reltree.joinpath import (
    JoinPath,
    candidate_extensions,
    computed_once,
    empty_path,
    extend_instantiation,
    initial_paths,
    instantiate,
    project_values,
    root_instantiation,
)
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import build_database


def test_computed_once_computes_once_per_instance_and_stores_the_value_on_it():
    calls = []

    @dataclass(frozen=True)
    class Frozen:
        x: int

        @computed_once
        def double(self):
            calls.append(self)
            return 2 * self.x

    class Plain:
        def __init__(self, x):
            self.x = x

        @computed_once
        def double(self):
            calls.append(self)
            return 2 * self.x

    for cls in (Frozen, Plain):
        calls.clear()
        a, b = cls(1), cls(2)
        assert [a.double, a.double, b.double, a.double, b.double] == [2, 2, 4, 2, 4]
        assert len(calls) == 2 and calls[0] is a and calls[1] is b
        assert vars(a)["double"] == 2 and vars(b)["double"] == 4


def _path_by_render(paths, render):
    by = {p.render(): p for p in paths}
    assert render in by, f"{render} not among {sorted(by)}"
    return by[render]


def test_initial_paths_school(school_catalog):
    paths = initial_paths(school_catalog)
    assert [p.render() for p in paths] == ["Professor->Course(PID)", "Professor->Movie(MID)"]
    course = paths[0]
    movie = paths[1]
    assert not course.determinate  # lands on Course's FK column
    assert movie.determinate  # lands on Movie's primary key


def test_determinate_follows_the_hops_however_the_path_is_built(school_catalog):
    course, movie = initial_paths(school_catalog)
    assert not JoinPath("Professor", course.hops).determinate  # one-to-many hop
    assert JoinPath("Professor", movie.hops).determinate
    assert JoinPath("Professor").determinate
    assert JoinPath("Professor", course.hops) == empty_path(school_catalog).extended(course.hops[0])


def test_initial_paths_without_fks():
    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    assert initial_paths(catalog_from_dict(doc)) == []


def test_associative_lookahead_from_target():
    doc = {
        "target": "T.y",
        "tables": [
            {"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "L", "columns": [{"id": "pk"}, {"t": "fk(T.id)"}, {"x": "fk(X.id)"}]},
            {"name": "X", "columns": [{"id": "pk"}, {"v": "num"}]},
        ],
    }
    paths = initial_paths(catalog_from_dict(doc))
    assert [p.render() for p in paths] == ["T->L(t)->X(x)"]  # never T->L alone


def test_candidate_extensions_school(school_catalog):
    course = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    exts = candidate_extensions(school_catalog, course)
    assert [p.render() for p in exts] == ["Professor->Course(PID)->Enrolled(CID)->Student(SID)"]
    # the full path has no deeper neighbors
    assert candidate_extensions(school_catalog, exts[0]) == []
    # Movie is a leaf table
    movie = _path_by_render(initial_paths(school_catalog), "Professor->Movie(MID)")
    assert candidate_extensions(school_catalog, movie) == []


def test_extensions_never_revisit_tables(school_catalog):
    seen = set()
    queue = list(initial_paths(school_catalog))
    while queue:
        p = queue.pop()
        assert len(set(p.tables)) == len(p.tables)
        seen.add(p.render())
        queue.extend(candidate_extensions(school_catalog, p))
    assert "Professor->Course(PID)->Enrolled(CID)->Student(SID)" in seen


def test_root_instantiation(school_db):
    inst = root_instantiation(school_db)
    assert inst.n_instances == 4
    assert list(inst.bag_sizes()) == [1, 1, 1, 1]
    for i in range(4):
        assert list(inst.bag(i)) == [i]
    empty = root_instantiation(school_db, [])
    assert empty.n_instances == 0


def test_extend_instantiation_lupin(school_catalog, school_db):
    full = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    full = candidate_extensions(school_catalog, full)[0]
    cache = {empty_path(school_catalog): root_instantiation(school_db)}
    inst = instantiate(school_db, full, cache)
    lupin = 0
    students = school_db.tables["Student"]
    grades = [students.columns["grade"].values[r] for r in inst.bag(lupin)]
    assert sorted(grades) == [8.0, 10.0, 12.0]
    # Binns and Sprout have no courses: empty stays empty through every hop
    assert inst.bag(2).size == 0
    assert inst.bag(3).size == 0
    # intermediate prefixes were cached along the way
    assert len(cache) == 4


def test_extension_multiplicity_is_bag_semantics():
    doc = {
        "target": "P.y",
        "tables": [
            {"name": "P", "columns": [{"id": "pk"}, {"y": "cat"}]},
            {"name": "C", "columns": [{"id": "pk"}, {"p": "fk(P.id)"}]},
            {"name": "E", "columns": [{"id": "pk"}, {"c": "fk(C.id)"}, {"v": "num"}]},
        ],
    }
    rows = {
        "P": [{"id": "p1", "y": "a"}],
        "C": [{"id": f"c{i}", "p": "p1"} for i in range(2)],
        "E": [{"id": f"e{c}{j}", "c": f"c{c}", "v": "1"} for c in range(2) for j in range(3)],
    }
    catalog = catalog_from_dict(doc)
    db = build_database(catalog, rows)
    path = initial_paths(catalog)[0]
    target = candidate_extensions(catalog, path)[0]
    cache = {empty_path(catalog): root_instantiation(db)}
    inst = instantiate(db, target, cache)
    assert inst.path.render() == "P->C(p)->E(c)"
    assert inst.bag(0).size == 6  # 2 courses x 3 enrollments, multiplicities kept


def test_project_values_examples(school_catalog, school_db):
    course = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    full = candidate_extensions(school_catalog, course)[0]
    cache = {empty_path(school_catalog): root_instantiation(school_db)}
    inst = instantiate(school_db, full, cache)
    bags = project_values(school_db, inst, "grade")
    lupin = bags.values[bags.offsets[0]:bags.offsets[1]]
    assert sorted(lupin.tolist()) == [8.0, 10.0, 12.0]
    # Snape: four rows? no - one course, two enrollments, one grade missing
    snape = slice(bags.offsets[1], bags.offsets[2])
    assert bags.missing[snape].sum() == 1
    assert (bags.offsets[2] - bags.offsets[1]) == 2
    # empty bag -> empty multiset
    assert bags.offsets[3] == bags.offsets[2]


def test_project_values_rejects_keys(school_catalog, school_db):
    inst = root_instantiation(school_db)
    with pytest.raises(ValueError, match="key column"):
        project_values(school_db, inst, "PID")


def test_path_enumeration_matches_dfs_oracle():
    from conftest import school_doc, self_referencing_school_doc
    from reltree.eager import enumerate_paths

    for doc in (school_doc(), self_referencing_school_doc()):
        catalog = catalog_from_dict(doc)
        for max_len in (1, 2, 3, 4):
            got = {p.render() for p in enumerate_paths(catalog, max_len)}
            expected = {render_path("Professor", hops) for hops in dfs_paths(doc, max_len)}
            assert got == expected

    for seed in range(30):
        doc, _ = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        target = doc["target"].split(".")[0]
        for max_len in (1, 3):
            got = {p.render() for p in enumerate_paths(catalog, max_len)}
            expected = {render_path(target, hops) for hops in dfs_paths(doc, max_len)}
            assert got == expected, f"seed={seed} max_len={max_len}"


def test_instantiations_match_nested_loop_oracle():
    from reltree.eager import enumerate_paths

    checked = 0
    for seed in range(12):
        doc, tables = random_micro_db(seed)
        catalog = catalog_from_dict(doc)
        db = build_database(catalog, tables)
        kept = kept_rows(doc, tables)
        oracle_paths = {render_path(doc["target"].split(".")[0], h): h for h in dfs_paths(doc, 3)}
        cache = {empty_path(catalog): root_instantiation(db)}
        for path in enumerate_paths(catalog, 3):
            inst = instantiate(db, path, cache)
            hops = oracle_paths[path.render()]
            bags = path_bags(doc, kept, hops)
            term = path.terminal_table
            pk = catalog.table(term).primary_key.name
            for i, bag in enumerate(bags):
                got = sorted(db.tables[term].columns[pk].codes[inst.bag(i)].tolist())
                expected = sorted(db.key_code(term, pk, str(r[pk])) for r in bag)
                assert got == expected
                checked += 1
    assert checked > 50


def test_cache_soundness_restrict_commutes(school_catalog, school_db):
    course = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    hop = course.hops[0]
    root = root_instantiation(school_db)
    subset = np.array([0, 2], dtype=np.int64)
    a = extend_instantiation(school_db, root.restrict(subset), hop)
    b = extend_instantiation(school_db, root, hop).restrict(subset)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.instance_ids, b.instance_ids)


def test_restrict_rejects_non_subset(school_db):
    root = root_instantiation(school_db, [0, 1])
    with pytest.raises(ValueError):
        root.restrict([2])


def test_lookup_counter_monotone_and_depth_tagged(school_catalog, school_db):
    course = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    full = candidate_extensions(school_catalog, course)[0]
    with school_db.stats.measure() as m:
        cache = {empty_path(school_catalog): root_instantiation(school_db)}
        instantiate(school_db, full, cache)
    assert m.lookups_by_depth[1] == 4  # one lookup per professor
    assert m.lookups_by_depth[2] == 3  # one per course row reached
    assert m.lookups_by_depth[3] == 5  # one per enrollment row reached
    assert m.total_lookups == 12


def test_nested_measure_scopes(school_catalog, school_db):
    course = _path_by_render(initial_paths(school_catalog), "Professor->Course(PID)")
    full = candidate_extensions(school_catalog, course)[0]
    lifetime_before = school_db.stats.lifetime.total_lookups
    with school_db.stats.measure() as outer:
        cache = {empty_path(school_catalog): root_instantiation(school_db)}
        instantiate(school_db, course, cache)  # outer only: 4 lookups at depth 1
        with school_db.stats.measure() as inner:
            inst = instantiate(school_db, full, cache)  # both: 3 at depth 2, 5 at depth 3
            n_features = len(features_for_path(school_db, inst, LearnParams()))
    assert dict(inner.lookups_by_depth) == {2: 3, 3: 5}
    assert dict(outer.lookups_by_depth) == {1: 4, 2: 3, 3: 5}
    assert inner.features == outer.features == n_features > 0
    assert inner.paths == outer.paths == {full.render()}
    assert school_db.stats.lifetime.total_lookups - lifetime_before == 12
