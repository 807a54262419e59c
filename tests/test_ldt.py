import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import school_doc, school_rows
from oracles import per_column_best_split, random_micro_db, single_best, two_children

from reltree.features import Agg, FeatureColumn, FeatureDescriptor
from reltree.joinpath import JoinPath, initial_paths
from reltree.ldt import (
    InvalidSplitError,
    LocalDataTable,
    build_root_ldt,
    extend_ldt,
    partition_ldt,
    split_rows,
)
from reltree.params import LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import DataError, build_database
from reltree.tree import SplitTest, best_split

RESTRICTED = LearnParams(strategy="restricted")
UNRESTRICTED = LearnParams(strategy="unrestricted")

DEEP_PATH = "Professor->Course(PID)->Enrolled(CID)->Student(SID)"


def test_build_root_ldt_school(school_db):
    ldt = build_root_ldt(school_db, RESTRICTED)
    assert len(ldt) == 4
    names = [c.descriptor.name for c in ldt.columns]
    assert "Professor->Course(PID).:is_empty" in names
    assert "Professor->Course(PID).credits:avg" in names
    assert "Professor->Movie(MID).genre:identity" in names
    assert all(len(c) == 4 for c in ldt.columns)
    assert [p.render() for p in ldt.frontier] == ["Professor->Course(PID)", "Professor->Movie(MID)"]


def test_root_ldt_requires_labeled_rows():
    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    db = build_database(catalog_from_dict(doc), {"T": [{"id": "1", "y": ""}]})
    with pytest.raises(DataError, match="labeled"):
        build_root_ldt(db, RESTRICTED)


def test_root_ldt_with_no_paths_and_no_attributes_has_no_columns():
    doc = {"target": "T.y", "tables": [{"name": "T", "columns": [{"id": "pk"}, {"y": "cat"}]}]}
    db = build_database(catalog_from_dict(doc), {"T": [{"id": "1", "y": "a"}, {"id": "2", "y": "b"}]})
    ldt = build_root_ldt(db, RESTRICTED)
    assert len(ldt.columns) == 0
    assert ldt.frontier == {}


def test_extend_restricted_uses_ancestor_paths(school_db, school_catalog):
    ldt = build_root_ldt(school_db, RESTRICTED)
    course, movie = initial_paths(school_catalog)
    # initial paths are always eligible in restricted mode (bootstrap), so the
    # first extension materializes the deep student path either way
    ext = extend_ldt(school_db, ldt, RESTRICTED, used_paths=frozenset({course}))
    new_names = {c.descriptor.name for c in ext.columns} - {c.descriptor.name for c in ldt.columns}
    assert any(DEEP_PATH in n for n in new_names)
    assert [p.render() for p in ext.frontier] == [DEEP_PATH]
    # original LDT is unchanged
    assert [p.render() for p in ldt.frontier] == ["Professor->Course(PID)", "Professor->Movie(MID)"]


def test_second_extension_differs_by_strategy(school_db, school_catalog):
    root = build_root_ldt(school_db, RESTRICTED)
    once = extend_ldt(school_db, root, RESTRICTED, used_paths=frozenset())
    assert [p.render() for p in once.frontier] == [DEEP_PATH]
    # the deep path was introduced but never used by an ancestor split:
    # restricted mode has nothing eligible, unrestricted still extends it
    assert extend_ldt(school_db, once, RESTRICTED, used_paths=frozenset()) is None
    again = extend_ldt(school_db, once, UNRESTRICTED, used_paths=frozenset())
    assert again is not None
    assert again.frontier == {}  # student has no deeper neighbors
    assert len(again.columns) == len(once.columns)
    # with the deep path used by an ancestor, restricted extends it too
    deep = next(iter(once.frontier))
    assert extend_ldt(school_db, once, RESTRICTED, used_paths=frozenset({deep})) is not None


def test_extend_on_empty_frontier_is_inextensible(school_db):
    ldt = build_root_ldt(school_db, UNRESTRICTED)
    once = extend_ldt(school_db, ldt, UNRESTRICTED, used_paths=frozenset())
    twice = extend_ldt(school_db, once, UNRESTRICTED, used_paths=frozenset())
    assert twice.frontier == {}
    assert extend_ldt(school_db, twice, UNRESTRICTED, used_paths=frozenset()) is None


def test_columns_monotone_down_the_tree(school_db):
    ldt = build_root_ldt(school_db, UNRESTRICTED)
    ext = extend_ldt(school_db, ldt, UNRESTRICTED, used_paths=frozenset())
    assert {c.descriptor for c in ldt.columns} <= {c.descriptor for c in ext.columns}


def test_extension_restricted_to_node_rows(school_db, school_catalog):
    ldt = build_root_ldt(school_db, RESTRICTED)
    test = SplitTest(
        descriptor=FeatureDescriptor(
            path=initial_paths(school_catalog)[0], attribute=None, agg=Agg.IS_EMPTY
        ),
        kind="boolean_true",
    )
    left, right = two_children(ldt, test)  # left: no courses (is_empty true)
    assert list(left.instance_ids) == [2, 3]
    assert list(right.instance_ids) == [0, 1]
    with school_db.stats.measure() as m:
        extend_ldt(school_db, right, RESTRICTED, used_paths=frozenset())
    # lookups bounded by the node's own bag sizes: 3 courses + 5 enrollments
    assert m.lookups_by_depth == {2: 3, 3: 5}
    # ancestor-depth joins are never recomputed when extending a child
    assert m.lookups_by_depth.get(1, 0) == 0


def _tiny_ldt(cells, labels, kind="boolean", dictionary=None):
    values = np.array([0 if v is None else v for v in cells], dtype=np.float64 if kind == "numeric" else np.int64)
    if kind == "boolean":
        values = values.astype(bool)
    col = FeatureColumn(
        descriptor=FeatureDescriptor(path=JoinPath(start="T"), attribute="f", agg=Agg.AVG),
        kind=kind,
        values=values,
        defined=np.array([v is not None for v in cells]),
        dictionary=dictionary,
    )
    return LocalDataTable(
        instance_ids=np.arange(len(cells), dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        n_classes=int(max(labels)) + 1,
        columns=[col],
        frontier={},
    )


def test_partition_boolean_with_undefined_routed_to_pass():
    ldt = _tiny_ldt([True, False, None], [0, 1, 0])
    test = SplitTest(descriptor=ldt.columns[0].descriptor, kind="boolean_true", undefined_route="pass")
    left, right = two_children(ldt, test)
    assert list(left.instance_ids) == [0, 2]
    assert list(right.instance_ids) == [1]


def test_partition_numeric():
    ldt = _tiny_ldt([3.0, 7.0], [0, 1], kind="numeric")
    test = SplitTest(descriptor=ldt.columns[0].descriptor, kind="numeric_le", threshold=5.0)
    left, right = two_children(ldt, test)
    assert list(left.instance_ids) == [0]
    assert list(right.instance_ids) == [1]


def test_partition_rejects_one_sided_split():
    ldt = _tiny_ldt([True, True], [0, 1])
    test = SplitTest(descriptor=ldt.columns[0].descriptor, kind="boolean_true", undefined_route="fail")
    with pytest.raises(InvalidSplitError):
        split_rows(ldt, [test])


def test_partition_children_share_the_frontier_map(school_db, school_catalog):
    ldt = build_root_ldt(school_db, RESTRICTED)
    test = SplitTest(
        descriptor=FeatureDescriptor(path=initial_paths(school_catalog)[0], attribute=None, agg=Agg.IS_EMPTY),
        kind="boolean_true",
    )
    left, right = two_children(ldt, test)
    assert left.frontier is ldt.frontier and right.frontier is ldt.frontier
    # the shared joins still cover the parent's four instances
    assert all(inst.n_instances == 4 for inst in right.frontier.values())


def _random_test(column: FeatureColumn, data) -> SplitTest | None:
    route = data.draw(st.sampled_from(["pass", "fail"]), label="route")
    if column.kind == "boolean":
        return SplitTest(descriptor=column.descriptor, kind="boolean_true", undefined_route=route)
    if column.kind == "numeric":
        present = sorted(set(column.values[column.defined].tolist()))
        if not present:
            return None
        threshold = data.draw(st.sampled_from(present), label="threshold")
        return SplitTest(descriptor=column.descriptor, kind="numeric_le", threshold=threshold, undefined_route=route)
    if not column.dictionary:
        return None
    value = data.draw(st.sampled_from(column.dictionary), label="value")
    return SplitTest(descriptor=column.descriptor, kind="categorical_eq", value=value, undefined_route=route)


@settings(max_examples=80, deadline=None)
@given(
    source=st.one_of(st.just("school"), st.integers(0, 100_000)),
    strategy=st.sampled_from(["restricted", "unrestricted"]),
    data=st.data(),
)
def test_extending_a_partitioned_node_matches_a_fresh_root(source, strategy, data):
    """A node extends from its ancestors' joins exactly as a root built over its own rows would."""
    if source == "school":
        doc, tables = school_doc(), school_rows()
    else:
        doc, tables = random_micro_db(source)
    db = build_database(catalog_from_dict(doc), tables)
    params = LearnParams(strategy=strategy)
    try:
        node = build_root_ldt(db, params)
    except DataError:
        assume(False)

    used: frozenset = frozenset()
    history: list[frozenset] = []  # used paths of each extension on the branch
    partitioned = False
    steps = data.draw(st.lists(st.sampled_from(["extend", "split"]), max_size=5), label="steps") + ["split"]
    for step in steps:
        if step == "extend":
            extended = extend_ldt(db, node, params, used)
            if extended is not None:
                history.append(used)
                node = extended
            continue
        if not node.columns:
            continue
        test = _random_test(data.draw(st.sampled_from(node.columns), label="column"), data)
        if test is None:
            continue
        try:
            left, right = two_children(node, test)
        except InvalidSplitError:
            continue
        node = data.draw(st.sampled_from([left, right]), label="side")
        used |= {test.descriptor.path}
        partitioned = True
    assume(partitioned)

    fresh = build_root_ldt(db, params, node.instance_ids)
    for ancestor_used in history:
        fresh = extend_ldt(db, fresh, params, ancestor_used)
    assert list(fresh.frontier) == list(node.frontier)

    with db.stats.measure() as got_stats:
        got = extend_ldt(db, node, params, used)
    with db.stats.measure() as want_stats:
        want = extend_ldt(db, fresh, params, used)
    assert got_stats.lookups_by_depth == want_stats.lookups_by_depth
    assert (got is None) == (want is None)
    if got is None:
        return
    assert list(got.frontier) == list(want.frontier)
    added = got.columns[len(node.columns):]
    expected = want.columns[len(fresh.columns):]
    assert [c.descriptor for c in added] == [c.descriptor for c in expected]
    for a, b in zip(added, expected):
        assert a.kind == b.kind and a.dictionary == b.dictionary
        assert np.array_equal(a.defined, b.defined)
        assert a.values[a.defined].tobytes() == b.values[b.defined].tobytes()


def _root(source, params):
    """(database, root LDT) of the school fixture or of a random micro database."""
    if source == "school":
        doc, tables = school_doc(), school_rows()
    else:
        doc, tables = random_micro_db(source)
    db = build_database(catalog_from_dict(doc), tables)
    try:
        return db, build_root_ldt(db, params)
    except DataError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(
    source=st.one_of(st.just("school"), st.integers(0, 100_000)),
    strategy=st.sampled_from(["restricted", "unrestricted"]),
    data=st.data(),
)
def test_blocks_match_the_columns_down_random_walks(source, strategy, data):
    """At every node of a walk of extends and splits, the block search equals the
    per-column search, and each child holds exactly its rows of the parent's columns."""
    params = LearnParams(strategy=strategy)
    db, node = _root(source, params)
    used: frozenset = frozenset()
    assert single_best(best_split(node, params)) == per_column_best_split(node)
    for step in data.draw(st.lists(st.sampled_from(["extend", "best", "split"]), max_size=6), label="steps"):
        if step == "extend":
            node = extend_ldt(db, node, params, used) or node
        else:
            if step == "best":
                test = best_split(node, params)[0][0]
            else:
                test = node.columns and _random_test(data.draw(st.sampled_from(node.columns), label="column"), data)
            if not test:
                continue
            try:
                children = two_children(node, test)
            except InvalidSplitError:
                continue
            ids = np.concatenate([child.instance_ids for child in children])
            assert sorted(ids.tolist()) == node.instance_ids.tolist()
            for child in children:
                mask = np.isin(node.instance_ids, child.instance_ids)
                assert child.labels.tolist() == node.labels[mask].tolist()
                assert len(child.columns) == len(node.columns)
                for got, parent in zip(child.columns, node.columns):
                    assert (got.descriptor, got.kind, got.dictionary) == (parent.descriptor, parent.kind, parent.dictionary)
                    assert got.values.dtype == parent.values.dtype
                    assert got.values.tobytes() == parent.values[mask].tobytes()
                    assert got.defined.tobytes() == parent.defined[mask].tobytes()
            node = data.draw(st.sampled_from(children), label="side")
            used |= {test.descriptor.path}
        assert single_best(best_split(node, params)) == per_column_best_split(node)


def test_splitting_segments_together_equals_splitting_each_alone(school_db, school_catalog):
    """Children come in segment order, pass side first; a segment without a test is left out."""
    ldt = build_root_ldt(school_db, RESTRICTED)
    no_courses = SplitTest(
        descriptor=FeatureDescriptor(path=initial_paths(school_catalog)[0], attribute=None, agg=Agg.IS_EMPTY),
        kind="boolean_true",
    )
    table = partition_ldt(ldt, [np.array([0, 2]), np.array([1]), np.array([1, 3])])
    children = partition_ldt(table, split_rows(table, [no_courses, None, no_courses]))
    assert children.n_segments == 4 and children.frontier is ldt.frontier
    alone = [child for s in (0, 2) for child in two_children(table.segment(s), no_courses)]
    for s, child in enumerate(alone):
        got = children.segment(s)
        assert got.instance_ids.tolist() == child.instance_ids.tolist()
        assert [c.values.tobytes() for c in got.columns] == [c.values.tobytes() for c in child.columns]
    assert [children.segment(s).instance_ids.tolist() for s in range(4)] == [[2], [0], [3], [1]]
