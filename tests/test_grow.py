"""The whole lazy learner against the whole-learner oracle."""

import math

from hypothesis import assume, example, given, settings, strategies as st

from conftest import school_doc, school_rows
from oracles import naive_grow_tree, random_micro_db

from reltree.params import RESTRICTED, UNRESTRICTED, LearnParams
from reltree.schema import catalog_from_dict
from reltree.storage import DataError, build_database
from reltree.tree import grow_tree, serialize_model


def _source(source):
    if source == "school":
        return school_doc(), school_rows()
    if isinstance(source, tuple):
        return random_micro_db(source[1], chain=True)
    return random_micro_db(source)


# Chain databases hold two chains of tables from T0, so a second extension
# on a branch can choose among frontier paths by the tests of the node's
# ancestors.  In the first example the restricted and unrestricted
# models differ; in the others the paths an ancestor's test used, and a
# grandparent's among them, decide which paths extend.
@settings(max_examples=120, deadline=None)
@given(
    source=st.one_of(st.just("school"), st.integers(0, 100_000), st.tuples(st.just("chain"), st.integers(0, 100_000))),
    strategy=st.sampled_from([RESTRICTED, UNRESTRICTED]),
    max_depth=st.sampled_from([math.inf, 1, 2, 3]),
    min_inst=st.sampled_from([1, 2, 3]),
    min_ig=st.sampled_from([0.001, 0.1, 0.3, 0.6]),
)
@example(source=("chain", 163), strategy=RESTRICTED, max_depth=math.inf, min_inst=1, min_ig=0.2)
@example(source=("chain", 163), strategy=RESTRICTED, max_depth=math.inf, min_inst=1, min_ig=0.001)
@example(source=("chain", 565), strategy=RESTRICTED, max_depth=math.inf, min_inst=1, min_ig=0.3)
@example(source=("chain", 619), strategy=RESTRICTED, max_depth=math.inf, min_inst=3, min_ig=0.1)
def test_grow_tree_equals_the_whole_learner_oracle(source, strategy, max_depth, min_inst, min_ig):
    """Tests, routes, extensions and stopping rules compose into exactly the oracle's model."""
    doc, tables = _source(source)
    db = build_database(catalog_from_dict(doc), tables)
    params = LearnParams(min_ig=min_ig, min_inst=min_inst, max_depth=max_depth, strategy=strategy)
    try:
        model = grow_tree(db, params)
    except DataError:  # no labeled instance
        assume(False)
    assert serialize_model(model) == naive_grow_tree(doc, tables, params)
