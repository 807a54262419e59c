"""Split search with information gain, level-by-level tree growth, prediction.

Candidate tests are binary: numeric thresholds at midpoints of consecutive
distinct defined values that are boundary points (see
:func:`_numeric_candidates`), one equality test per categorical value
present, and the true-test for boolean features.  Each candidate induces a
ternary pass/fail/undefined partition; the undefined rows are merged into
whichever side scores the higher gain (ties go to fail) and the node
remembers that routing so prediction can follow it.  Split search takes a
table whose rows are grouped into segments, one per node, and searches every
segment at once: it builds the candidates of all columns of one kind in all
segments from that kind's block of the LDT, as rows of class counts, with a
fixed number of numpy calls per kind (and one sort per segment of the
numeric block), leaving out the numeric thresholds inside runs of one class,
which cannot be a segment's best test; it then scores every row, with its
segment's size and entropy, under the fail routing with one entropy pass,
and under the pass routing only the rows that leave some instance undefined
(on the others both routings make the same two sides, so the same gain, and
the tie goes to fail), and picks each segment's first row of highest gain in
descriptor order.

Growth runs level by level, one batch at a time: every open node of one
depth that shares a column layout is one segment of one table, searched by
one call and split into the next level's table by one gather; the
children's sizes, entropies, open-or-leaf decisions and leaves are settled
for the whole batch in one numpy pass.  It follows the lazy scheme: try to
split on the columns at hand, and only when no test clears the gain
threshold extend the node's table with features from deeper join paths,
once, on its own, before giving up and making a leaf.  Each node gets the
test it would get grown depth first, so the order of growth does not change
the model.

Prediction is columnar too.  A request joins each path the tree reaches once
for all its ids and computes a tested feature, for all of them, the first
time rows reach a node that tests it.  Rows then go down the tree a node at
a time: each inner node splits the positions of the rows that reached it
with one numpy mask, made by :func:`.ldt.left_mask`, the test evaluation
that training's :func:`.ldt.split_rows` uses, so a row takes the same side
of a test in training and in prediction.  Single-row :func:`predict` routes
the whole target table once per (model, database) pair and keeps one
prediction per row.
"""

from __future__ import annotations

import json
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from .features import (
    AGG_NAMES,
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    Agg,
    FeatureColumn,
    FeatureDescriptor,
    feature_cells,
)
from .joinpath import JoinInstantiation, JoinPath, computed_once, join_hop, root_instantiation
from .ldt import (
    LocalDataTable,
    _check_ids,
    _is_integer_id,
    _not_integer,
    _outside,
    build_root_ldt,
    extend_ldt,
    left_mask,
    partition_ldt,
    split_rows,
    target_labels,
)
from .params import LearnParams, params_doc
from .schema import Hop, fingerprint, neighbors
from .storage import Database, KeyColumn, NumericColumn

MODEL_FORMAT = "reltree-model"
MODEL_VERSION = 2
# Version 1 documents also carried ``params.seed``, which the learner never read.
_READABLE_VERSIONS = (1, MODEL_VERSION)


class ModelFormatError(ValueError):
    """Unreadable or incompatible model document."""


class ModelMismatchError(ValueError):
    """Database schema does not match the model's fingerprint."""


def _row_entropies(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(size, entropy in bits) of each row of a float64 block of class counts.

    The learner's one entropy routine: nodes, candidate sides and
    :func:`entropy` all go through it, so equal counts get equal bits
    wherever they are scored.  The block is overwritten with each row's
    class shares.  An all-zero row divides by 1, so its shares are 0 and
    both results are 0.  Each row is computed on its own, so its result does
    not depend on the other rows.
    """
    sizes = counts.sum(axis=1)
    p = np.divide(counts, np.maximum(sizes, 1)[:, None], out=counts)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return sizes, -np.multiply(p, logs, out=logs).sum(axis=1)


def entropy(counts) -> float:
    """Shannon entropy in bits of a nonnegative count vector: its one row of :func:`_row_entropies`."""
    sizes, h = _row_entropies(np.array(counts, dtype=np.float64).reshape(1, -1))
    if sizes[0] <= 0:
        raise ValueError("entropy of an empty distribution")
    return float(h[0])


@dataclass(frozen=True)
class SplitTest:
    descriptor: FeatureDescriptor
    kind: str  # "numeric_le" | "categorical_eq" | "boolean_true"
    threshold: float | None = None
    value: str | None = None
    value_code: int | None = None
    undefined_route: str = "fail"  # "pass" | "fail"


def _gains(pass_counts, fail_counts, undef_counts, rows, undef_passes: bool, n, h_parent) -> np.ndarray:
    """Gain of the candidate rows ``rows`` with their undefined instances on the pass or the fail side.

    ``n`` and ``h_parent`` hold the size and entropy of the node of each of
    those rows.  Both sides go into one float64 block, and one entropy pass
    scores them; counts are integers, so the block holds them exactly.  A
    candidate with an empty side scores -inf.
    """
    sides = np.concatenate((pass_counts[rows], fail_counts[rows]), dtype=np.float64)
    m = len(sides) // 2
    undefined_side = sides[:m] if undef_passes else sides[m:]
    undefined_side += undef_counts[rows]
    sizes, h = _row_entropies(sides)
    weighted = sizes * h
    ig = h_parent - (weighted[:m] + weighted[m:]) / n
    ig[(sizes[:m] == 0) | (sizes[m:] == 0)] = -np.inf
    return ig


def _score_candidates(pass_counts, fail_counts, undef_counts, n, h_parent):
    """Gain of each candidate row under the better of the two undefined routings.

    Row ``i`` counts, per class, the defined instances that pass and fail
    candidate ``i`` and the instances it leaves undefined; ``n[i]`` and
    ``h_parent[i]`` are the size and entropy of its node.  Returns (ig,
    route_is_pass); candidates where neither routing yields two nonempty
    sides score -inf.  The fail routing is scored on every row, in one
    entropy pass.  The pass routing is scored, in a second pass, only on the
    rows with a nonzero undefined count: on any other row both routings make
    the same two sides, so the same gain, and a tie goes to fail, so
    skipping it there changes no gain and no route.  Entropy is computed row
    by row, so a row's gain does not depend on the other rows scored with it.
    """
    ig = _gains(pass_counts, fail_counts, undef_counts, slice(None), False, n, h_parent)
    route_is_pass = np.zeros(len(ig), dtype=bool)
    rows = np.flatnonzero(undef_counts.any(axis=1))
    if rows.size:
        ig_pass = _gains(pass_counts, fail_counts, undef_counts, rows, True, n[rows], h_parent[rows])
        better = ig_pass > ig[rows]  # ties routed to fail
        route_is_pass[rows] = better
        ig[rows[better]] = ig_pass[better]
    return ig, route_is_pass


def _on_boundaries(labels, at, first, last, undefined) -> np.ndarray:
    """Which numeric thresholds can be a segment's best: a mask over ``at``.

    ``labels`` are the sorted labels of the numeric block, flat.  Threshold
    ``i`` lies between flat positions ``at[i]`` and ``at[i] + 1`` (ascending
    in ``i``), inside the defined cells ``first[i]`` to ``last[i]`` of its
    block row in its segment; ``undefined[i]`` says whether that segment has
    undefined cells in the row.  A threshold is dropped when its lower and
    upper value blocks together hold one class, except where that run of
    one class is all the row's defined cells in the segment, or reaches the
    lowest or highest of them while the segment has undefined cells.
    """
    changes = np.zeros(len(labels), dtype=np.intp)  # changes[p]: label changes between positions below p
    np.cumsum(labels[1:] != labels[:-1], out=changes[1:])
    lo = np.maximum(np.concatenate(([0], at[:-1] + 1)), first)  # the lower value block's first cell
    hi = np.minimum(np.append(at[1:], last[-1]), last)  # the upper value block's last cell
    c_lo, c_hi, c_first, c_last = changes[np.stack((lo, hi, first, last))]
    return (c_lo != c_hi) | (c_first == c_last) | (undefined & ((c_first == c_hi) | (c_lo == c_last)))


def _numeric_candidates(values, defined, labels, bounds, segment_ids, n_classes):
    """Candidate rows of every column of the numeric block in every segment, or None.

    Returns (slots, segments, pass_counts, fail_counts, thresholds): row
    ``i`` tests block row ``slots[i]`` at ``thresholds[i]`` in segment
    ``segments[i]``, ascending within a block row and segment.  One sort of
    each segment of the block puts the segment's defined cells of a row in
    ascending order and its undefined (NaN) cells last; a threshold sits
    wherever the next sorted value of the row's segment is larger, and its
    pass and fail counts are differences of the row's cumulative class
    counts at the segment's start, at the threshold and after the segment's
    last defined cell.

    Only boundary points are candidates (Fayyad and Irani, 1992): a
    threshold whose lower and upper value blocks together hold one class is
    dropped (:func:`_on_boundaries`), before thresholds and counts are
    built.  Moving a cut through a run of one class keeps the weighted
    entropy of the two sides, under either undefined routing, a concave
    function of the cut, strictly so unless both sides hold that class
    alone, so a threshold inside the run scores below one of the run's two
    ends and never wins.  Two kinds of run keep their thresholds, because an
    end of theirs is no threshold.  A run that is all the row's defined
    cells in the segment: without undefined cells the segment holds one
    class, every gain is 0, and the lowest threshold wins the tie.  A run
    that reaches the lowest or highest defined value of a segment with
    undefined cells in the row: its outer end sends every defined cell to
    one side, a real split that no threshold makes, so a threshold inside
    the run can be the best candidate.  Equal values may sort in any order,
    because counts are read only where the value changes and a run is
    tested over whole value blocks.
    """
    m, n = values.shape
    if n < 2:
        return None
    starts = bounds[:-1]
    order = np.empty((m, n), dtype=np.intp)  # one sort per segment costs less than one sort by (segment, value)
    for lo, hi in zip(starts.tolist(), bounds[1:].tolist()):
        order[:, lo:hi] = np.argsort(values[:, lo:hi], axis=1)
        order[:, lo:hi] += lo
    sorted_labels = labels[order]
    order += np.arange(0, m * n, n)[:, None]
    ordered = values.ravel()[order.ravel()]  # row s sorted, at s * n ... s * n + n - 1
    del order
    larger = ordered[:-1] < ordered[1:]
    ends = (np.arange(0, m * n, n)[:, None] + bounds[1:] - 1).ravel()
    larger[ends[:-1]] = False  # a segment's last cell against the next segment's (or row's) first
    at = np.flatnonzero(larger)  # flat position of the lower value of each threshold
    if at.size == 0:
        return None
    slots = at // n
    segments = segment_ids[at - slots * n]
    first = slots * n + starts[segments]  # flat position of the segment's first cell
    n_defined = np.add.reduceat(defined, starts, axis=1, dtype=np.int64)[slots, segments]
    keep = _on_boundaries(sorted_labels.ravel(), at, first, first + n_defined - 1,
                          n_defined < (bounds[1:] - starts)[segments])
    at, slots, segments, first, n_defined = at[keep], slots[keep], segments[keep], first[keep], n_defined[keep]
    if at.size == 0:
        return None
    lower, upper = ordered[at], ordered[at + 1]
    # A midpoint of two adjacent floats can round up onto the larger value,
    # one of huge values overflows to inf, and that of -inf and inf is NaN;
    # the lower value then keeps `v <= threshold` equivalent to the
    # positional split.
    with np.errstate(over="ignore", invalid="ignore"):
        thresholds = (lower + upper) / 2.0
    off = ~(thresholds < upper)
    thresholds[off] = lower[off]
    # Cumulative counts with a leading 0 per row: cells lo..hi-1 of a row count cum[hi] - cum[lo].
    first += slots  # the segment's first cell
    cut = at + slots + 1  # past the threshold's lower value
    last = first + n_defined  # past its defined cells
    pass_counts = np.empty((at.size, n_classes), dtype=np.int64)
    fail_counts = np.empty_like(pass_counts)
    cum = np.zeros((m, n + 1), dtype=np.int64)
    flat = cum.ravel()
    for k in range(n_classes):
        np.cumsum(sorted_labels == k, axis=1, out=cum[:, 1:])
        below = flat[cut]
        pass_counts[:, k] = below - flat[first]
        fail_counts[:, k] = flat[last] - below
    return slots, segments, pass_counts, fail_counts, thresholds


def _categorical_candidates(codes, defined, code_offsets, row_keys, n_segments, n_classes):
    """Candidate rows of every column of the categorical block in every segment, or None.

    Returns (slots, segments, pass_counts, fail_counts, codes): one
    equality test per value present in a segment, ascending by block row,
    then code, then segment.  One bincount over per-row offset codes and
    each row's (segment, class) bin counts every (row, value, segment,
    class); a row with an empty dictionary owns no bin and has no
    candidates.
    """
    n_bins = int(code_offsets[-1])
    starts = code_offsets[:-1]
    live = defined & (code_offsets[1:] > starts)[:, None]
    keys = (codes + starts[:, None]) * (n_segments * n_classes) + row_keys
    counts = np.bincount(keys[live], minlength=n_bins * n_segments * n_classes).reshape(-1, n_classes)
    cells = np.flatnonzero(counts.any(axis=1))  # bin * n_segments + segment
    if cells.size == 0:
        return None
    bins = cells // n_segments
    segments = cells - bins * n_segments
    slots = np.searchsorted(code_offsets, bins, side="right") - 1
    cum = np.zeros((n_bins + 1, n_segments, n_classes), dtype=np.int64)
    np.cumsum(counts.reshape(n_bins, n_segments, n_classes), axis=0, out=cum[1:])
    passed = counts[cells]
    fail_counts = cum[code_offsets[slots + 1], segments] - cum[starts[slots], segments] - passed
    return slots, segments, passed, fail_counts, bins - starts[slots]


def _boolean_candidates(values, defined, row_keys, n_segments, n_classes):
    """Candidate rows of the boolean block: one true-test per row and segment with a defined cell, or None.

    Returns (slots, segments, pass_counts, fail_counts, None), counted by one
    bincount over (row, value, segment, class).
    """
    m = len(values)
    keys = (values + np.arange(0, 2 * m, 2)[:, None]) * (n_segments * n_classes) + row_keys
    counts = np.bincount(keys[defined], minlength=m * 2 * n_segments * n_classes).reshape(m, 2, n_segments, n_classes)
    cells = np.flatnonzero(counts.any(axis=(1, 3)))  # row * n_segments + segment
    if cells.size == 0:
        return None
    slots = cells // n_segments
    segments = cells - slots * n_segments
    return slots, segments, counts[slots, 1, segments], counts[slots, 0, segments], None


def best_split(ldt: LocalDataTable, params: LearnParams) -> tuple[list[SplitTest | None], np.ndarray]:
    """Highest-gain valid test of each segment of the LDT: (tests, gains).

    ``tests[s]`` is segment ``s``'s test, or None when it has no valid test,
    and ``gains[s]`` its gain (float64, -inf where there is no test).  Each
    segment is searched as a node of its own; a table with one segment is a
    single node.  The size and entropy of every segment come from its class
    counts, in one :func:`_row_entropies` pass.

    Each kind's block yields the candidate rows of all its columns in all
    segments at once: numeric thresholds by ascending value, categorical
    value codes ascending, one true-test per boolean column.  All rows are
    scored together by one :func:`_score_candidates` call, each with its
    segment's size and entropy.  A row's gain does not depend on the rows
    scored with it, so each segment's winner is its first row of highest
    gain in descriptor order (each column's rank in the layout), then by
    lower threshold / value code: gain ties between tests break by
    descriptor order.
    """
    layout, bounds = ldt.layout, ldt.bounds
    n_segments, n_classes = ldt.n_segments, ldt.n_classes
    tests: list[SplitTest | None] = [None] * n_segments
    best = np.full(n_segments, -np.inf)  # each segment's highest gain
    found = []
    for kind, (values, defined) in ldt.blocks.items():
        if kind == NUMERIC:
            rows = _numeric_candidates(values, defined, ldt.labels, bounds, ldt.segment_ids, n_classes)
        elif kind == CATEGORICAL:
            rows = _categorical_candidates(values, defined, layout.code_offsets, ldt.row_keys, n_segments, n_classes)
        else:
            rows = _boolean_candidates(values, defined, ldt.row_keys, n_segments, n_classes)
        if rows is not None:
            found.append((kind, *rows))
    if not found:
        return tests, best
    segments = np.concatenate([f[2] for f in found])
    pass_counts = np.concatenate([f[3] for f in found])
    fail_counts = np.concatenate([f[4] for f in found])
    # np.take gathers rows about ten times faster than the fancy index class_counts[segments] (numpy 2.4).
    undef_counts = np.take(ldt.class_counts, segments, axis=0) - pass_counts - fail_counts
    sizes, h = _row_entropies(ldt.class_counts.astype(np.float64))  # float64 sizes: the gains divide by them
    ig, route_pass = _score_candidates(pass_counts, fail_counts, undef_counts, sizes[segments], h[segments])
    np.maximum.at(best, segments, ig)
    top = best[segments]
    ties = np.flatnonzero((ig == top) & (top > -np.inf))
    ranks = np.concatenate([layout.ranks[kind][slots] for kind, slots, *_ in found])[ties]
    ties = ties[np.lexsort((ties, ranks, segments[ties]))]
    ends = list(accumulate(len(f[1]) for f in found))  # of each kind's candidate rows
    for row, s in zip(ties.tolist(), segments[ties].tolist()):
        if tests[s] is not None:  # not the segment's first tie
            continue
        k = bisect_right(ends, row)
        kind, slots, _, _, _, keys = found[k]
        i = row - (ends[k - 1] if k else 0)
        route = "pass" if route_pass[row] else "fail"
        column = int(layout.members[kind][slots[i]])
        descriptor = layout.descriptors[column]
        if kind == BOOLEAN:
            test = SplitTest(descriptor, "boolean_true", undefined_route=route)
        elif kind == NUMERIC:
            test = SplitTest(descriptor, "numeric_le", threshold=float(keys[i]), undefined_route=route)
        else:
            code = int(keys[i])
            test = SplitTest(descriptor, "categorical_eq", value=layout.dictionaries[column][code], value_code=code,
                             undefined_route=route)
        tests[s] = test
    return tests, best


@dataclass(frozen=True)
class LeafNode:
    counts: tuple[int, ...]
    prediction: int


@dataclass(frozen=True)
class InnerNode:
    test: SplitTest
    ig: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = LeafNode | InnerNode


def _preorder(root: TreeNode):
    """Every node under ``root``, itself first, then its left subtree before its right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, InnerNode):
            stack.append(node.right)
            stack.append(node.left)


@dataclass(eq=False)
class TreeModel:
    root: TreeNode
    params: LearnParams
    mode: str
    class_labels: tuple[str, ...]
    schema_fingerprint: str
    descriptors: tuple[FeatureDescriptor, ...]
    # Every database ``check_compatible`` found the model to fit.
    _fits: weakref.WeakSet = field(default_factory=weakref.WeakSet, init=False, repr=False)
    # ``predict``'s list of one prediction per target-table row of each database it predicted on.
    _requests: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def iter_nodes(self):
        return _preorder(self.root)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @computed_once
    def _leaves(self) -> tuple[dict[int, int], np.ndarray]:
        """Each leaf's position in preorder, keyed by ``id``; an object array of their predictions there."""
        leaves = [node for node in self.iter_nodes() if isinstance(node, LeafNode)]
        predictions = np.empty(len(leaves), dtype=object)
        predictions[:] = [_leaf_prediction(self, leaf) for leaf in leaves]
        return {id(leaf): k for k, leaf in enumerate(leaves)}, predictions


def _grow(db: Database, ldt: LocalDataTable, params: LearnParams) -> TreeNode:
    """The tree grown from a one-segment root table, level by level.

    Each level is a list of batches: one table of every open node of that
    depth that shares a layout, one segment per node, with a ``(node, used)``
    member per segment: the node's id and the paths of its ancestors' tests.
    A batch is searched by one :func:`best_split` call.  Its nodes whose
    best test clears ``min_ig`` are split together: their children that stop
    by depth, size or entropy become leaves, and the rest are gathered by one
    :func:`partition_ldt` call into a batch of the next level.  A node whose
    best gain does not clear ``min_ig`` extends on its own (the joins are
    per node), is searched again, and on success its children form a batch
    of their own under the extended layout.  Each node is grown exactly as
    it would be depth first, so the order of growth does not change the
    model.
    """
    # Per node id: its LeafNode, until a split replaces it by (test, gain,
    # left id, right id).  Children are numbered after their parent.
    built: list = []

    def settle(counts: np.ndarray, depth: int) -> list[int]:
        """Number a node per row of class counts, as a leaf; the ids of those that stay open.

        A node stays open unless it stops by depth, size or entropy.  A
        split's gain never exceeds the node entropy, so when that bound
        already fails the threshold no extension can help.
        """
        first = len(built)
        for row, prediction in zip(counts.tolist(), counts.argmax(axis=1).tolist()):  # the first class of most rows
            built.append(LeafNode(counts=tuple(row), prediction=prediction))
        if depth >= params.max_depth:
            return []
        sizes, h = _row_entropies(counts.astype(np.float64))
        return (first + np.flatnonzero((sizes >= params.min_inst) & (h > params.min_ig))).tolist()

    def split(table: LocalDataTable, members: list, tests: list, igs: np.ndarray, depth: int):
        """Record the inner nodes ``tests`` make of ``members``; the batch of their open children, or None."""
        parts = split_rows(table, tests)
        if not parts:
            return None
        child = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        counts = np.bincount(child * table.n_classes + table.labels[np.concatenate(parts)],
                             minlength=len(parts) * table.n_classes).reshape(len(parts), table.n_classes)
        first = len(built)  # the id of the first child
        used = []  # of each split node's children
        for (node, used_above), test, ig in zip(members, tests, igs):
            if test is not None:
                built[node] = (test, float(ig), first + 2 * len(used), first + 2 * len(used) + 1)
                used.append(used_above | {test.descriptor.path})
        kids = [(i, used[(i - first) // 2]) for i in settle(counts, depth + 1)]
        return (partition_ldt(table, [parts[i - first] for i, _ in kids]), kids) if kids else None

    level = [(ldt, [(0, frozenset())])] if settle(ldt.class_counts, 0) else []
    depth = 0
    while level:
        following = []
        for table, members in level:
            tests, igs = best_split(table, params)
            chosen: list[SplitTest | None] = [None] * len(members)
            for s, (node, used) in enumerate(members):
                if igs[s] > params.min_ig:
                    chosen[s] = tests[s]
                    continue
                extended = extend_ldt(db, table.segment(s), params, used)
                if extended is not None:
                    ext_tests, ext_igs = best_split(extended, params)
                    if ext_igs[0] > params.min_ig:
                        following.append(split(extended, [members[s]], ext_tests, ext_igs, depth))
            following.append(split(table, members, chosen, igs, depth))
        level = [batch for batch in following if batch is not None]
        depth += 1

    nodes: list[TreeNode | None] = [None] * len(built)
    for i in range(len(built) - 1, -1, -1):
        b = built[i]
        nodes[i] = b if isinstance(b, LeafNode) else InnerNode(test=b[0], ig=b[1], left=nodes[b[2]], right=nodes[b[3]])
    return nodes[0]


def _collect_descriptors(root: TreeNode) -> tuple[FeatureDescriptor, ...]:
    seen = {node.test.descriptor for node in _preorder(root) if isinstance(node, InnerNode)}
    return tuple(sorted(seen, key=lambda d: d.sort_key()))


def model_from_root(db: Database, root: TreeNode, params: LearnParams, mode: str) -> TreeModel:
    _, _, classes = target_labels(db)
    return TreeModel(
        root=root,
        params=params,
        mode=mode,
        class_labels=classes,
        schema_fingerprint=fingerprint(db.catalog),
        descriptors=_collect_descriptors(root),
    )


def grow_tree(db: Database, params: LearnParams, instance_ids=None) -> TreeModel:
    """Learn a tree lazily over the database.

    It trains on the rows :func:`.ldt.training_rows` gives: the labeled target
    rows among ``instance_ids`` (every labeled row when None), each once.
    Raises ``ValueError`` naming an id that is not an integer row of the target table.
    """
    ldt = build_root_ldt(db, params, instance_ids)
    root = _grow(db, ldt, params)
    return model_from_root(db, root, params, mode=f"lazy-{params.strategy}")


# ---------------------------------------------------------------------------
# Prediction


@dataclass(frozen=True)
class Prediction:
    label: str
    index: int
    probabilities: tuple[float, ...]

    @property
    def confidence(self) -> float:
        return self.probabilities[self.index]


def _leaf_prediction(model: TreeModel, leaf: LeafNode) -> Prediction:
    total = sum(leaf.counts)
    probs = tuple(c / total for c in leaf.counts)
    return Prediction(label=model.class_labels[leaf.prediction], index=leaf.prediction, probabilities=probs)


class _Request(dict):
    """One prediction call's columns, by descriptor: each computed on its first lookup, for every row.

    A missing column's path is joined first.  Joins are kept by path,
    starting from the target table's own, the request's
    :func:`.joinpath.root_instantiation`; a path not joined yet is its
    prefix one hop shorter, found the same way, extended by
    :func:`.joinpath.join_hop`, which adds nothing to ``db.stats``.  Each
    join keeps the attribute aggregates the descriptors of its path share.  A dict, so that a node finds a column computed
    already by plain subscription; it holds no reference cycle, so a
    finished request is freed at once, not by the cyclic collector.  No
    request outlives the call that made it.
    """

    def __init__(self, db: Database, ids: np.ndarray) -> None:
        super().__init__()
        self.db = db
        start = root_instantiation(db, ids)
        self.joins = {start.path: (start, {})}

    def join(self, path: JoinPath) -> tuple[JoinInstantiation, dict]:
        found = self.joins.get(path)
        if found is None:
            inst = join_hop(self.db, self.join(path.prefix(len(path) - 1))[0], path)
            found = self.joins[path] = (inst, {})
        return found

    def __missing__(self, d: FeatureDescriptor) -> FeatureColumn:
        inst, aggregates = self.join(d.path)
        col = self[d] = feature_cells(self.db, inst, d, aggregates)
        return col


def _predictions(model: TreeModel, db: Database, ids: np.ndarray) -> list[Prediction]:
    """The prediction of each target-table row id of ``ids``, in order; the ids are already checked.

    Rows go down ``model.root`` a node at a time: each inner node takes the
    positions of the rows that reached it, reads the tested column's cells
    there, and splits them by :func:`.ldt.left_mask`, the test evaluation
    training's partition uses; each leaf writes its position among the
    model's leaves for its rows, and one gather turns those into
    predictions.  A tested column is computed, for every row of the request,
    the first time some rows reach a node that tests it.  Routing is
    positional: row ``r`` reads cell ``r`` of each column, so the ids need
    not be ascending or distinct.  Of the join code only
    :meth:`JoinInstantiation.restrict` needs ascending ids, and prediction
    never restricts.
    """
    columns = _Request(db, ids)
    positions, leaves = model._leaves
    out = np.empty(len(ids), dtype=np.intp)
    stack = [(model.root, np.arange(len(ids)))]
    while stack:
        node, rows = stack.pop()
        if type(node) is LeafNode:  # not isinstance, which costs more on every node a request reaches
            out[rows] = positions[id(node)]
            continue
        test = node.test
        col = columns[test.descriptor]
        go_left = left_mask(test, col.values[rows], col.defined[rows], col.dictionary)
        # count_nonzero, not ndarray.any: on a node's few rows any() costs several times as much.
        n_left = np.count_nonzero(go_left)
        if n_left == len(rows):
            stack.append((node.left, rows))
        elif n_left == 0:
            stack.append((node.right, rows))
        else:
            stack.append((node.right, rows[~go_left]))
            stack.append((node.left, rows[go_left]))
    return leaves[out].tolist()


def _misfit(where: str, problem: str) -> ModelMismatchError:
    return ModelMismatchError(f"model does not fit the database: {where}: {problem}")


def _descriptor_kind(db: Database, d: FeatureDescriptor, where: str) -> str:
    """The kind of the cells ``d`` has on ``db``, or a ModelMismatchError naming ``where``.

    Every hop of the path must follow a foreign key of the schema from the
    table the path has reached, and every feature but is-empty must read an
    attribute (a column that is not a key) of the path's terminal table;
    an identity feature also needs a path of many-to-one hops.
    """
    table = db.catalog.target_table
    if d.path.start != table:
        raise _misfit(f"{where}.path.start", f"the target table is {table!r}, not {d.path.start!r}")
    for j, hop in enumerate(d.path.hops):
        if hop not in neighbors(db.catalog, table):
            raise _misfit(f"{where}.path.hops[{j}]", f"no foreign key of the schema joins {table} to {hop.to_table}"
                          f" on {hop.from_column} = {hop.to_column}")
        table = hop.to_table
    if d.agg is Agg.IS_EMPTY:
        return BOOLEAN
    col = db.tables[table].columns.get(d.attribute)
    if col is None or isinstance(col, KeyColumn):
        raise _misfit(f"{where}.attribute", f"table {table} has no attribute {d.attribute!r}")
    if d.agg is Agg.IDENTITY:
        if not d.path.determinate:
            raise _misfit(f"{where}.agg", "an identity feature needs a path of many-to-one hops")
        return NUMERIC if isinstance(col, NumericColumn) else CATEGORICAL
    return BOOLEAN if d.agg is Agg.CONTAINS else NUMERIC


# A test kind -> the kind of cells it compares.
_TEST_CELLS = {"numeric_le": NUMERIC, "boolean_true": BOOLEAN, "categorical_eq": CATEGORICAL}


def _check_fits(model: TreeModel, db: Database) -> None:
    """ModelMismatchError naming the first descriptor or test that ``db`` cannot compute or compare.

    The descriptors are checked in order, then the tests in preorder, left
    child first, each named by its node's field path: a numeric_le test
    needs numeric cells, boolean_true boolean ones and categorical_eq
    categorical ones.
    """
    slots = {d: slot for slot, d in enumerate(model.descriptors)}
    kinds = [_descriptor_kind(db, d, f"descriptors[{slot}]") for slot, d in enumerate(model.descriptors)]
    stack = [(model.root, "root")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, InnerNode):
            test, slot = node.test, slots[node.test.descriptor]
            if kinds[slot] != _TEST_CELLS.get(test.kind):
                raise _misfit(f"{where}.test.kind",
                              f"a {test.kind} test on the {kinds[slot]} feature descriptors[{slot}]")
            stack += [(node.right, f"{where}.right"), (node.left, f"{where}.left")]


def check_compatible(model: TreeModel, db: Database) -> None:
    """Raise ModelMismatchError unless ``db`` can compute every feature the model tests, as its tests read them.

    The schema fingerprint is compared on every call; the descriptors and
    tests are checked once per database, which the model then remembers
    for as long as both live.
    """
    if fingerprint(db.catalog) != model.schema_fingerprint:
        raise ModelMismatchError("database schema does not match the model's schema fingerprint")
    if db not in model._fits:
        _check_fits(model, db)
        model._fits.add(db)


def predict(model: TreeModel, db: Database, instance: int) -> Prediction:
    """Route one target-table row through the tree; equals ``predict_many(model, db, [instance])[0]``.

    The first call on a (model, database) pair routes every target-table
    row of that database at once, as :func:`predict_many` would, and the
    model keeps the resulting list of one prediction per row; that call,
    and later ones, check their id and index the list.  This pays off only
    for many calls on one pair: the first costs one :func:`predict_many`
    over the whole table.  The list holds no join, cell or reference to the
    database, and goes when the model or the database is freed.  Raises
    ``ValueError`` when the id is not an ``int`` or ``np.integer`` (a bool
    is refused) or is not a row of the target table.
    """
    check_compatible(model, db)
    if not _is_integer_id(instance):
        raise _not_integer(instance)
    i = int(instance)
    n_rows = db.tables[db.catalog.target_table].n_rows
    if not 0 <= i < n_rows:
        raise _outside(i, n_rows)
    kept = model._requests.get(db)
    if kept is None:
        kept = model._requests[db] = _predictions(model, db, np.arange(n_rows, dtype=np.int64))
    return kept[i]


def predict_many(model: TreeModel, db: Database, instances) -> list[Prediction]:
    """Predictions for target-table row ids, in request order (duplicates kept).

    The request is columnar: the ids, as given, are joined along each path
    the tree reaches once, and each tested feature is computed once, for all
    of them, when rows first reach a node that tests it, by the same code
    that built the training columns.  The rows then go down the model's
    tree a node at a time, each node splitting the positions that reached
    it with one numpy mask (:func:`_predictions`).  Each call makes its own
    request and frees it on return.  Raises ``ValueError`` naming an id
    that is not an integer row of the target table.  Prediction adds
    nothing to ``db.stats``.
    """
    check_compatible(model, db)
    ids = _check_ids(instances, db.tables[db.catalog.target_table].n_rows)
    return _predictions(model, db, ids) if ids.size else []


# ---------------------------------------------------------------------------
# Serialization


_AGG_BY_NAME = {name: agg for agg, name in AGG_NAMES.items()}


_HOP_FIELDS = ("from_table", "from_column", "to_table", "to_column", "label", "many_to_one")
_TEST_FIELDS = ("kind", "threshold", "value", "value_code", "undefined_route")


def _path_doc(path: JoinPath) -> dict:
    return {"start": path.start, "hops": [{k: getattr(h, k) for k in _HOP_FIELDS} for h in path.hops]}


def _invalid(where: str, problem: str) -> ModelFormatError:
    return ModelFormatError(f"invalid model document: {where}: {problem}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _get(obj, key: str, where: str):
    """``obj[key]`` of the model document's object at field path ``where`` ("" for the top level)."""
    at = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"invalid model document: {at}expected an object, not {type(obj).__name__}")
    if key not in obj:
        raise ModelFormatError(f"invalid model document: {at}missing {key!r}")
    return obj[key]


def _text(obj, key: str, where: str, optional: bool = False):
    """The string ``obj[key]`` (or None, when ``optional``) of the object at field path ``where``."""
    value = _get(obj, key, where)
    if not isinstance(value, str) and not (optional and value is None):
        raise _invalid(f"{where}.{key}", f"expected a string{' or null' if optional else ''}, not {value!r}")
    return value


def _path_from_doc(doc: dict, where: str) -> JoinPath:
    hops = []
    for i, h in enumerate(_get(doc, "hops", where)):
        at = f"{where}.hops[{i}]"
        hop = {k: _text(h, k, at) for k in _HOP_FIELDS if k != "many_to_one"}
        hops.append(Hop(**hop, many_to_one=bool(_get(h, "many_to_one", at))))
    return JoinPath(start=_text(doc, "start", where), hops=tuple(hops))


def _descriptor_from_doc(doc: dict, where: str, paths: dict[JoinPath, JoinPath]) -> FeatureDescriptor:
    """The descriptor of ``doc``; equal paths share the object ``paths`` keeps, so prediction finds joins by identity."""
    agg = _get(doc, "agg", where)
    if agg not in _AGG_BY_NAME:
        raise _invalid(f"{where}.agg", f"unknown aggregator {agg!r}")
    path = _path_from_doc(_get(doc, "path", where), f"{where}.path")
    path = paths.setdefault(path, path)
    return FeatureDescriptor(path=path, attribute=_text(doc, "attribute", where, optional=True),
                             agg=_AGG_BY_NAME[agg], value=_text(doc, "value", where, optional=True))


def _node_doc(node: TreeNode, desc_index: dict[FeatureDescriptor, int]) -> dict:
    if isinstance(node, LeafNode):
        return {"type": "leaf", "counts": list(node.counts), "prediction": node.prediction}
    t = node.test
    return {
        "type": "inner",
        "ig": node.ig,
        "test": {"descriptor": desc_index[t.descriptor], **{k: getattr(t, k) for k in _TEST_FIELDS}},
        "left": _node_doc(node.left, desc_index),
        "right": _node_doc(node.right, desc_index),
    }


_ROUTES = ("pass", "fail")


def _tree_from_doc(doc: dict, descriptors: tuple[FeatureDescriptor, ...], n_classes: int) -> TreeNode:
    """The tree of the document's ``root``, every field a node reads checked and named by its path."""

    def leaf(doc: dict, where: str) -> LeafNode:
        counts = _get(doc, "counts", where)
        if (
            not isinstance(counts, list)
            or len(counts) != n_classes
            or not all(_is_int(c) and c >= 0 for c in counts)
            or sum(counts) <= 0
        ):
            raise _invalid(f"{where}.counts", f"expected {n_classes} non-negative integers with a positive sum")
        prediction = _get(doc, "prediction", where)
        if not _is_int(prediction) or not 0 <= prediction < n_classes:
            raise _invalid(f"{where}.prediction", f"no class {prediction!r}")
        return LeafNode(counts=tuple(counts), prediction=prediction)

    def test(t: dict, at: str) -> SplitTest:
        index = _get(t, "descriptor", at)
        if not _is_int(index) or not 0 <= index < len(descriptors):
            raise _invalid(f"{at}.descriptor", f"no descriptor {index!r}")
        got = {k: _get(t, k, at) for k in _TEST_FIELDS}
        kind, threshold, value, route = got["kind"], got["threshold"], got["value"], got["undefined_route"]
        if kind not in _TEST_CELLS:
            raise _invalid(f"{at}.kind", f"unknown test kind {kind!r}")
        if kind == "numeric_le" and (type(threshold) not in (int, float) or math.isnan(threshold)):
            raise _invalid(f"{at}.threshold", f"expected a number, not {threshold!r}")
        if kind == "categorical_eq" and not isinstance(value, str):
            raise _invalid(f"{at}.value", f"expected a string, not {value!r}")
        if route not in _ROUTES:
            raise _invalid(f"{at}.undefined_route", f"expected 'pass' or 'fail', not {route!r}")
        return SplitTest(descriptor=descriptors[index], **got)

    def node(doc: dict, where: str) -> TreeNode:
        kind = _get(doc, "type", where)
        if kind == "leaf":
            return leaf(doc, where)
        if kind != "inner":
            raise _invalid(f"{where}.type", f"unknown node type {kind!r}")
        return InnerNode(
            test=test(_get(doc, "test", where), f"{where}.test"),
            ig=float(_get(doc, "ig", where)),
            left=node(_get(doc, "left", where), f"{where}.left"),
            right=node(_get(doc, "right", where), f"{where}.right"),
        )

    return node(doc, "root")


def serialize_model(model: TreeModel) -> str:
    """Stable JSON rendering: equal models serialize byte-identically."""
    desc_index = {d: i for i, d in enumerate(model.descriptors)}
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mode": model.mode,
        "schema_fingerprint": model.schema_fingerprint,
        "class_labels": list(model.class_labels),
        "params": params_doc(model.params),
        "descriptors": [
            {
                "name": d.name,
                "path": _path_doc(d.path),
                "attribute": d.attribute,
                "agg": AGG_NAMES[d.agg],
                "value": d.value,
            }
            for d in model.descriptors
        ],
        "root": _node_doc(model.root, desc_index),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def deserialize_model(document: str) -> TreeModel:
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a model document")
    if doc.get("version") not in _READABLE_VERSIONS:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        pd = {f.name: _get(_get(doc, "params", ""), f.name, "params") for f in fields(LearnParams)}
        pd["max_depth"] = math.inf if pd["max_depth"] is None else float(pd["max_depth"])
        params = LearnParams(**pd)
        class_labels = _get(doc, "class_labels", "")
        if not isinstance(class_labels, list) or not all(isinstance(c, str) for c in class_labels):
            raise _invalid("class_labels", "expected a list of strings")
        paths: dict[JoinPath, JoinPath] = {}
        descriptors = tuple(
            _descriptor_from_doc(d, f"descriptors[{i}]", paths) for i, d in enumerate(_get(doc, "descriptors", ""))
        )
        first: dict[FeatureDescriptor, int] = {}
        for j, d in enumerate(descriptors):
            i = first.setdefault(d, j)
            if i != j:
                raise _invalid(f"descriptors[{j}]", f"repeats descriptors[{i}]")
        return TreeModel(
            root=_tree_from_doc(_get(doc, "root", ""), descriptors, len(class_labels)),
            params=params,
            mode=_get(doc, "mode", ""),
            class_labels=tuple(class_labels),
            schema_fingerprint=_get(doc, "schema_fingerprint", ""),
            descriptors=descriptors,
        )
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"invalid model document: {exc}") from exc
