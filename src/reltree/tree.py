"""Split search with information gain, recursive tree growth, prediction.

Candidate tests are binary: numeric thresholds at midpoints of consecutive
distinct defined values, one equality test per categorical value present, and
the true-test for boolean features.  Each candidate induces a ternary
pass/fail/undefined partition; the undefined rows are merged into whichever
side scores the higher gain (ties go to fail) and the node remembers that
routing so prediction can follow it.  A node's split search builds the
candidates of all columns of one kind from that kind's block of the LDT at
once, as rows of class counts, with a fixed number of numpy calls per kind;
it then scores every row with one vectorized pass and picks the first row of
highest gain in descriptor order.

Growth follows the lazy scheme: try to split on the columns at hand, and only
when no test clears the gain threshold extend the node's table with features
from deeper join paths, once, before giving up and making a leaf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .features import (
    AGG_NAMES,
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    FeatureColumn,
    FeatureDescriptor,
    feature_cells,
)
from .joinpath import Hop, JoinInstantiation, JoinPath, join_hop
from .ldt import LocalDataTable, build_root_ldt, extend_ldt, partition_ldt
from .params import LearnParams, params_doc
from .schema import fingerprint
from .storage import Database

MODEL_FORMAT = "reltree-model"
MODEL_VERSION = 2
# Version 1 documents also carried ``params.seed``, which the learner never read.
_READABLE_VERSIONS = (1, MODEL_VERSION)


class ModelFormatError(ValueError):
    """Unreadable or incompatible model document."""


class ModelMismatchError(ValueError):
    """Database schema does not match the model's fingerprint."""


def entropy(counts) -> float:
    """Shannon entropy in bits of a nonnegative count vector."""
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise ValueError("entropy of an empty distribution")
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    # An all-zero row divides by 1, so its p is 0 and its entropy 0.
    p = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -np.multiply(p, logs, out=logs).sum(axis=1)


@dataclass(frozen=True)
class SplitTest:
    descriptor: FeatureDescriptor
    kind: str  # "numeric_le" | "categorical_eq" | "boolean_true"
    threshold: float | None = None
    value: str | None = None
    value_code: int | None = None
    undefined_route: str = "fail"  # "pass" | "fail"


def _score_candidates(pass_counts, fail_counts, undef_counts, n, h_parent):
    """Gain of each candidate row under both undefined routings.

    Row ``i`` counts, per class, the defined instances that pass and fail
    candidate ``i`` and the instances it leaves undefined.  Returns (ig,
    route_is_pass); candidates where neither routing yields two nonempty
    sides score -inf.  Entropy is computed row by row, so a row's gain does
    not depend on the other rows scored with it.
    """

    def ig_of(left, right):
        nl = left.sum(axis=1)
        nr = right.sum(axis=1)
        h = h_parent - (nl * _entropy_rows(left) + nr * _entropy_rows(right)) / n
        return np.where((nl > 0) & (nr > 0), h, -np.inf)

    ig_fail = ig_of(pass_counts, fail_counts + undef_counts)
    ig_pass = ig_of(pass_counts + undef_counts, fail_counts)
    route_is_pass = ig_pass > ig_fail  # ties routed to fail
    return np.where(route_is_pass, ig_pass, ig_fail), route_is_pass


def _numeric_candidates(values: np.ndarray, defined: np.ndarray, labels: np.ndarray, parent: np.ndarray):
    """Candidate rows of every column of the numeric block, or None.

    Returns (slots, pass_counts, undef_counts, thresholds): row ``i`` tests
    block row ``slots[i]`` at ``thresholds[i]``, ascending within a block row.
    One sort of the block puts each row's defined cells in ascending order
    and its undefined (NaN) cells last; a threshold sits wherever the next
    sorted value of the row is larger, and its pass counts are the
    cumulative class counts there.  Equal values may sort in any order,
    because counts are read only where the value changes.
    """
    m, n = values.shape
    if n < 2:
        return None
    order = np.argsort(values, axis=1)
    sorted_labels = labels[order]
    order += np.arange(0, m * n, n)[:, None]
    ordered = values.ravel()[order.ravel()]  # row s sorted, at s * n ... s * n + n - 1
    del order
    larger = ordered[:-1] < ordered[1:]
    larger[n - 1::n] = False  # a row's last cell against the next row's first
    at = np.flatnonzero(larger)  # flat position of the lower value of each threshold
    if at.size == 0:
        return None
    slots = at // n
    lower, upper = ordered[at], ordered[at + 1]
    # A midpoint of two adjacent floats can round up onto the larger value,
    # one of huge values overflows to inf, and that of -inf and inf is NaN;
    # the lower value then keeps `v <= threshold` equivalent to the
    # positional split.
    with np.errstate(over="ignore", invalid="ignore"):
        thresholds = (lower + upper) / 2.0
    off = ~(thresholds < upper)
    thresholds[off] = lower[off]
    last = slots * n + np.count_nonzero(defined, axis=1)[slots] - 1  # each row's last defined cell
    pass_counts = np.empty((at.size, len(parent)), dtype=np.int64)
    undef_counts = np.empty_like(pass_counts)
    for k in range(len(parent)):
        cum = np.cumsum(sorted_labels == k, axis=1).ravel()
        pass_counts[:, k] = cum[at]
        undef_counts[:, k] = parent[k] - cum[last]
    return slots, pass_counts, undef_counts, thresholds


def _categorical_candidates(codes, defined, labels, parent, code_offsets):
    """Candidate rows of every column of the categorical block, or None.

    Returns (slots, pass_counts, undef_counts, codes): one equality test per
    value present, ascending by code within a block row.  One bincount over
    per-row offset codes counts every (row, value, class); a row with an
    empty dictionary owns no bin and has no candidates.
    """
    n_classes = len(parent)
    n_bins = int(code_offsets[-1])
    starts = code_offsets[:-1]
    live = defined & (code_offsets[1:] > starts)[:, None]
    keys = (codes + starts[:, None]) * n_classes + labels
    counts = np.bincount(keys[live], minlength=n_bins * n_classes).reshape(n_bins, n_classes)
    bins = np.flatnonzero(counts.any(axis=1))
    if bins.size == 0:
        return None
    slots = np.searchsorted(code_offsets, bins, side="right") - 1
    cum = np.zeros((n_bins + 1, n_classes), dtype=np.int64)
    np.cumsum(counts, axis=0, out=cum[1:])
    undef_counts = parent - (cum[code_offsets[1:]] - cum[starts])
    return slots, counts[bins], undef_counts[slots], bins - starts[slots]


def _boolean_candidates(values, defined, labels, parent):
    """Candidate rows of the boolean block: one true-test per row with a defined cell, or None.

    Returns (slots, pass_counts, undef_counts, None), counted by one bincount
    over (row, value, class).
    """
    n_classes = len(parent)
    keys = (np.arange(len(values))[:, None] * 2 + values) * n_classes + labels
    counts = np.bincount(keys[defined], minlength=len(values) * 2 * n_classes).reshape(len(values), 2, n_classes)
    slots = np.flatnonzero(defined.any(axis=1))
    if slots.size == 0:
        return None
    return slots, counts[slots, 1], parent - counts[slots].sum(axis=1), None


def best_split(ldt: LocalDataTable, params: LearnParams) -> tuple[SplitTest, float] | None:
    """Highest-gain valid test over the LDT's columns, or None.

    Each kind's block yields the candidate rows of all its columns at once:
    numeric thresholds by ascending value, categorical value codes ascending,
    one true-test per boolean column.  All rows are scored in one pass.  A
    row's gain does not depend on the rows scored with it, so the winner is
    the first row of highest gain in descriptor order (each column's rank in
    the layout), then by lower threshold / value code: gain ties between
    tests break by descriptor order.
    """
    n = len(ldt)
    labels = ldt.labels
    parent = np.bincount(labels, minlength=ldt.n_classes)
    layout = ldt.layout
    found = []
    for kind, (values, defined) in ldt.blocks.items():
        if kind == NUMERIC:
            rows = _numeric_candidates(values, defined, labels, parent)
        elif kind == CATEGORICAL:
            rows = _categorical_candidates(values, defined, labels, parent, layout.code_offsets)
        else:
            rows = _boolean_candidates(values, defined, labels, parent)
        if rows is not None:
            found.append((kind, *rows))
    if not found:
        return None
    pass_counts = np.concatenate([f[2] for f in found])
    undef_counts = np.concatenate([f[3] for f in found])
    fail_counts = parent - undef_counts - pass_counts
    ig, route_pass = _score_candidates(pass_counts, fail_counts, undef_counts, n, entropy(parent))
    best = ig.max()
    if not np.isfinite(best):
        return None
    ties = np.flatnonzero(ig == best)
    ranks = np.concatenate([layout.ranks[kind][slots] for kind, slots, *_ in found])
    row = i = int(ties[np.argmin(ranks[ties])])
    route = "pass" if route_pass[row] else "fail"
    for kind, slots, _, _, keys in found:
        if i < len(slots):
            break
        i -= len(slots)
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
    return test, float(ig[row])


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


@dataclass(eq=False)
class TreeModel:
    root: TreeNode
    params: LearnParams
    mode: str
    class_labels: tuple[str, ...]
    schema_fingerprint: str
    descriptors: tuple[FeatureDescriptor, ...]

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, InnerNode):
                stack.append(node.right)
                stack.append(node.left)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @cached_property
    def _router(self) -> "_Router":
        return _compile(self)


def _leaf(ldt: LocalDataTable) -> LeafNode:
    counts = np.bincount(ldt.labels, minlength=ldt.n_classes)
    return LeafNode(counts=tuple(int(c) for c in counts), prediction=int(np.argmax(counts)))


def _clears(found: tuple[SplitTest, float] | None, params: LearnParams) -> bool:
    return found is not None and found[1] > params.min_ig


def _grow(db: Database, ldt: LocalDataTable, params: LearnParams, depth: int, used: frozenset) -> TreeNode:
    if depth >= params.max_depth or len(ldt) < params.min_inst:
        return _leaf(ldt)
    # A split's gain never exceeds the node entropy, so when that bound
    # already fails the threshold no extension can help: leaf immediately.
    if entropy(np.bincount(ldt.labels, minlength=ldt.n_classes)) <= params.min_ig:
        return _leaf(ldt)
    found = best_split(ldt, params)
    if not _clears(found, params):
        extended = extend_ldt(db, ldt, params, used)
        if extended is not None:
            ldt = extended
            found = best_split(ldt, params)
    if not _clears(found, params):
        return _leaf(ldt)
    test, ig = found
    left, right = partition_ldt(ldt, test)
    used2 = used | {test.descriptor.path}
    return InnerNode(
        test=test,
        ig=ig,
        left=_grow(db, left, params, depth + 1, used2),
        right=_grow(db, right, params, depth + 1, used2),
    )


def _collect_descriptors(root: TreeNode) -> tuple[FeatureDescriptor, ...]:
    seen: dict[FeatureDescriptor, None] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, InnerNode):
            seen.setdefault(node.test.descriptor)
            stack.append(node.right)
            stack.append(node.left)
    return tuple(sorted(seen, key=lambda d: d.sort_key()))


def model_from_root(db: Database, root: TreeNode, params: LearnParams, mode: str) -> TreeModel:
    from .ldt import target_labels

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
    """Learn a tree lazily over the database (optionally on an instance subset)."""
    ldt = build_root_ldt(db, params, instance_ids)
    root = _grow(db, ldt, params, depth=0, used=frozenset())
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


@dataclass(frozen=True)
class _Router:
    """A model flattened for routing.

    Inner node ``i`` is ``inner[i] = (slot, is_le, operand, undefined_left,
    left, right)``.  Its test reads the cells of ``descriptors[slot]`` and
    passes on ``cell <= operand`` (numeric) or ``cell == operand`` (boolean
    and categorical, whose operand is True or the tested value).  A child
    index ``~k`` (negative) is the leaf whose prediction is ``leaves[k]``.
    ``paths`` holds every tested path and its prefixes, each after its
    prefix: ``parents[p]`` is the index of path ``p`` minus its last hop
    (-1 for the target table itself), and ``slot_paths[slot]`` the index of
    the slot's path.
    """

    root: int
    inner: tuple[tuple, ...]
    leaves: tuple[Prediction, ...]
    descriptors: tuple[FeatureDescriptor, ...]
    slot_paths: tuple[int, ...]
    paths: tuple[JoinPath, ...]
    parents: tuple[int, ...]


def _compile(model: TreeModel) -> _Router:
    slots: dict[FeatureDescriptor, int] = {}
    path_index: dict[JoinPath, int] = {}
    parents: list[int] = []
    inner: list = []
    leaves: list[Prediction] = []

    def visit(node: TreeNode) -> int:
        if isinstance(node, LeafNode):
            leaves.append(_leaf_prediction(model, node))
            return ~(len(leaves) - 1)
        t = node.test
        if t.kind == "numeric_le":
            operand = t.threshold
        elif t.kind == "boolean_true":
            operand = True
        elif t.kind == "categorical_eq":
            operand = t.value
        else:
            raise ValueError(f"unknown test kind {t.kind!r}")
        i = len(inner)
        inner.append(None)
        left = visit(node.left)
        right = visit(node.right)
        slot = slots.setdefault(t.descriptor, len(slots))
        inner[i] = (slot, t.kind == "numeric_le", operand, t.undefined_route == "pass", left, right)
        return i

    root = visit(model.root)
    for d in slots:
        for k in range(len(d.path.hops) + 1):
            prefix = d.path.prefix(k)
            if prefix not in path_index:
                path_index[prefix] = len(parents)
                parents.append(path_index[d.path.prefix(k - 1)] if k else -1)
    return _Router(
        root=root,
        inner=tuple(inner),
        leaves=tuple(leaves),
        descriptors=tuple(slots),
        slot_paths=tuple(path_index[d.path] for d in slots),
        paths=tuple(path_index),
        parents=tuple(parents),
    )


def _cells(col: FeatureColumn) -> list:
    """A column as a list of Python cells, None where undefined.

    Categorical codes are decoded through the column's dictionary, which is
    the predicting database's, so tests compare values, never codes.
    """
    if col.kind == CATEGORICAL:  # undefined codes are -1, which picks the trailing None
        return np.asarray((*(col.dictionary or ()), None), dtype=object)[col.values].tolist()
    cells = col.values.tolist()
    for i in (~col.defined).nonzero()[0].tolist():
        cells[i] = None
    return cells


class _Request:
    """Per-request caches: each path joined once, each tested feature computed once.

    A plain object rather than closures, so that a finished request holds no
    reference cycle and is freed at once, not by the cyclic collector.
    """

    def __init__(self, router: _Router, db: Database, ids: np.ndarray) -> None:
        self.router = router
        self.db = db
        self.ids = ids
        self.instantiations: list[JoinInstantiation | None] = [None] * len(router.paths)
        self.aggregates: dict[int, dict] = {}
        self.columns: list[list | None] = [None] * len(router.descriptors)

    def instantiation(self, p: int) -> JoinInstantiation:
        inst = self.instantiations[p]
        if inst is None:
            router = self.router
            parent = router.parents[p]
            if parent < 0:
                ids = self.ids
                inst = JoinInstantiation(router.paths[p], ids, np.arange(len(ids) + 1, dtype=np.int64), ids)
            else:  # the prefix cache: extend the parent path by its last hop
                inst = join_hop(self.db, self.instantiation(parent), router.paths[p].hops[-1])
            self.instantiations[p] = inst
        return inst

    def cells(self, slot: int) -> list:
        p = self.router.slot_paths[slot]
        col = feature_cells(
            self.db, self.instantiation(p), self.router.descriptors[slot], self.aggregates.setdefault(p, {})
        )
        cells = self.columns[slot] = _cells(col)
        return cells


def _route(model: TreeModel, db: Database, ids: np.ndarray) -> list[Prediction]:
    """Predictions for ascending, distinct, valid target-table row ids."""
    router = model._router
    request = _Request(router, db, ids)
    columns = request.columns
    inner, leaves, root = router.inner, router.leaves, router.root
    out = []
    for r in range(len(ids)):
        i = root
        while i >= 0:
            slot, is_le, operand, undefined_left, left, right = inner[i]
            cells = columns[slot]
            if cells is None:
                cells = request.cells(slot)
            v = cells[r]
            if v is None:
                go_left = undefined_left
            else:
                go_left = v <= operand if is_le else v == operand
            i = left if go_left else right
        out.append(leaves[~i])
    return out


def check_compatible(model: TreeModel, db: Database) -> None:
    if fingerprint(db.catalog) != model.schema_fingerprint:
        raise ModelMismatchError("database schema does not match the model's schema fingerprint")


def _outside(instance: int, n_rows: int) -> ValueError:
    return ValueError(f"instance id {instance} is outside the target table's rows [0, {n_rows})")


def predict(model: TreeModel, db: Database, instance: int) -> Prediction:
    """Route one target-table row through the tree; equals ``predict_many(model, db, [instance])[0]``.

    The one id is checked in Python rather than through ``predict_many``'s
    request arrays, whose numpy calls (``np.unique`` above all) cost more than
    routing a row through a shallow tree.  Raises ``ValueError`` when the id
    is not a row of the target table.
    """
    check_compatible(model, db)
    i = int(instance)
    n_rows = db.tables[db.catalog.target_table].n_rows
    if not 0 <= i < n_rows:
        raise _outside(i, n_rows)
    return _route(model, db, np.array([i], dtype=np.int64))[0]


def predict_many(model: TreeModel, db: Database, instances) -> list[Prediction]:
    """Predictions for target-table row ids, in request order (duplicates kept).

    The request is columnar: the distinct ids are joined along each path the
    tree reaches once, and each tested feature is computed once, for all of
    them, when the first row reaches a node that tests it, by the same code
    that built the training columns.  Rows are then routed through the tree
    over those cells.  Raises ``ValueError`` naming the first id that is not
    a row of the target table.  Prediction adds nothing to ``db.stats``.
    """
    check_compatible(model, db)
    if not isinstance(instances, np.ndarray):
        instances = list(instances)
    ids = np.asarray(instances, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        return []
    n_rows = db.tables[db.catalog.target_table].n_rows
    outside = (ids < 0) | (ids >= n_rows)
    if outside.any():
        raise _outside(int(ids[np.argmax(outside)]), n_rows)
    unique, inverse = np.unique(ids, return_inverse=True)
    out = _route(model, db, unique)
    return [out[k] for k in inverse.tolist()]


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


def _path_from_doc(doc: dict, where: str) -> JoinPath:
    hops = []
    for i, h in enumerate(_get(doc, "hops", where)):
        hop = {k: _get(h, k, f"{where}.hops[{i}]") for k in _HOP_FIELDS}
        hops.append(Hop(**{**hop, "many_to_one": bool(hop["many_to_one"])}))
    return JoinPath(start=_get(doc, "start", where), hops=tuple(hops), determinate=all(h.many_to_one for h in hops))


def _descriptor_from_doc(doc: dict, where: str) -> FeatureDescriptor:
    agg = _get(doc, "agg", where)
    if agg not in _AGG_BY_NAME:
        raise _invalid(f"{where}.agg", f"unknown aggregator {agg!r}")
    path = _path_from_doc(_get(doc, "path", where), f"{where}.path")
    return FeatureDescriptor(path=path, attribute=_get(doc, "attribute", where), agg=_AGG_BY_NAME[agg],
                             value=_get(doc, "value", where))


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


_TEST_KINDS = ("numeric_le", "categorical_eq", "boolean_true")
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
        if kind not in _TEST_KINDS:
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
        descriptors = tuple(
            _descriptor_from_doc(d, f"descriptors[{i}]") for i, d in enumerate(_get(doc, "descriptors", ""))
        )
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
