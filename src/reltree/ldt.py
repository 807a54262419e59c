"""Local data tables: the rows of one or more tree nodes, and their extension machinery.

An LDT carries instance ids and labels, every feature column constructed on
the root-to-node path, and its frontier: an ordered map from each
feature-bearing join path not yet extended to its join, built over these
instances or an ancestor's (tables partitioned from one another share the
map).  Extending an LDT materializes features for candidate path extensions;
which frontier paths get extended depends on the strategy: all of them
(unrestricted), or only paths whose features were used by an ancestor split
(restricted).  Length-1 initial paths were introduced unconditionally at the
root and stay eligible under either strategy.

A table's rows are grouped into contiguous segments, one per tree node:
growth runs level by level, and a table holds every open node of one depth
that shares its layout, each node's rows ascending within its segment.  A
table built from columns has one segment.  Split search and splitting treat
each segment as its own node; extension works on one node at a time.

Columns are stored as one block per kind, a ``(columns of the kind) x rows``
values array and a defined mask of the same shape: numeric ``float64`` with
NaN in every undefined cell and in no defined one, categorical ``int64``
codes, and boolean.  A
block's rows keep the table's column order.  A :class:`ColumnLayout` says
where each column lives (its block and row there), its dictionary, and its
rank in descriptor order.  A table built from columns (the root, an
extension, the eager flat table) computes its layout once; every table
partitioned from it shares that layout and takes its rows of each block with
one gather.  ``ldt.columns`` reads the blocks back as :class:`FeatureColumn`
views, in append order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .features import BOOLEAN, CATEGORICAL, NUMERIC, FeatureColumn, FeatureDescriptor, features_for_path
from .joinpath import (
    JoinInstantiation,
    JoinPath,
    candidate_extensions,
    computed_once,
    initial_paths,
    instantiate,
    root_instantiation,
)
from .params import LearnParams, UNRESTRICTED
from .storage import CategoricalColumn, Database, DataError

if TYPE_CHECKING:  # pragma: no cover
    from .tree import SplitTest

_BLOCK_DTYPES = {NUMERIC: np.float64, CATEGORICAL: np.int64, BOOLEAN: bool}


class InvalidSplitError(ValueError):
    """A split test routed every row to one side."""


@dataclass(frozen=True, eq=False)
class ColumnLayout:
    """Where each column of a table lives; shared by every table partitioned from it.

    Column ``i`` (append order) is row ``slots[i]`` of the block of
    ``kinds[i]``, and ``index`` maps its descriptor back to ``i``.  Per kind, ``members[kind]`` holds the column index of each
    block row and ``ranks[kind]`` its position in descriptor order.  Block row
    ``s`` of the categorical block owns the code bins ``code_offsets[s]`` up
    to ``code_offsets[s + 1]``, one per value of its dictionary.
    """

    descriptors: tuple[FeatureDescriptor, ...]
    kinds: tuple[str, ...]
    dictionaries: tuple[tuple[str, ...] | None, ...]
    slots: tuple[int, ...]
    index: dict[FeatureDescriptor, int]
    members: dict[str, tuple[int, ...]]
    ranks: dict[str, np.ndarray]
    code_offsets: np.ndarray

    @classmethod
    def of(cls, columns: list[FeatureColumn]) -> "ColumnLayout":
        members: dict[str, list[int]] = {}
        slots = []
        for i, c in enumerate(columns):
            if c.kind not in _BLOCK_DTYPES:
                raise ValueError(f"unknown column kind {c.kind!r}")
            rows = members.setdefault(c.kind, [])
            slots.append(len(rows))
            rows.append(i)
        order = sorted(range(len(columns)), key=lambda i: columns[i].descriptor.sort_key())
        rank = np.empty(len(columns), dtype=np.int64)
        rank[order] = np.arange(len(columns))
        sizes = [len(columns[i].dictionary or ()) for i in members.get(CATEGORICAL, ())]
        return cls(
            descriptors=tuple(c.descriptor for c in columns),
            kinds=tuple(c.kind for c in columns),
            dictionaries=tuple(c.dictionary for c in columns),
            slots=tuple(slots),
            index={c.descriptor: i for i, c in enumerate(columns)},
            members={kind: tuple(rows) for kind, rows in members.items()},
            ranks={kind: rank[rows] for kind, rows in members.items()},
            code_offsets=np.cumsum([0, *sizes]),
        )


def _stack(layout: ColumnLayout, columns: list[FeatureColumn]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One (values, defined) block per kind present, rows in the layout's order."""
    blocks = {}
    for kind, rows in layout.members.items():
        values = np.array([columns[i].values for i in rows], dtype=_BLOCK_DTYPES[kind])
        defined = np.array([columns[i].defined for i in rows], dtype=bool)
        if kind == NUMERIC:
            if np.isnan(values[defined]).any():
                raise ValueError("a defined numeric cell is NaN")
            values[~defined] = np.nan
        blocks[kind] = (values, defined)
    return blocks


class _Columns(Sequence):
    """A table's columns, read back from its blocks as views; ``len`` reads only the layout."""

    __slots__ = ("_table",)

    def __init__(self, table: "LocalDataTable") -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table.layout.descriptors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._table.column(j) for j in range(len(self))[i]]
        return self._table.column(range(len(self))[i])


class LocalDataTable:
    """Tree nodes' rows: instance ids, class labels, feature blocks, frontier and segments.

    ``LocalDataTable(instance_ids=..., labels=..., n_classes=..., columns=[...],
    frontier=...)`` stacks the columns into blocks under a new layout, as one
    segment.  Segment ``s`` is rows ``bounds[s]`` up to ``bounds[s + 1]``.
    """

    def __init__(
        self,
        instance_ids: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        columns: list[FeatureColumn],
        frontier: dict[JoinPath, JoinInstantiation],  # paths not yet extended -> join over these or more instances
    ) -> None:
        layout = ColumnLayout.of(columns)
        self._set(instance_ids, labels, n_classes, layout, _stack(layout, columns), frontier, None)

    def _set(self, instance_ids, labels, n_classes, layout, blocks, frontier, bounds) -> None:
        self.instance_ids = instance_ids
        self.labels = labels
        self.n_classes = n_classes
        self.layout = layout
        self.blocks = blocks  # kind -> (values, defined), each (columns of the kind) x rows
        self.frontier = frontier
        self.bounds = np.array([0, len(instance_ids)], dtype=np.int64) if bounds is None else bounds

    def _derived(self, rows, bounds) -> "LocalDataTable":
        """The table over row positions ``rows`` in segments ``bounds``, sharing layout and frontier."""
        table = LocalDataTable.__new__(LocalDataTable)
        blocks = {
            kind: (np.take(values, rows, axis=1), np.take(defined, rows, axis=1))
            for kind, (values, defined) in self.blocks.items()
        }
        table._set(self.instance_ids[rows], self.labels[rows], self.n_classes, self.layout, blocks, self.frontier,
                   bounds)
        return table

    def segment(self, s: int) -> "LocalDataTable":
        """Segment ``s`` as a table of its own, one segment."""
        lo, hi = self.bounds[s : s + 2].tolist()
        return self._derived(np.arange(lo, hi), None)

    @property
    def n_segments(self) -> int:
        return len(self.bounds) - 1

    @computed_once
    def segment_ids(self) -> np.ndarray:
        """The segment of each row."""
        return np.repeat(np.arange(self.n_segments), self.bounds[1:] - self.bounds[:-1])

    @computed_once
    def row_keys(self) -> np.ndarray:
        """``segment * n_classes + label`` of each row: its (segment, class) bin."""
        return self.segment_ids * self.n_classes + self.labels

    @computed_once
    def class_counts(self) -> np.ndarray:
        """Class counts of each segment, ``n_segments x n_classes``."""
        counts = np.bincount(self.row_keys, minlength=self.n_segments * self.n_classes)
        return counts.reshape(self.n_segments, self.n_classes)

    def __len__(self) -> int:
        return len(self.instance_ids)

    @property
    def columns(self) -> Sequence[FeatureColumn]:
        return _Columns(self)

    def column(self, i: int) -> FeatureColumn:
        layout = self.layout
        values, defined = self.blocks[layout.kinds[i]]
        s = layout.slots[i]
        return FeatureColumn(layout.descriptors[i], layout.kinds[i], values[s], defined[s], layout.dictionaries[i])


def target_labels(db: Database) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """(row ids with a defined label, their class codes, class dictionary)."""
    catalog = db.catalog
    col = db.tables[catalog.target_table].columns[catalog.target_attribute]
    if not isinstance(col, CategoricalColumn):
        raise DataError(f"target attribute {catalog.target_attribute} is not categorical")
    defined = ~col.missing
    ids = np.nonzero(defined)[0].astype(np.int64)
    return ids, col.codes[ids], col.dictionary


def _outside(instance: int, n_rows: int) -> ValueError:
    return ValueError(f"instance id {instance} is outside the target table's rows [0, {n_rows})")


def _is_integer_id(instance) -> bool:
    return isinstance(instance, (int, np.integer)) and not isinstance(instance, bool)


def _not_integer(instance) -> ValueError:
    if isinstance(instance, np.generic):
        instance = instance.item()
    return ValueError(f"instance id {instance!r} is not an integer")


def _check_ids(instances, n_rows: int) -> np.ndarray:
    """``instances`` as a 1-D int64 array, in their order.

    ValueError names the first id that is not an int or numpy integer (a
    float, bool or string is never truncated, and a bool among ints is not
    read as 0 or 1); else it names the first id outside ``[0, n_rows)``, as
    it was given: the range is tested before the cast to int64, so an id
    past int64 neither overflows nor wraps.  A request that numpy reads as
    integers is checked by array operations (a list after one pass over its
    element types, which is how a bool among ints is seen); any other
    request is checked id by id, as given.
    """
    if isinstance(instances, np.ndarray):
        ids = instances.reshape(-1)
        if ids.size and ids.dtype.kind not in "iu":
            return _checked_one_by_one(ids.tolist(), n_rows)
        return _in_range(ids, n_rows)
    values = instances if type(instances) is list else list(instances)
    types = set(map(type, values))
    if types <= {int}:  # the usual request
        try:
            ids = np.fromiter(values, np.int64, len(values))
        except OverflowError:  # an int past int64
            return _checked_one_by_one(values, n_rows)
        return _in_range(ids, n_rows)
    if bool not in types and np.bool_ not in types:
        # Mostly numpy integers, alone or among ints.  What numpy does not
        # read as integers ([0, "a"] as strings, an int past uint64 as an
        # object) is checked id by id below.
        ids = np.asarray(values).reshape(-1)
        if ids.dtype.kind in "iu":
            return _in_range(ids, n_rows)
    return _checked_one_by_one(values, n_rows)


def _in_range(ids: np.ndarray, n_rows: int) -> np.ndarray:
    """Integer ``ids`` as int64, or ValueError naming the first outside ``[0, n_rows)``."""
    # Unsigned ids are never negative, and the cast would wrap those past int64.
    outside = (ids >= n_rows) if ids.dtype.kind == "u" else (ids < 0) | (ids >= n_rows)
    if outside.any():
        raise _outside(int(ids[np.argmax(outside)]), n_rows)
    return ids.astype(np.int64, copy=False)


def _checked_one_by_one(values: list, n_rows: int) -> np.ndarray:
    """:func:`_check_ids` of a request that numpy does not read as integers, or that holds a bool."""
    bad = [v for v in values if not _is_integer_id(v)]
    if bad:
        raise _not_integer(bad[0])
    outside = [v for v in values if not 0 <= v < n_rows]
    if outside:
        raise _outside(int(outside[0]), n_rows)
    return np.array(values, dtype=np.int64)


def training_rows(db: Database, instance_ids=None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The rows both learners train on: (row ids, their class codes, class dictionary).

    They are the labeled target-table rows among ``instance_ids`` (every
    labeled row when None), ascending and each once, however often or in
    whatever order an id is requested.  Raises ``ValueError`` naming an id
    that is not an integer row of the target table, as ``predict_many``
    does, and ``DataError`` when no labeled row is left.
    """
    ids, labels, classes = target_labels(db)
    if instance_ids is not None:
        n_rows = db.tables[db.catalog.target_table].n_rows
        requested = np.zeros(n_rows, dtype=bool)
        requested[_check_ids(instance_ids, n_rows)] = True
        keep = requested[ids]
        ids, labels = ids[keep], labels[keep]
    if len(ids) == 0:
        raise DataError("target table has no labeled instances" if instance_ids is None
                        else "none of the requested rows is a labeled target-table row")
    return ids, labels, classes


def build_root_ldt(db: Database, params: LearnParams, instance_ids=None) -> LocalDataTable:
    """Root LDT over :func:`training_rows`: retained target attributes plus features of every initial path."""
    all_ids, all_labels, classes = training_rows(db, instance_ids)

    root_inst = root_instantiation(db, all_ids)
    cache: dict[JoinPath, JoinInstantiation] = {root_inst.path: root_inst}
    columns = features_for_path(db, root_inst, params)

    frontier: dict[JoinPath, JoinInstantiation] = {}
    for path in initial_paths(db.catalog):
        frontier[path] = instantiate(db, path, cache)
        columns.extend(features_for_path(db, frontier[path], params))

    return LocalDataTable(
        instance_ids=all_ids,
        labels=all_labels,
        n_classes=len(classes),
        columns=columns,
        frontier=frontier,
    )


def extend_ldt(db: Database, ldt: LocalDataTable, params: LearnParams, used_paths: frozenset[JoinPath]) -> LocalDataTable | None:
    """One extension round of a one-segment LDT, per Algorithm-style tree growth.

    Returns a new LDT with the extension features appended (the original is
    unchanged), or None when no frontier path qualifies under the strategy
    (the inextensible signal).  Extended paths leave the frontier; their
    extensions join it, each built from the extended path's join restricted
    to this node's instances.
    """
    if ldt.n_segments != 1:
        raise ValueError(f"extend_ldt extends one node, not a table of {ldt.n_segments} segments")
    if not ldt.frontier:
        return None
    if params.strategy == UNRESTRICTED:
        selected = list(ldt.frontier)
    else:
        initials = set(initial_paths(db.catalog))
        selected = [p for p in ldt.frontier if p in initials or p in used_paths]
    if not selected:
        return None

    columns = list(ldt.columns)
    added: dict[JoinPath, JoinInstantiation] = {}
    for path in selected:
        inst = ldt.frontier[path]
        if inst.n_instances > len(ldt):
            inst = inst.restrict(ldt.instance_ids)
        cache = {path: inst}
        for ext in candidate_extensions(db.catalog, path):
            added[ext] = instantiate(db, ext, cache)
            columns.extend(features_for_path(db, added[ext], params))

    frontier = {p: inst for p, inst in ldt.frontier.items() if p not in selected}
    frontier.update(sorted(added.items(), key=lambda item: item[0].sort_key()))
    return LocalDataTable(
        instance_ids=ldt.instance_ids,
        labels=ldt.labels,
        n_classes=ldt.n_classes,
        columns=columns,
        frontier=frontier,
    )


def left_mask(test: "SplitTest", values: np.ndarray, defined: np.ndarray,
              dictionary: "tuple[str, ...] | None") -> np.ndarray:
    """Which cells ``test`` sends to its left (pass) child; undefined cells follow the stored route.

    ``values`` and ``defined`` are cells of the tested feature, ``dictionary``
    the categorical dictionary their codes index.  A categorical test looks
    its value up there: a value the dictionary lacks compares against code
    -2, which no cell holds, so every defined cell fails.  Training's
    :func:`split_rows` and prediction's routing both split through here, so
    a row takes the same side of a test in both.
    """
    if test.kind == "numeric_le":
        passes = values <= test.threshold
    elif test.kind == "boolean_true":
        passes = values
    elif test.kind == "categorical_eq":
        dictionary = dictionary or ()
        passes = values == (dictionary.index(test.value) if test.value in dictionary else -2)
    else:
        raise ValueError(f"unknown test kind {test.kind!r}")
    passes = passes & defined
    return passes | ~defined if test.undefined_route == "pass" else passes


def split_rows(ldt: LocalDataTable, tests: "Sequence[SplitTest | None]") -> list[np.ndarray]:
    """The row positions of the two children of each segment that has a test; undefined rows follow the stored route.

    ``tests[s]`` is segment ``s``'s test, or None for no split.  The children
    come in segment order, the pass side first, each child's rows ascending.
    A test reads the tested column's row of its kind's block over its
    segment; nothing is gathered.
    """
    if len(tests) != ldt.n_segments:
        raise ValueError(f"{len(tests)} tests for {ldt.n_segments} segments")
    layout = ldt.layout
    bounds = ldt.bounds.tolist()
    parts = []
    for s, test in enumerate(tests):
        if test is None:
            continue
        i = layout.index.get(test.descriptor)
        if i is None:
            raise KeyError(f"no column for descriptor {test.descriptor.name}")
        lo, hi = bounds[s], bounds[s + 1]
        values, defined = ldt.blocks[layout.kinds[i]]
        left = left_mask(test, values[layout.slots[i], lo:hi], defined[layout.slots[i], lo:hi],
                         layout.dictionaries[i])
        left_rows = np.flatnonzero(left)
        if left_rows.size in (0, hi - lo):
            raise InvalidSplitError(f"test {test.descriptor.name} sends all rows to one side")
        parts += [left_rows + lo, np.flatnonzero(~left) + lo]
    return parts


def partition_ldt(ldt: LocalDataTable, parts: Sequence[np.ndarray]) -> LocalDataTable:
    """The table whose segments are ``parts`` (row positions, as :func:`split_rows` gives them), in order.

    It takes its rows of each block with one gather and shares the parent's
    layout and frontier map; no join is touched.
    """
    sizes = np.array([0, *map(len, parts)], dtype=np.int64)
    rows = np.concatenate(parts) if len(parts) else np.empty(0, dtype=np.int64)
    return ldt._derived(rows, np.cumsum(sizes))
