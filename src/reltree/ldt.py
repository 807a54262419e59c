"""Per-tree-node local data tables and their extension machinery.

An LDT carries the node's instance ids and labels, every feature column
constructed on its root-to-node path, and its frontier: an ordered map from
each feature-bearing join path not yet extended to its join, built over this
node's instances or an ancestor's (children of a split share the map).
Extending an LDT materializes features for candidate path extensions; which
frontier paths get extended depends on the strategy: all of them
(unrestricted), or only paths whose features were used by an ancestor split
(restricted).  Length-1 initial paths were introduced unconditionally at the
root and stay eligible under either strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .features import FeatureColumn, features_for_path
from .joinpath import (
    JoinInstantiation,
    JoinPath,
    candidate_extensions,
    initial_paths,
    instantiate,
    root_instantiation,
)
from .params import LearnParams, UNRESTRICTED
from .storage import CategoricalColumn, Database, DataError

if TYPE_CHECKING:  # pragma: no cover
    from .tree import SplitTest


class InvalidSplitError(ValueError):
    """A split test routed every row to one side."""


@dataclass(eq=False)
class LocalDataTable:
    instance_ids: np.ndarray
    labels: np.ndarray
    n_classes: int
    columns: list[FeatureColumn]
    frontier: dict[JoinPath, JoinInstantiation]  # paths not yet extended -> join over these or more instances

    def __len__(self) -> int:
        return len(self.instance_ids)

    def column_for(self, descriptor) -> FeatureColumn:
        for col in self.columns:
            if col.descriptor == descriptor:
                return col
        raise KeyError(f"no column for descriptor {descriptor.name}")


def target_labels(db: Database) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """(row ids with a defined label, their class codes, class dictionary)."""
    catalog = db.catalog
    col = db.tables[catalog.target_table].columns[catalog.target_attribute]
    if not isinstance(col, CategoricalColumn):
        raise DataError(f"target attribute {catalog.target_attribute} is not categorical")
    defined = ~col.missing
    ids = np.nonzero(defined)[0].astype(np.int64)
    return ids, col.codes[ids], col.dictionary


def build_root_ldt(db: Database, params: LearnParams, instance_ids=None) -> LocalDataTable:
    """Root LDT: retained target attributes plus features of every initial path."""
    all_ids, all_labels, classes = target_labels(db)
    if instance_ids is not None:
        wanted = np.sort(np.asarray(instance_ids, dtype=np.int64))
        mask = np.isin(all_ids, wanted)
        all_ids, all_labels = all_ids[mask], all_labels[mask]
    if len(all_ids) == 0:
        raise DataError("target table has no labeled instances")

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
    """One extension round, per Algorithm-style tree growth.

    Returns a new LDT with the extension features appended (the original is
    unchanged), or None when no frontier path qualifies under the strategy
    (the inextensible signal).  Extended paths leave the frontier; their
    extensions join it, each built from the extended path's join restricted
    to this node's instances.
    """
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


def split_masks(test: "SplitTest", column: FeatureColumn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pass, fail, undefined) row masks of a split test over a column."""
    defined = column.defined
    if test.kind == "numeric_le":
        passes = defined & (column.values <= test.threshold)
    elif test.kind == "boolean_true":
        passes = defined & column.values.astype(bool)
    elif test.kind == "categorical_eq":
        dictionary = column.dictionary or ()
        code = dictionary.index(test.value) if test.value in dictionary else -2
        passes = defined & (column.values == code)
    else:
        raise ValueError(f"unknown test kind {test.kind!r}")
    return passes, defined & ~passes, ~defined


def partition_ldt(ldt: LocalDataTable, test: "SplitTest") -> tuple[LocalDataTable, LocalDataTable]:
    """Split an LDT by a test; undefined rows follow the stored route.

    The left child is the pass side.  Children take their rows of every
    column and share the parent's frontier map; no join is touched.
    """
    column = ldt.column_for(test.descriptor)
    passes, fails, undef = split_masks(test, column)
    if test.undefined_route == "pass":
        left = passes | undef
    else:
        left = passes
    right = ~left
    if not left.any() or not right.any():
        raise InvalidSplitError(f"test {test.descriptor.name} sends all rows to one side")

    def child(mask: np.ndarray) -> LocalDataTable:
        return LocalDataTable(
            instance_ids=ldt.instance_ids[mask],
            labels=ldt.labels[mask],
            n_classes=ldt.n_classes,
            columns=[c.take(mask) for c in ldt.columns],
            frontier=ldt.frontier,
        )

    return child(left), child(right)
