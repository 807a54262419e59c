"""Eager propositionalization: materialize every join-path feature up front.

This is the static baseline the lazy learner is measured against.  It reuses
the exact join and aggregation code paths of the lazy engine, so oracle tests
validate both at once.  The output is one flat table with a row per target
instance and a column per feature descriptor, exportable to CSV together with
a descriptor manifest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import BOOLEAN, CATEGORICAL, FeatureColumn, features_for_path
from .joinpath import JoinInstantiation, JoinPath, candidate_extensions, initial_paths, instantiate, root_instantiation
from .ldt import LocalDataTable, partition_ldt, target_labels
from .params import LearnParams
from .schema import SchemaCatalog
from .storage import Database
from .tree import TreeModel, _check_ids, _grow, model_from_root


class BudgetExceededError(RuntimeError):
    """The flat table outgrew the configured cell budget."""


@dataclass(eq=False)
class FlatTable:
    """One row per target instance; columns cover every descriptor in order."""

    instance_ids: np.ndarray
    labels: np.ndarray  # class codes, -1 where the label is missing
    class_labels: tuple[str, ...]
    columns: list[FeatureColumn]

    @property
    def n_rows(self) -> int:
        return len(self.instance_ids)


def enumerate_paths(catalog: SchemaCatalog, max_path_len: int | None = None) -> list[JoinPath]:
    """Every forward-only path reachable by repeated extension, length-bounded.

    Initial paths are always included (they back the root table of the lazy
    learner even when associative lookahead makes them longer than the bound);
    extensions are generated only while their true hop length fits the bound.
    """
    queue = list(initial_paths(catalog))
    out: list[JoinPath] = []
    while queue:
        path = queue.pop(0)
        out.append(path)
        for ext in candidate_extensions(catalog, path):
            if max_path_len is None or len(ext.hops) <= max_path_len:
                queue.append(ext)
    return sorted(out, key=JoinPath.sort_key)


def propositionalize(
    db: Database,
    max_path_len: int | None,
    params: LearnParams,
    instance_ids=None,
    max_cells: int | None = 100_000_000,
) -> FlatTable:
    """Materialize all features up to the path-length bound into a flat table.

    Raises ``ValueError`` naming the first of ``instance_ids`` that is not a
    row of the target table.
    """
    if max_path_len is not None and max_path_len < 1:
        raise ValueError("max_path_len must be >= 1")

    target = db.catalog.target_table
    n_rows = db.tables[target].n_rows
    if instance_ids is None:
        ids = np.arange(n_rows, dtype=np.int64)
    else:
        ids = np.sort(_check_ids(instance_ids, n_rows))

    _, _, classes = target_labels(db)  # raises unless the target attribute is categorical
    labels = db.tables[target].columns[db.catalog.target_attribute].codes[ids]  # -1 where missing

    root = root_instantiation(db, ids)
    cache: dict[JoinPath, JoinInstantiation] = {root.path: root}
    columns = features_for_path(db, root, params)
    cells = len(columns) * len(ids)
    for path in enumerate_paths(db.catalog, max_path_len):
        inst = instantiate(db, path, cache)
        new_cols = features_for_path(db, inst, params)
        cells += len(new_cols) * len(ids)
        if max_cells is not None and cells > max_cells:
            raise BudgetExceededError(
                f"flat table exceeds {max_cells} cells while materializing path {path.render()}"
            )
        columns.extend(new_cols)

    # Already in descriptor order: paths come sorted, the root's render is a
    # prefix of every other path's, and each path's features come sorted.
    return FlatTable(instance_ids=ids, labels=labels, class_labels=classes, columns=columns)


def train_flat(db: Database, max_path_len: int | None, params: LearnParams, instance_ids=None) -> TreeModel:
    """Eager baseline learner: propositionalize, then grow from an empty frontier (no extension)."""
    if instance_ids is None:
        label_ids, _, _ = target_labels(db)
        instance_ids = label_ids
    flat = propositionalize(db, max_path_len, params, instance_ids=instance_ids)
    ldt = LocalDataTable(
        instance_ids=flat.instance_ids,
        labels=flat.labels,
        n_classes=len(flat.class_labels),
        columns=flat.columns,
        frontier={},
    )
    unlabeled = flat.labels < 0
    if unlabeled.any():
        ldt = partition_ldt(ldt, [np.flatnonzero(~unlabeled)])
    root = _grow(db, ldt, params)
    return model_from_root(db, root, params, mode="eager")


def _format_cell(col: FeatureColumn, i: int, missing_token: str) -> str:
    if not col.defined[i]:
        return missing_token
    if col.kind == BOOLEAN:
        return "1" if col.values[i] else "0"
    if col.kind == CATEGORICAL:
        return (col.dictionary or ())[int(col.values[i])]
    v = float(col.values[i])
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def export_flat_csv(table: FlatTable, db: Database, path, missing_token: str = "?") -> None:
    """Write the flat table as CSV; undefined cells use the missing token."""
    target = db.catalog.target_table
    pk_values = db.primary_key_values(target)
    label_name = db.catalog.target_attribute
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", label_name] + [c.descriptor.name for c in table.columns])
        for i, row_id in enumerate(table.instance_ids):
            label = table.class_labels[table.labels[i]] if table.labels[i] >= 0 else missing_token
            writer.writerow(
                [pk_values[int(row_id)], label] + [_format_cell(c, i, missing_token) for c in table.columns]
            )


def manifest_lines(columns: list[FeatureColumn]) -> list[str]:
    """One tab-separated line per column: name, path, attribute, aggregator."""
    from .features import AGG_NAMES

    out = []
    for c in columns:
        d = c.descriptor
        agg = AGG_NAMES[d.agg] + (f"={d.value}" if d.value is not None else "")
        out.append("\t".join([d.name, d.path.render(), d.attribute or "", agg]))
    return out


def write_manifest(columns: list[FeatureColumn], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in manifest_lines(columns):
            fh.write(line + "\n")
