"""Aggregation of per-instance multisets into feature columns.

Determinate paths yield one identity feature per attribute.  Non-determinate
paths yield an is-empty flag for the path plus, per attribute, the numeric
aggregate family (avg, std, var, max, min, sum, count) or the categorical
family (count, distinct count, and contains-value booleans when the
attribute's base-table domain is small enough).

``count`` covers the full multiset including missing markers; every other
aggregate is computed on the sub-multiset that excludes missing values.  A
cell is undefined when the bag is empty, or when every element is missing
(count excepted, distinct count excepted: those stay defined).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .joinpath import JoinInstantiation, JoinPath, ValueBags, computed_once, project_values
from .params import LearnParams
from .storage import CategoricalColumn, Database, NumericColumn


class Agg(enum.IntEnum):
    """Aggregator identifiers; enum order is the canonical column order."""

    IDENTITY = 0
    AVG = 1
    STD = 2
    VAR = 3
    MAX = 4
    MIN = 5
    SUM = 6
    COUNT = 7
    DISTINCT_COUNT = 8
    CONTAINS = 9
    IS_EMPTY = 10


AGG_NAMES = {agg: agg.name.lower() for agg in Agg}

NUMERIC = "numeric"
CATEGORICAL = "categorical"
BOOLEAN = "boolean"


@dataclass(frozen=True)
class FeatureDescriptor:
    """Identity of one feature: a path, an optional attribute, an aggregator.

    The is-empty feature attaches to the path alone (``attribute is None``);
    contains features carry the tested value.  Descriptors are totally
    ordered by (rendered path, attribute, aggregator, contains value).
    """

    path: JoinPath
    attribute: str | None
    agg: Agg
    value: str | None = None

    def __post_init__(self) -> None:
        # The dataclass's own hash, computed once, and the sort key on first use, as JoinPath's.
        object.__setattr__(self, "_hash", hash((self.path, self.attribute, self.agg, self.value)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        base = self.path.render()
        if self.agg is Agg.IS_EMPTY:
            return f"{base}.:is_empty"
        if self.agg is Agg.CONTAINS:
            return f"{base}.{self.attribute}:contains={self.value}"
        return f"{base}.{self.attribute}:{AGG_NAMES[self.agg]}"

    def sort_key(self):
        return self._sort_key

    @computed_once
    def _sort_key(self):
        return (*self.path.sort_key(), self.attribute or "", int(self.agg), self.value or "")


@dataclass(eq=False)
class FeatureColumn:
    """Per-instance cells of one feature; ``defined`` masks undefined cells."""

    descriptor: FeatureDescriptor
    kind: str  # NUMERIC | CATEGORICAL | BOOLEAN
    values: np.ndarray
    defined: np.ndarray
    dictionary: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.values)


def contains_enabled(domain_size: int, table_rows: int, params: LearnParams) -> bool:
    """Contains features apply only to domains strictly below both thresholds.

    Sizes are measured on the attribute's full base table, not the joined bag.
    """
    return domain_size < params.domsize_abs and domain_size < params.domsize_rel * table_rows


# ---------------------------------------------------------------------------
# Vectorized aggregation over all instances of an instantiation.  Training
# (``features_for_path``), the eager table and prediction all build a
# feature's cells through ``feature_cells``.


def _segment_ids(lengths: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


_NUMERIC_FAMILY = (Agg.AVG, Agg.STD, Agg.VAR, Agg.MAX, Agg.MIN, Agg.SUM, Agg.COUNT)


class BagAggregates:
    """The aggregates of one attribute over every bag of an instantiation.

    Each aggregate is computed on first use, for all bags at once, and kept,
    so the aggregates of one attribute share their intermediates.
    """

    def __init__(self, bags: ValueBags) -> None:
        self.dictionary = bags.dictionary or ()
        self.n = len(bags.offsets) - 1
        self.lengths = bags.offsets[1:] - bags.offsets[:-1]
        present = ~bags.missing
        self.seg = _segment_ids(self.lengths)[present]  # the bag of each non-missing value
        self.values = bags.values[present]

    @computed_once
    def nonempty(self) -> np.ndarray:
        return self.lengths > 0

    @computed_once
    def has_values(self) -> np.ndarray:
        return self._k > 0

    @computed_once
    def _k(self) -> np.ndarray:
        return np.bincount(self.seg, minlength=self.n).astype(np.float64)

    @computed_once
    def _divisor(self) -> np.ndarray:
        # Bags without values divide by 1 instead of 0; their cells are undefined.
        return np.maximum(self._k, 1.0)

    @computed_once
    def _sum(self) -> np.ndarray:
        return np.bincount(self.seg, weights=self.values, minlength=self.n)

    @computed_once
    def _avg(self) -> np.ndarray:
        return self._sum / self._divisor

    @computed_once
    def _var(self) -> np.ndarray:
        dev = self.values - self._avg[self.seg]
        var = np.bincount(self.seg, weights=dev * dev, minlength=self.n) / self._divisor
        return np.where(self.has_values, np.maximum(var, 0.0), np.nan)  # population variance

    @computed_once
    def _std(self) -> np.ndarray:
        return np.sqrt(self._var)

    @computed_once
    def _max(self) -> np.ndarray:
        out = np.full(self.n, -np.inf)
        np.maximum.at(out, self.seg, self.values)
        return out

    @computed_once
    def _min(self) -> np.ndarray:
        out = np.full(self.n, np.inf)
        np.minimum.at(out, self.seg, self.values)
        return out

    @computed_once
    def _distinct(self) -> np.ndarray:
        k_dom = len(self.dictionary)
        if k_dom and self.seg.size:
            uniq = np.unique(self.seg * k_dom + self.values)
            return np.bincount(uniq // k_dom, minlength=self.n).astype(np.float64)
        return np.zeros(self.n, dtype=np.float64)

    def _contains(self, value) -> np.ndarray:
        """Does ``value`` occur in each bag; one pass over the values, so O(bags + values)."""
        out = np.zeros(self.n, dtype=bool)
        if value in self.dictionary:  # a value missing from this database's dictionary occurs in no bag
            out[self.seg[self.values == self.dictionary.index(value)]] = True
        return out

    def cells(self, descriptor: FeatureDescriptor) -> tuple[str, np.ndarray, np.ndarray]:
        """(kind, values, defined) of one aggregate of this attribute.

        Values of undefined cells are unspecified.
        """
        agg = descriptor.agg
        if agg is Agg.CONTAINS:
            return BOOLEAN, self._contains(descriptor.value), self.has_values
        if agg is Agg.COUNT:
            return NUMERIC, self.lengths.astype(np.float64), self.nonempty
        if agg is Agg.DISTINCT_COUNT:
            return NUMERIC, self._distinct, self.nonempty
        return NUMERIC, getattr(self, f"_{AGG_NAMES[agg]}"), self.has_values  # avg, std, var, max, min, sum


def _identity_column(descriptor: FeatureDescriptor, col, inst: JoinInstantiation) -> FeatureColumn:
    """Identity cells over a determinate path's bags, which hold one row at most.

    Undefined numeric cells hold NaN, categorical ones code -1.
    """
    has = inst.bag_sizes() > 0
    if np.count_nonzero(has) != len(inst.rows):
        raise AssertionError(f"determinate path {inst.path.render()} produced a bag of size > 1")
    rows = inst.rows  # the row of each nonempty bag, in bag order
    present = ~col.missing[rows]
    defined = has.copy()
    defined[has] = present
    rows = rows[present]
    if isinstance(col, NumericColumn):
        values = np.full(len(has), np.nan)
        values[defined] = col.values[rows]
        return FeatureColumn(descriptor=descriptor, kind=NUMERIC, values=values, defined=defined)
    assert isinstance(col, CategoricalColumn)
    values = np.full(len(has), -1, dtype=np.int64)
    values[defined] = col.codes[rows]
    return FeatureColumn(
        descriptor=descriptor, kind=CATEGORICAL, values=values, defined=defined, dictionary=col.dictionary
    )


def _is_empty_column(inst: JoinInstantiation) -> FeatureColumn:
    return FeatureColumn(
        descriptor=FeatureDescriptor(path=inst.path, attribute=None, agg=Agg.IS_EMPTY),
        kind=BOOLEAN,
        values=(inst.bag_sizes() == 0),
        defined=np.ones(inst.n_instances, dtype=bool),
    )


def path_descriptors(db: Database, path: JoinPath, params: LearnParams) -> list[FeatureDescriptor]:
    """The features ``path`` defines, in descriptor order.

    Determinate path: one identity feature per non-key attribute.
    Non-determinate path: the is-empty feature plus, per attribute, the
    numeric family, or count, distinct count and (when
    :func:`contains_enabled`) one contains feature per dictionary value.  The
    target attribute is never a feature.
    """
    schema = db.catalog.table(path.terminal_table)
    table = db.tables[path.terminal_table]
    attrs = [c.name for c in schema.columns if not c.is_key and c.name in table.columns]
    if path.is_root:
        attrs = [a for a in attrs if a != db.catalog.target_attribute]
    if path.determinate:
        out = [FeatureDescriptor(path, a, Agg.IDENTITY) for a in attrs]
    else:
        out = [FeatureDescriptor(path, None, Agg.IS_EMPTY)]
        for a in attrs:
            col = table.columns[a]
            if isinstance(col, NumericColumn):
                out += [FeatureDescriptor(path, a, agg) for agg in _NUMERIC_FAMILY]
                continue
            out += [FeatureDescriptor(path, a, Agg.COUNT), FeatureDescriptor(path, a, Agg.DISTINCT_COUNT)]
            if contains_enabled(len(col.dictionary), table.n_rows, params):
                out += [FeatureDescriptor(path, a, Agg.CONTAINS, value) for value in col.dictionary]
    return sorted(out, key=FeatureDescriptor.sort_key)


def feature_cells(
    db: Database, inst: JoinInstantiation, descriptor: FeatureDescriptor, aggregates: dict[str, BagAggregates]
) -> FeatureColumn:
    """The cells of one descriptor of ``inst.path`` over the instances of ``inst``.

    The one mapping from a descriptor to its cells: training, the eager
    table and prediction all compute a feature here.  Undefined categorical
    cells code -1; values of other undefined cells are unspecified.
    ``aggregates`` keeps each attribute's :class:`BagAggregates` of ``inst``
    between calls, so aggregates of one attribute share their intermediates.
    """
    if descriptor.agg is Agg.IS_EMPTY:
        return _is_empty_column(inst)
    if descriptor.agg is Agg.IDENTITY:
        col = db.tables[inst.path.terminal_table].columns[descriptor.attribute]
        return _identity_column(descriptor, col, inst)
    found = aggregates.get(descriptor.attribute)
    if found is None:
        found = aggregates[descriptor.attribute] = BagAggregates(project_values(db, inst, descriptor.attribute))
    kind, values, defined = found.cells(descriptor)
    return FeatureColumn(descriptor=descriptor, kind=kind, values=values, defined=defined)


def features_for_path(db: Database, inst: JoinInstantiation, params: LearnParams) -> list[FeatureColumn]:
    """The columns of every feature ``inst.path`` defines (:func:`path_descriptors`), in that order.

    Undefined numeric cells hold NaN.
    """
    path = inst.path
    aggregates: dict[str, BagAggregates] = {}
    cols = []
    for descriptor in path_descriptors(db, path, params):
        col = feature_cells(db, inst, descriptor, aggregates)
        if col.kind == NUMERIC:
            col.values = np.where(col.defined, col.values, np.nan)
        cols.append(col)
    db.stats.count_features(None if path.is_root else path.render(), [c.descriptor.name for c in cols])
    return cols
