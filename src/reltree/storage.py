"""Columnar in-memory database with hash indexes on every key column.

Key values are dictionary-coded to dense integers at load time; the primary
key of a table and every foreign key referencing it share one code domain, so
equi-join lookups are integer lookups.  Rows whose key cells are missing are
rejected at load.  Foreign-key values that match no primary key are kept
(they join to nothing) and counted in a dangling-reference statistic.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .schema import (
    KIND_CATEGORICAL,
    KIND_FOREIGN_KEY,
    KIND_NUMERIC,
    KIND_PRIMARY_KEY,
    SchemaCatalog,
)

DEFAULT_MISSING_TOKENS = ("", "?")


class DataError(ValueError):
    """Raised for unreadable, malformed or inconsistent data files."""


@dataclass(frozen=True)
class LoadOptions:
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    strip_target_features: bool = False


@dataclass
class KeyDomain:
    """Shared value<->code dictionary for one primary key and its referents."""

    table: str
    column: str
    values: list[str] = field(default_factory=list)
    code_of: dict[str, int] = field(default_factory=dict)
    n_primary: int = 0

    def __len__(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class NumericColumn:
    values: np.ndarray  # float64, NaN where missing
    missing: np.ndarray  # bool


@dataclass(eq=False)
class CategoricalColumn:
    codes: np.ndarray  # int64, -1 where missing
    dictionary: tuple[str, ...]
    missing: np.ndarray


@dataclass(eq=False)
class KeyColumn:
    codes: np.ndarray  # int64 codes into the shared domain
    domain: KeyDomain


Column = NumericColumn | CategoricalColumn | KeyColumn


@dataclass(eq=False)
class KeyIndex:
    """CSR-style map from key code to the sorted row ids holding that code."""

    starts: np.ndarray  # int64, len = domain size + 1
    rows: np.ndarray  # int64 row ids, grouped by code, ascending within a group

    @classmethod
    def build(cls, codes: np.ndarray, domain_size: int) -> "KeyIndex":
        counts = np.bincount(codes, minlength=domain_size) if codes.size else np.zeros(domain_size, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        return cls(starts=starts, rows=order)

    def lookup(self, code: int) -> np.ndarray:
        if code < 0 or code >= len(self.starts) - 1:
            return self.rows[:0]
        return self.rows[self.starts[code]:self.starts[code + 1]]


class Measurement:
    """Counter deltas collected while a :meth:`JoinStats.measure` scope is open."""

    __slots__ = ("lookups_by_depth", "features", "paths", "descriptors")

    def __init__(self) -> None:
        self.lookups_by_depth: Counter[int] = Counter()
        self.features = 0
        self.paths: set[str] = set()
        self.descriptors: set[str] = set()

    @property
    def total_lookups(self) -> int:
        return sum(self.lookups_by_depth.values())

    def lookups_at_depth_ge(self, depth: int) -> int:
        return sum(n for d, n in self.lookups_by_depth.items() if d >= depth)


class JoinStats:
    """Monotone instrumentation of join-lookup and feature-construction work.

    Counts cover feature construction (instantiation joins and materialized
    feature columns), not model application.  Scopes opened with
    :meth:`measure` nest: each open scope sees all the work done while it is
    open, its inner scopes' included, next to the lifetime totals.
    """

    def __init__(self) -> None:
        self.lifetime = Measurement()
        self._frames: list[Measurement] = []

    def count_lookups(self, path_length: int, n: int) -> None:
        if n <= 0:
            return
        for m in (self.lifetime, *self._frames):
            m.lookups_by_depth[path_length] += n

    def count_features(self, path_render: str | None, names: list[str]) -> None:
        if not names:
            return
        for m in (self.lifetime, *self._frames):
            m.features += len(names)
            m.descriptors.update(names)
            if path_render is not None:
                m.paths.add(path_render)

    @contextmanager
    def measure(self):
        frame = Measurement()
        self._frames.append(frame)
        try:
            yield frame
        finally:
            self._frames.pop()


@dataclass(eq=False)
class TableData:
    name: str
    n_rows: int
    columns: dict[str, Column]


@dataclass(eq=False)
class Database:
    """Immutable-after-load columnar tables plus key indexes.

    ``stats`` is instrumentation, not data; it is the only mutable part.
    """

    catalog: SchemaCatalog
    tables: dict[str, TableData]
    indexes: dict[tuple[str, str], KeyIndex]
    key_domains: dict[tuple[str, str], KeyDomain]
    dangling: dict[tuple[str, str], int]
    rejected_rows: dict[str, int]
    stats: JoinStats = field(default_factory=JoinStats)

    def key_code(self, table: str, column: str, value: str) -> int | None:
        col = self.tables[table].columns.get(column)
        if not isinstance(col, KeyColumn):
            raise DataError(f"{table}.{column} is not a key column")
        return col.domain.code_of.get(str(value))

    def primary_key_values(self, table: str) -> list[str]:
        ts = self.catalog.table(table)
        col = self.tables[table].columns[ts.primary_key.name]
        assert isinstance(col, KeyColumn)
        return [col.domain.values[c] for c in col.codes]


def rows_matching(db: Database, table: str, column: str, key) -> np.ndarray:
    """Row ids of ``table`` whose ``column`` equals ``key``.

    ``key`` may be an integer code or the raw key value; unknown keys match
    nothing.  Raises :class:`DataError` when no index exists for the pair.
    """
    index = db.indexes.get((table, column))
    if index is None:
        raise DataError(f"no key index for {table}.{column}")
    if isinstance(key, str):
        code = db.key_code(table, column, key)
        if code is None:
            return index.rows[:0]
        key = code
    return index.lookup(int(key))


def _is_missing(value, tokens: tuple[str, ...]) -> bool:
    if value is None:
        return True
    return isinstance(value, str) and value in tokens


def build_database(catalog: SchemaCatalog, raw_rows: dict[str, list[dict]], options: LoadOptions | None = None) -> Database:
    """Build a :class:`Database` from per-table row dictionaries.

    Cell values may be strings (as read from CSV) or plain Python numbers.
    """
    opts = options or LoadOptions()

    kept: dict[str, list[dict]] = {}
    kept_orig: dict[str, list[int]] = {}
    rejected: dict[str, int] = {}
    for ts in catalog.tables:
        rows = raw_rows.get(ts.name)
        if rows is None:
            raise DataError(f"no data provided for table {ts.name}")
        key_cols = [c.name for c in ts.columns if c.is_key]
        krows: list[dict] = []
        korig: list[int] = []
        nrej = 0
        for i, row in enumerate(rows, start=1):
            norm = {}
            for c in ts.columns:
                v = row.get(c.name)
                norm[c.name] = None if _is_missing(v, opts.missing_tokens) else v
            if any(norm[k] is None for k in key_cols):
                nrej += 1
                continue
            krows.append(norm)
            korig.append(i)
        kept[ts.name] = krows
        kept_orig[ts.name] = korig
        rejected[ts.name] = nrej

    # Primary keys first (codes 0..n-1 in row order), then foreign keys in
    # declaration order so dangling values get stable codes past n_primary.
    domains: dict[tuple[str, str], KeyDomain] = {}
    for ts in catalog.tables:
        pk = ts.primary_key
        dom = KeyDomain(table=ts.name, column=pk.name)
        for row in kept[ts.name]:
            v = str(row[pk.name])
            if v in dom.code_of:
                raise DataError(f"duplicate primary key value {ts.name}.{pk.name}={v!r}")
            dom.code_of[v] = len(dom.values)
            dom.values.append(v)
        dom.n_primary = len(dom.values)
        domains[(ts.name, pk.name)] = dom

    dangling: dict[tuple[str, str], int] = {}
    for ts in catalog.tables:
        for c in ts.foreign_keys:
            dom = domains[(c.ref_table, c.ref_column)]
            miss = 0
            for row in kept[ts.name]:
                v = str(row[c.name])
                code = dom.code_of.get(v)
                if code is None:
                    dom.code_of[v] = len(dom.values)
                    dom.values.append(v)
                    miss += 1
                elif code >= dom.n_primary:
                    miss += 1
            dangling[(ts.name, c.name)] = miss

    strip = opts.strip_target_features
    tables: dict[str, TableData] = {}
    for ts in catalog.tables:
        rows = kept[ts.name]
        orig = kept_orig[ts.name]
        n = len(rows)
        columns: dict[str, Column] = {}
        for c in ts.columns:
            if (
                strip
                and ts.name == catalog.target_table
                and not c.is_key
                and c.name != catalog.target_attribute
            ):
                continue
            if c.kind == KIND_PRIMARY_KEY:
                dom = domains[(ts.name, c.name)]
                codes = np.fromiter((dom.code_of[str(r[c.name])] for r in rows), dtype=np.int64, count=n)
                columns[c.name] = KeyColumn(codes=codes, domain=dom)
            elif c.kind == KIND_FOREIGN_KEY:
                dom = domains[(c.ref_table, c.ref_column)]
                codes = np.fromiter((dom.code_of[str(r[c.name])] for r in rows), dtype=np.int64, count=n)
                columns[c.name] = KeyColumn(codes=codes, domain=dom)
            elif c.kind == KIND_NUMERIC:
                vals = np.full(n, np.nan, dtype=np.float64)
                missing = np.zeros(n, dtype=bool)
                for i, row in enumerate(rows):
                    v = row[c.name]
                    if v is None:
                        missing[i] = True
                        continue
                    try:
                        vals[i] = float(v)
                    except (TypeError, ValueError):
                        raise DataError(
                            f"table {ts.name} column {c.name} row {orig[i]}: not numeric: {v!r}"
                        ) from None
                columns[c.name] = NumericColumn(values=vals, missing=missing)
            elif c.kind == KIND_CATEGORICAL:
                codes = np.full(n, -1, dtype=np.int64)
                missing = np.zeros(n, dtype=bool)
                dictionary: list[str] = []
                code_of: dict[str, int] = {}
                for i, row in enumerate(rows):
                    v = row[c.name]
                    if v is None:
                        missing[i] = True
                        continue
                    s = str(v)
                    code = code_of.get(s)
                    if code is None:
                        code = len(dictionary)
                        code_of[s] = code
                        dictionary.append(s)
                    codes[i] = code
                columns[c.name] = CategoricalColumn(codes=codes, dictionary=tuple(dictionary), missing=missing)
        tables[ts.name] = TableData(name=ts.name, n_rows=n, columns=columns)

    indexes: dict[tuple[str, str], KeyIndex] = {}
    for ts in catalog.tables:
        for c in ts.columns:
            if not c.is_key:
                continue
            col = tables[ts.name].columns[c.name]
            assert isinstance(col, KeyColumn)
            indexes[(ts.name, c.name)] = KeyIndex.build(col.codes, len(col.domain))

    return Database(
        catalog=catalog,
        tables=tables,
        indexes=indexes,
        key_domains=domains,
        dangling=dangling,
        rejected_rows=rejected,
    )


def load_database(catalog: SchemaCatalog, data_dir, options: LoadOptions | None = None) -> Database:
    """Load every table's CSV from ``data_dir`` and build the database.

    CSVs are RFC-4180-style with a header row.  The header must contain every
    schema column (order-insensitive); extra columns are ignored.
    """
    raw: dict[str, list[dict]] = {}
    for ts in catalog.tables:
        path = Path(data_dir) / ts.source_file
        try:
            fh = open(path, "r", newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        with fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file (missing header)")
            absent = [c.name for c in ts.columns if c.name not in reader.fieldnames]
            if absent:
                raise DataError(f"{path}: header is missing schema columns: {', '.join(absent)}")
            rows = []
            wanted = [c.name for c in ts.columns]
            for rec in reader:
                rows.append({name: rec.get(name) for name in wanted})
            raw[ts.name] = rows
    return build_database(catalog, raw, options)
