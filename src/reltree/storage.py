"""Columnar in-memory database with an index on every key column.

Key values are dictionary-coded to dense integers at load time; the primary
key of a table and every foreign key referencing it share one code domain, so
equi-join lookups are integer lookups.  Rows whose key cells are missing are
rejected at load.  Foreign-key values that match no primary key are kept
(they join to nothing) and counted in a dangling-reference statistic.
Each key column's index lists the rows of every code (:class:`KeyIndex`),
found by a radix sort of the codes in the narrowest unsigned dtype.
"""

from __future__ import annotations

import csv
import gc
import math
from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from pathlib import Path

import numpy as np

from .schema import (
    KIND_CATEGORICAL,
    KIND_FOREIGN_KEY,
    KIND_NUMERIC,
    KIND_PRIMARY_KEY,
    SchemaCatalog,
    TableSchema,
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
        """The index of ``codes``, each in ``[0, domain_size)``.

        The rows are sorted by a stable sort of the codes cast to the
        narrowest unsigned dtype that holds ``domain_size``: numpy radix-sorts
        8- and 16-bit integers, so every domain below 65,536 codes is sorted
        in linear time, in the order a stable sort of the int64 codes gives.
        """
        counts = np.bincount(codes, minlength=domain_size) if codes.size else np.zeros(domain_size, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        order = np.argsort(codes.astype(np.min_scalar_type(domain_size)), kind="stable").astype(np.int64)
        return cls(starts=starts, rows=order)

    @classmethod
    def primary(cls, n_rows: int, domain_size: int) -> "KeyIndex":
        """The index of a primary key: :meth:`build`'s, without its sort.

        A primary key codes its rows ``0..n_rows-1`` in row order, so row
        ``i`` alone holds code ``i``; the codes from ``n_rows`` up belong to
        dangling foreign-key values and hold no row.
        """
        starts = np.minimum(np.arange(domain_size + 1, dtype=np.int64), n_rows)
        return cls(starts=starts, rows=np.arange(n_rows, dtype=np.int64))

    def lookup(self, code: int) -> np.ndarray:
        if code < 0 or code >= len(self.starts) - 1:
            return self.rows[:0]
        return self.rows[self.starts[code]:self.starts[code + 1]]


class Measurement:
    """Work counted while one :meth:`JoinStats.measure` scope is open."""

    __slots__ = ("lookups_by_depth", "features", "paths")

    def __init__(self) -> None:
        self.lookups_by_depth: Counter[int] = Counter()
        self.features = 0
        self.paths: set[str] = set()


class JoinStats:
    """Join-lookup and feature-construction work, counted only inside :meth:`measure` scopes.

    Counts cover feature construction (instantiation joins and materialized
    feature columns), not model application.  Scopes nest: each open scope
    sees all the work done while it is open, its inner scopes' included.
    With no scope open nothing is counted.
    """

    def __init__(self) -> None:
        self._frames: list[Measurement] = []

    def count_lookups(self, path_length: int, n: int) -> None:
        if n <= 0:
            return
        for m in self._frames:
            m.lookups_by_depth[path_length] += n

    def count_features(self, path_render: str | None, n: int) -> None:
        if n <= 0:
            return
        for m in self._frames:
            m.features += n
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


def build_database(
    catalog: SchemaCatalog,
    raw_tables: dict[str, list[dict] | dict[str, Sequence]],
    options: LoadOptions | None = None,
    sources: dict[str, Path] | None = None,
) -> Database:
    """Build a :class:`Database` from each table's rows or columns.

    A table's data is either a list of row dictionaries, where a cell absent
    from a row is missing, or a dictionary holding one sequence per schema
    column, all of one length (the form :func:`load_database` passes).  Cell
    values may be strings (as read from CSV), plain Python numbers or None.

    A bad cell is reported by its 1-based input row, or, for a table that
    ``sources`` maps to the CSV file it was read from, by that file and the
    cell's physical line.
    """
    opts = options or LoadOptions()
    missing_cells = frozenset((None, *opts.missing_tokens))

    # Missing masks, then rows with a missing key cell rejected.
    cells: dict[str, dict[str, Sequence]] = {}
    missing: dict[str, dict[str, np.ndarray]] = {}
    kept_rows: dict[str, np.ndarray] = {}  # input row (0-based) of each kept row
    rejected: dict[str, int] = {}
    for ts in catalog.tables:
        cols = _table_columns(ts, raw_tables.get(ts.name))
        masks = {name: _missing_mask(col, missing_cells) for name, col in cols.items()}
        n = len(cols[ts.columns[0].name])
        reject = np.zeros(n, dtype=bool)
        for c in ts.columns:
            if c.is_key:
                reject |= masks[c.name]
        kept = np.flatnonzero(~reject)
        if len(kept) < n:
            picks = kept.tolist()
            cols = {name: [col[i] for i in picks] for name, col in cols.items()}
            masks = {name: mask[kept] for name, mask in masks.items()}
        cells[ts.name] = cols
        missing[ts.name] = masks
        kept_rows[ts.name] = kept
        rejected[ts.name] = n - len(kept)

    # Primary keys first (codes 0..n-1 in row order), then foreign keys in
    # declaration order, table by table, so dangling values get stable codes
    # past n_primary in first-seen order.
    domains: dict[tuple[str, str], KeyDomain] = {}
    key_codes: dict[tuple[str, str], np.ndarray] = {}
    for ts in catalog.tables:
        pk = ts.primary_key
        values = list(map(str, cells[ts.name][pk.name]))
        code_of = dict(zip(values, range(len(values))))
        if len(code_of) < len(values):
            seen: set[str] = set()
            for i, v in enumerate(values):
                if v in seen:
                    where = _cell_locator(ts.name, pk.name, kept_rows[ts.name], (sources or {}).get(ts.name))
                    raise DataError(f"{where(i)}: duplicate primary key value {v!r}")
                seen.add(v)
        domains[(ts.name, pk.name)] = KeyDomain(
            table=ts.name, column=pk.name, values=values, code_of=code_of, n_primary=len(values)
        )
        key_codes[(ts.name, pk.name)] = np.arange(len(values), dtype=np.int64)

    dangling: dict[tuple[str, str], int] = {}
    for ts in catalog.tables:
        for c in ts.foreign_keys:
            dom = domains[(c.ref_table, c.ref_column)]
            col = cells[ts.name][c.name]
            codes = np.fromiter(map(dom.code_of.get, col, repeat(-1)), np.int64, len(col))
            # Dangling values and cells that are not strings yet.
            for i in np.flatnonzero(codes < 0).tolist():
                value = str(col[i])
                code = dom.code_of.setdefault(value, len(dom.values))
                if code == len(dom.values):
                    dom.values.append(value)
                codes[i] = code
            key_codes[(ts.name, c.name)] = codes
            dangling[(ts.name, c.name)] = int(np.count_nonzero(codes >= dom.n_primary))

    strip = opts.strip_target_features
    tables: dict[str, TableData] = {}
    for ts in catalog.tables:
        columns: dict[str, Column] = {}
        for c in ts.columns:
            if (
                strip
                and ts.name == catalog.target_table
                and not c.is_key
                and c.name != catalog.target_attribute
            ):
                continue
            col = cells[ts.name][c.name]
            miss = missing[ts.name][c.name]
            if c.kind == KIND_PRIMARY_KEY:
                columns[c.name] = KeyColumn(codes=key_codes[(ts.name, c.name)], domain=domains[(ts.name, c.name)])
            elif c.kind == KIND_FOREIGN_KEY:
                columns[c.name] = KeyColumn(codes=key_codes[(ts.name, c.name)], domain=domains[(c.ref_table, c.ref_column)])
            elif c.kind == KIND_NUMERIC:
                where = _cell_locator(ts.name, c.name, kept_rows[ts.name], (sources or {}).get(ts.name))
                columns[c.name] = _numeric_column(col, miss, where)
            elif c.kind == KIND_CATEGORICAL:
                columns[c.name] = _categorical_column(col, miss)
        tables[ts.name] = TableData(name=ts.name, n_rows=len(kept_rows[ts.name]), columns=columns)

    indexes: dict[tuple[str, str], KeyIndex] = {}
    for ts in catalog.tables:
        for c in ts.columns:
            if not c.is_key:
                continue
            col = tables[ts.name].columns[c.name]
            assert isinstance(col, KeyColumn)
            if c.kind == KIND_PRIMARY_KEY:
                indexes[(ts.name, c.name)] = KeyIndex.primary(len(col.codes), len(col.domain))
            else:
                indexes[(ts.name, c.name)] = KeyIndex.build(col.codes, len(col.domain))

    return Database(
        catalog=catalog,
        tables=tables,
        indexes=indexes,
        key_domains=domains,
        dangling=dangling,
        rejected_rows=rejected,
    )


def _table_columns(ts: TableSchema, data) -> dict[str, Sequence]:
    """One table's data as ``{column: cells}`` over its schema columns."""
    if data is None:
        raise DataError(f"no data provided for table {ts.name}")
    if not isinstance(data, dict):
        return {c.name: [row.get(c.name) for row in data] for c in ts.columns}
    absent = [c.name for c in ts.columns if c.name not in data]
    if absent:
        raise DataError(f"no data provided for table {ts.name} columns: {', '.join(absent)}")
    cols = {c.name: data[c.name] for c in ts.columns}
    if len({len(col) for col in cols.values()}) > 1:
        raise DataError(f"table {ts.name}: columns of different lengths")
    return cols


def _missing_mask(col: Sequence, missing_cells: frozenset) -> np.ndarray:
    """Which cells of ``col`` are missing; cell by cell only in a column that holds one."""
    if missing_cells.isdisjoint(col):
        return np.zeros(len(col), dtype=bool)
    return np.fromiter(map(missing_cells.__contains__, col), bool, len(col))


def _present(col: Sequence, miss: np.ndarray) -> Sequence:
    return list(compress(col, (~miss).tolist())) if miss.any() else col


def _cell_locator(table: str, column: str, kept: np.ndarray, source: Path | None) -> Callable[[int], str]:
    """Names a column's cell in kept row ``i``: by 1-based input row, or by file and physical line."""
    if source is None:
        return lambda i: f"table {table} column {column} row {kept[i] + 1}"
    return lambda i: f"{source} line {_physical_line(source, int(kept[i]))}: column {column}"


def _physical_line(path: Path, index: int) -> int:
    """The physical line of data row ``index`` (0-based) of a CSV that :func:`_read_rows` read.

    The file is read again only to report a bad cell, so that loading does
    not pay for line numbers.  A record whose quoted field spans lines has
    the line it ends on, as ``csv`` counts it.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        next(islice((row for row in reader if row), index, None))  # blank lines are not rows
        return reader.line_num


def _numeric_column(col: Sequence, miss: np.ndarray, where: Callable[[int], str]) -> NumericColumn:
    present = _present(col, miss)
    try:
        parsed = np.fromiter(map(float, present), np.float64, len(present))
    except (TypeError, ValueError):
        parsed = None
    if parsed is None or not np.isfinite(parsed).all():
        # Report the first bad cell in row order, whichever way it is bad.
        for i in np.flatnonzero(~miss).tolist():
            v = col[i]
            try:
                x = float(v)
            except (TypeError, ValueError):
                raise DataError(f"{where(i)}: not numeric: {v!r}") from None
            if not math.isfinite(x):
                raise DataError(f"{where(i)}: not finite: {v!r}")
    values = np.full(len(col), np.nan, dtype=np.float64)
    values[~miss] = parsed
    return NumericColumn(values=values, missing=miss)


def _categorical_column(col: Sequence, miss: np.ndarray) -> CategoricalColumn:
    present = list(map(str, _present(col, miss)))
    dictionary = tuple(dict.fromkeys(present))  # first-seen order
    code_of = {v: i for i, v in enumerate(dictionary)}
    codes = np.full(len(col), -1, dtype=np.int64)
    codes[~miss] = np.fromiter(map(code_of.__getitem__, present), np.int64, len(present))
    return CategoricalColumn(codes=codes, dictionary=dictionary, missing=miss)


def load_database(catalog: SchemaCatalog, data_dir, options: LoadOptions | None = None) -> Database:
    """Load every table's CSV from ``data_dir`` and build the database.

    CSVs are RFC-4180-style UTF-8 with a header row; a byte-order mark is
    skipped.  The header must name every schema column (order-insensitive)
    and no column twice; extra columns are ignored.  Every data row has the
    header's number of fields; blank lines are skipped.  Every bad cell is
    reported by its file and physical line.

    The cyclic garbage collector is off for the whole load: reading, the
    transposition to columns and :func:`build_database`.  The row lists are
    many young containers that hold no cycle, so a collection would walk them
    and find nothing; with the collector off until the build is done, each
    table's rows are freed by reference counting before any collection can
    run.  The collector is back in its previous state afterwards, whether
    the load succeeds or raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        raw: dict[str, dict[str, list]] = {}
        sources: dict[str, Path] = {}
        for ts in catalog.tables:
            path = Path(data_dir) / ts.source_file
            raw[ts.name] = _read_columns(ts, path)
            sources[ts.name] = path
        return build_database(catalog, raw, options, sources)
    finally:
        if enabled:
            gc.enable()


def _read_columns(ts: TableSchema, path: Path) -> dict[str, list]:
    """The cells of ``ts``'s schema columns in the CSV at ``path``, one list per column."""
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header, rows = _read_rows(reader, path)
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    absent = [c.name for c in ts.columns if c.name not in header]
    if absent:
        raise DataError(f"{path}: header is missing schema columns: {', '.join(absent)}")
    positions = {c.name: header.index(c.name) for c in ts.columns}
    return {name: [row[i] for row in rows] for name, i in positions.items()}


def _read_rows(reader, path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of one CSV, blank lines skipped."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file (missing header)")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: header repeats column {repeated[0]!r}")
    width = len(header)
    rows = []
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise DataError(f"{path} line {reader.line_num}: {len(row)} fields, header has {width}")
        rows.append(row)
    return header, rows
