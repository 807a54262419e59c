"""Relational schema catalog: tables, typed columns, and the foreign-key graph.

A schema file is a YAML document of the form::

    target: Professor.popular
    tables:
      - name: Professor
        file: professor.csv
        columns:
          - PID: pk
          - MID: fk(Movie.MID)
          - popular: cat

Column types are ``pk`` (primary key), ``fk(Table.Column)`` (foreign key),
``num`` (numeric attribute) and ``cat`` (categorical attribute).  Foreign-key
edges are treated as undirected for traversal purposes; direction only
matters for join multiplicity.

The catalog holds its foreign-key graph, computed once, when it is made:
each table's shortest-hop depth from the target table and the hops out of
each table, as :class:`Hop`, the package's one edge type.
:func:`table_depths` and :func:`neighbors` return these stored facts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import deque
from dataclasses import dataclass, field

import yaml

logger = logging.getLogger(__name__)


class SchemaError(ValueError):
    """Malformed or invalid schema description."""


KIND_PRIMARY_KEY = "primary_key"
KIND_FOREIGN_KEY = "foreign_key"
KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"

_TYPE_ALIASES = {"pk": KIND_PRIMARY_KEY, "num": KIND_NUMERIC, "cat": KIND_CATEGORICAL}
_FK_RE = re.compile(r"^fk\(\s*([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\s*\)$")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    ref_table: str | None = None
    ref_column: str | None = None

    @property
    def is_key(self) -> bool:
        return self.kind in (KIND_PRIMARY_KEY, KIND_FOREIGN_KEY)


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSpec, ...]
    source_file: str

    @property
    def primary_key(self) -> ColumnSpec:
        for c in self.columns:
            if c.kind == KIND_PRIMARY_KEY:
                return c
        raise SchemaError(f"table {self.name} has no primary key")

    @property
    def foreign_keys(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind == KIND_FOREIGN_KEY)


@dataclass(frozen=True)
class FkEdge:
    """One foreign-key link; ``fk_table.fk_column`` references ``pk_table.pk_column``."""

    fk_table: str
    fk_column: str
    pk_table: str
    pk_column: str


@dataclass(frozen=True)
class Hop:
    """One traversed edge; ``label`` is the edge's foreign-key column name.

    ``many_to_one`` is true when the hop lands on the destination table's
    primary key, so each source row matches at most one destination row.
    """

    from_table: str
    from_column: str
    to_table: str
    to_column: str
    label: str
    many_to_one: bool

    def __post_init__(self) -> None:
        # The dataclass's own hash, computed once: hops key sets and dicts.
        fields = (self.from_table, self.from_column, self.to_table, self.to_column, self.label, self.many_to_one)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class SchemaCatalog:
    tables: tuple[TableSchema, ...]
    target_table: str
    target_attribute: str
    fk_edges: tuple[FkEdge, ...]
    unreachable: tuple[str, ...] = ()
    # Computed once, when the catalog is made: the stable hash of the structure (not the data) and the graph.
    fingerprint: str = field(init=False, repr=False, compare=False)
    depths: dict[str, int] = field(init=False, repr=False, compare=False)
    hops: dict[str, tuple[Hop, ...]] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, TableSchema] = field(init=False, repr=False, compare=False)

    def table(self, name: str) -> TableSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def __post_init__(self) -> None:
        doc = {
            "target": f"{self.target_table}.{self.target_attribute}",
            "tables": [
                {
                    "name": t.name,
                    "columns": [
                        {"name": c.name, "kind": c.kind, "ref": [c.ref_table, c.ref_column] if c.ref_table else None}
                        for c in t.columns
                    ],
                }
                for t in self.tables
            ],
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        object.__setattr__(self, "fingerprint", hashlib.sha256(blob).hexdigest())
        object.__setattr__(self, "depths", _fk_depths(self.target_table, self.fk_edges))
        # Per edge in declaration order, the hop out of the foreign-key side, then the one out of the primary-key side.
        hops: dict[str, list[Hop]] = {t.name: [] for t in self.tables}
        for e in self.fk_edges:
            hops[e.fk_table].append(Hop(e.fk_table, e.fk_column, e.pk_table, e.pk_column, e.fk_column, many_to_one=True))
            hops[e.pk_table].append(Hop(e.pk_table, e.pk_column, e.fk_table, e.fk_column, e.fk_column, many_to_one=False))
        object.__setattr__(self, "hops", {name: tuple(hs) for name, hs in hops.items()})
        object.__setattr__(self, "_by_name", {t.name: t for t in self.tables})


def _parse_column(table: str, name, type_str) -> ColumnSpec:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SchemaError(f"table {table}: bad column name {name!r}")
    if not isinstance(type_str, str):
        raise SchemaError(f"table {table} column {name}: bad type {type_str!r}")
    t = type_str.strip()
    if t in _TYPE_ALIASES:
        return ColumnSpec(name=name, kind=_TYPE_ALIASES[t])
    m = _FK_RE.match(t)
    if m:
        return ColumnSpec(name=name, kind=KIND_FOREIGN_KEY, ref_table=m.group(1), ref_column=m.group(2))
    raise SchemaError(f"table {table} column {name}: unknown type {type_str!r}")


def _parse_columns(table: str, raw) -> list[ColumnSpec]:
    cols: list[ColumnSpec] = []
    if isinstance(raw, dict):
        items = list(raw.items())
    elif isinstance(raw, list):
        items = []
        for entry in raw:
            if isinstance(entry, dict) and len(entry) == 1:
                items.append(next(iter(entry.items())))
            elif isinstance(entry, str) and ":" in entry:
                n, _, t = entry.partition(":")
                items.append((n.strip(), t.strip()))
            else:
                raise SchemaError(f"table {table}: bad column entry {entry!r}")
    else:
        raise SchemaError(f"table {table}: columns must be a list or mapping")
    for name, type_str in items:
        cols.append(_parse_column(table, name, type_str))
    return cols


def catalog_from_dict(doc, source: str = "<schema>") -> SchemaCatalog:
    """Validate a parsed schema document and build the catalog."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: schema document must be a mapping")
    target = doc.get("target")
    if not isinstance(target, str) or target.count(".") != 1:
        raise SchemaError(f"{source}: 'target' must be 'Table.Column'")
    target_table, target_attribute = target.split(".")

    raw_tables = doc.get("tables")
    if not isinstance(raw_tables, list) or not raw_tables:
        raise SchemaError(f"{source}: 'tables' must be a non-empty list")

    tables: list[TableSchema] = []
    for entry in raw_tables:
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{source}: each table needs a 'name'")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise SchemaError(f"{source}: bad table name {name!r}")
        cols = _parse_columns(name, entry.get("columns", []))
        tables.append(TableSchema(name=name, columns=tuple(cols), source_file=str(entry.get("file", f"{name.lower()}.csv"))))

    by_name: dict[str, TableSchema] = {}
    for t in tables:
        if t.name in by_name:
            raise SchemaError(f"duplicate table name {t.name!r}")
        by_name[t.name] = t

    for t in tables:
        seen = set()
        for c in t.columns:
            if c.name in seen:
                raise SchemaError(f"table {t.name}: duplicate column {c.name!r}")
            seen.add(c.name)
        pks = [c for c in t.columns if c.kind == KIND_PRIMARY_KEY]
        if len(pks) != 1:
            raise SchemaError(f"table {t.name}: expected exactly one primary key, found {len(pks)}")

    # FK targets must be existing primary keys (single-column keys only).
    edges: list[FkEdge] = []
    for t in tables:
        for c in t.columns:
            if c.kind != KIND_FOREIGN_KEY:
                continue
            ref = by_name.get(c.ref_table)
            if ref is None:
                raise SchemaError(f"foreign key {t.name}.{c.name} references unknown table {c.ref_table!r}")
            ref_col = next((rc for rc in ref.columns if rc.name == c.ref_column), None)
            if ref_col is None:
                raise SchemaError(f"foreign key {t.name}.{c.name} references unknown column {c.ref_table}.{c.ref_column}")
            if ref_col.kind != KIND_PRIMARY_KEY:
                raise SchemaError(
                    f"foreign key {t.name}.{c.name} must reference a primary key, "
                    f"but {c.ref_table}.{c.ref_column} is {ref_col.kind}"
                )
            edges.append(FkEdge(fk_table=t.name, fk_column=c.name, pk_table=c.ref_table, pk_column=c.ref_column))

    if target_table not in by_name:
        raise SchemaError(f"target table {target_table!r} does not exist")
    tcol = next((c for c in by_name[target_table].columns if c.name == target_attribute), None)
    if tcol is None:
        raise SchemaError(f"target attribute {target_table}.{target_attribute} does not exist")
    if tcol.kind != KIND_CATEGORICAL:
        raise SchemaError(f"target attribute {target_table}.{target_attribute} must be categorical, is {tcol.kind}")

    # Drop tables unreachable from the target (they can contribute no features).
    reachable = _fk_depths(target_table, edges)
    unreachable = tuple(t.name for t in tables if t.name not in reachable)
    if unreachable:
        logger.warning("%s: ignoring tables unreachable from %s: %s", source, target_table, ", ".join(unreachable))
        tables = [t for t in tables if t.name in reachable]
        edges = [e for e in edges if e.fk_table in reachable and e.pk_table in reachable]

    return SchemaCatalog(
        tables=tuple(tables),
        target_table=target_table,
        target_attribute=target_attribute,
        fk_edges=tuple(edges),
        unreachable=unreachable,
    )


def load_schema(path) -> SchemaCatalog:
    """Load and validate a schema description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read schema file {path}: not UTF-8 text: {exc.reason}") from None
    except yaml.YAMLError as exc:
        raise SchemaError(f"cannot parse schema file {path}: {_yaml_problem(exc)}") from exc
    return catalog_from_dict(doc, source=str(path))


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line for a YAML error: where it was found and what is wrong."""
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is None or problem is None:
        return " ".join(str(exc).split())
    return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"


def _fk_depths(start: str, edges) -> dict[str, int]:
    """Shortest-hop distance from ``start`` of every table the foreign-key ``edges`` connect it to, itself 0."""
    adj: dict[str, set[str]] = {}
    for e in edges:
        adj.setdefault(e.fk_table, set()).add(e.pk_table)
        adj.setdefault(e.pk_table, set()).add(e.fk_table)
    depths = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in sorted(adj.get(cur, ())):
            if nxt not in depths:
                depths[nxt] = depths[cur] + 1
                queue.append(nxt)
    return depths


def table_depths(catalog: SchemaCatalog) -> dict[str, int]:
    """Shortest-hop distance of every reachable table from the target table."""
    return catalog.depths


def neighbors(catalog: SchemaCatalog, table: str) -> tuple[Hop, ...]:
    """Every hop out of ``table`` along a foreign key of the schema, in either direction.

    An edge between the same table pair on different column pairs yields
    distinct hops; a self-referencing edge yields both of its directions.
    """
    catalog.table(table)  # raises on unknown table
    return catalog.hops[table]


def is_associative(catalog: SchemaCatalog, table: str) -> bool:
    """True for pure link tables: only key columns, at least two foreign keys."""
    ts = catalog.table(table)
    if any(not c.is_key for c in ts.columns):
        return False
    return len(ts.foreign_keys) >= 2


def fingerprint(catalog: SchemaCatalog) -> str:
    """Stable hash of the schema structure (not the data)."""
    return catalog.fingerprint
