"""Forward-only join paths and their cached per-instance instantiations.

A path starts at the target table and moves to strictly deeper tables, so it
never revisits one: depth rises at every hop, associative ones included.
Reaching an associative link table immediately continues through its
remaining neighbors (lookahead); a path never terminates at an associative
table.  An instantiation stores, for each target instance, the bag of
terminal-table row ids it reaches, with multiplicities (bag semantics,
matching an SQL join without DISTINCT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import Hop, SchemaCatalog, is_associative, neighbors, table_depths
from .storage import CategoricalColumn, Database, KeyColumn, NumericColumn


class computed_once:
    """A read-only attribute computed on its first read and then stored on the instance.

    The package's one compute-once mechanism.  ``functools.cached_property``
    is not used: it takes a lock on every first read up to Python 3.11,
    which costs more than most values cached with this, and it stores
    through ``obj.__dict__``, which stops the instance dict sharing its keys
    and slows every later attribute read of that object.  Being a descriptor
    without ``__set__``, this works on frozen dataclasses too, and the
    stored value shadows it on later reads.
    """

    def __init__(self, compute) -> None:
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.compute(obj)
        object.__setattr__(obj, self.name, value)  # not through obj.__dict__, which would stop it sharing keys
        return value


@dataclass(frozen=True)
class JoinPath:
    """A path from the target table ``start`` along ``hops``.

    Paths key the frontier maps, ``used`` sets and layouts of growth and are
    sorted by :meth:`sort_key` wherever paths or descriptors are ordered, so
    the hash (the dataclass's own) is computed once, when the path is made,
    and the rendering and the sort key once, on first use.  The rendering is
    always stored before the sort key, so every path's attributes are added
    in one order and its instance dict keeps sharing its keys.  A hash is
    only valid in the process that computed it; paths are never pickled.
    """

    start: str
    hops: tuple[Hop, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.start, self.hops)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def determinate(self) -> bool:
        """True when every hop is many-to-one, so each instance reaches one terminal row at most."""
        return all(h.many_to_one for h in self.hops)

    @property
    def terminal_table(self) -> str:
        return self.hops[-1].to_table if self.hops else self.start

    @property
    def is_root(self) -> bool:
        return not self.hops

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.start,) + tuple(h.to_table for h in self.hops)

    def extended(self, hop: Hop) -> "JoinPath":
        if hop.from_table != self.terminal_table:
            raise ValueError(f"hop from {hop.from_table} does not start at terminal {self.terminal_table}")
        return JoinPath(self.start, self.hops + (hop,))

    def prefix(self, n: int) -> "JoinPath":
        return JoinPath(self.start, self.hops[:n])

    def render(self) -> str:
        return self._rendered

    def sort_key(self):
        return self._sort_key

    @computed_once
    def _rendered(self) -> str:
        return self.start + "".join(f"->{h.to_table}({h.label})" for h in self.hops)

    @computed_once
    def _sort_key(self):
        return (self._rendered, tuple((h.from_table, h.from_column, h.to_table, h.to_column) for h in self.hops))


def empty_path(catalog: SchemaCatalog) -> JoinPath:
    return JoinPath(start=catalog.target_table)


def _walk(catalog: SchemaCatalog, depths: dict[str, int], path: JoinPath) -> list[JoinPath]:
    """One-step extensions of ``path``, continued through associative tables until each ends on a data table."""
    terminal = path.terminal_table
    out: list[JoinPath] = []
    for hop in neighbors(catalog, terminal):
        if depths[hop.to_table] <= depths[terminal]:
            continue
        ext = path.extended(hop)
        out.extend(_walk(catalog, depths, ext) if is_associative(catalog, hop.to_table) else [ext])
    return out


def initial_paths(catalog: SchemaCatalog) -> list[JoinPath]:
    """Length-1 paths from the target table, with associative lookahead applied."""
    return candidate_extensions(catalog, empty_path(catalog))


def candidate_extensions(catalog: SchemaCatalog, path: JoinPath) -> list[JoinPath]:
    """One-step extensions of ``path``: its strictly deeper neighbors."""
    return sorted(_walk(catalog, table_depths(catalog), path), key=JoinPath.sort_key)


def _gather(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the segments ``source[starts[i]:starts[i] + lengths[i]]``.

    Returns ``(offsets, rows)``: segment ``i`` is ``rows[offsets[i]:offsets[i+1]]``.
    """
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    total = int(offsets[-1])
    if not total:
        return offsets, np.empty(0, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths) + np.repeat(starts, lengths)
    return offsets, source[idx]


@dataclass(eq=False)
class JoinInstantiation:
    """Per-instance bags of terminal row ids, stored flat.

    ``instance_ids`` are target-table row ids; instance ``i``'s bag is
    ``rows[offsets[i]:offsets[i+1]]``.  Joins and aggregates work by position,
    so only :meth:`restrict` needs the ids ascending.
    """

    path: JoinPath
    instance_ids: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray

    @property
    def n_instances(self) -> int:
        return len(self.instance_ids)

    def bag_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def bag(self, i: int) -> np.ndarray:
        return self.rows[self.offsets[i]:self.offsets[i + 1]]

    def restrict(self, instance_ids) -> "JoinInstantiation":
        """A copy of this instantiation over ``instance_ids``, ascending ids among its own: new arrays, not views."""
        ids = np.asarray(instance_ids, dtype=np.int64)
        pos = np.searchsorted(self.instance_ids, ids)
        if (pos >= len(self.instance_ids)).any() or not np.array_equal(self.instance_ids[pos], ids):
            raise ValueError("restrict: ids are not a subset of the instantiation's instances")
        starts = self.offsets[pos]
        new_offsets, new_rows = _gather(self.rows, starts, self.offsets[pos + 1] - starts)
        return JoinInstantiation(path=self.path, instance_ids=ids, offsets=new_offsets, rows=new_rows)


def root_instantiation(db: Database, instance_ids=None) -> JoinInstantiation:
    """Identity instantiation: each target instance maps to the singleton bag of itself.

    The instances are ``instance_ids`` in the order given (every target-table
    row when None), and the instantiation's arrays may share the caller's
    array.  :meth:`JoinInstantiation.restrict` needs them ascending, so
    training passes ascending ids; prediction, which never restricts, passes
    its request's ids as they come.
    """
    if instance_ids is None:
        ids = np.arange(db.tables[db.catalog.target_table].n_rows, dtype=np.int64)
    else:
        ids = np.asarray(instance_ids, dtype=np.int64)
    # Positional arguments: prediction makes one of these per request, and keywords cost more.
    return JoinInstantiation(empty_path(db.catalog), ids, np.arange(len(ids) + 1, dtype=np.int64), ids)


def join_hop(db: Database, inst: JoinInstantiation, path: JoinPath) -> JoinInstantiation:
    """Extend every bag of ``inst`` by the last hop of ``path``, the path of ``inst`` with that hop added.

    Only the new hop's joins are computed.  The caller passes the extended
    path, so prediction, which knows its paths, makes none.
    """
    hop = path.hops[-1]
    if inst.path.terminal_table != hop.from_table:
        raise ValueError(f"instantiation terminal {inst.path.terminal_table} != hop source {hop.from_table}")
    col = db.tables[hop.from_table].columns[hop.from_column]
    if not isinstance(col, KeyColumn):
        raise ValueError(f"{hop.from_table}.{hop.from_column} is not a key column")
    index = db.indexes[(hop.to_table, hop.to_column)]

    codes = col.codes[inst.rows]
    starts = index.starts[codes]
    cum, new_rows = _gather(index.rows, starts, index.starts[codes + 1] - starts)
    new_offsets = cum[inst.offsets]
    return JoinInstantiation(path=path, instance_ids=inst.instance_ids, offsets=new_offsets, rows=new_rows)


def extend_instantiation(db: Database, inst: JoinInstantiation, hop: Hop) -> JoinInstantiation:
    """Extend every bag by one hop, as feature construction does.

    Each source terminal row costs one indexed lookup, which is recorded in
    ``db.stats`` under the extended path's length.
    """
    out = join_hop(db, inst, inst.path.extended(hop))
    db.stats.count_lookups(len(out.path.hops), len(inst.rows))
    return out


@dataclass(eq=False)
class ValueBags:
    """Per-instance multisets of one terminal attribute, missing marked separately."""

    offsets: np.ndarray
    kind: str  # "numeric" | "categorical"
    values: np.ndarray  # float64 values or int64 codes
    missing: np.ndarray
    dictionary: tuple[str, ...] | None = None


def project_values(db: Database, inst: JoinInstantiation, attribute: str) -> ValueBags:
    """The multiset of attribute values over each instance's bag.

    Source missing values are included as explicit missing markers.
    """
    col = db.tables[inst.path.terminal_table].columns[attribute]
    if isinstance(col, KeyColumn):
        raise ValueError(f"{inst.path.terminal_table}.{attribute} is a key column, not an attribute")
    if isinstance(col, NumericColumn):
        return ValueBags(offsets=inst.offsets, kind="numeric", values=col.values[inst.rows], missing=col.missing[inst.rows])
    assert isinstance(col, CategoricalColumn)
    return ValueBags(
        offsets=inst.offsets,
        kind="categorical",
        values=col.codes[inst.rows],
        missing=col.missing[inst.rows],
        dictionary=col.dictionary,
    )


def instantiate(db: Database, path: JoinPath, cache: dict[JoinPath, JoinInstantiation]) -> JoinInstantiation:
    """Instantiation for ``path``, reusing the longest cached prefix.

    ``cache`` must hold a prefix of ``path``, if only the empty path; every
    prefix built along the way is cached too, so sibling extensions share
    work.
    """
    if path in cache:
        return cache[path]
    n = len(path.hops)
    i = n - 1
    while i > 0 and path.prefix(i) not in cache:
        i -= 1
    inst = cache[path.prefix(i)]
    for j in range(i, n):
        inst = extend_instantiation(db, inst, path.hops[j])
        cache[inst.path] = inst
    return inst
