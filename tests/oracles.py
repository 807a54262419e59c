"""Independent reference implementations used to cross-check the engine.

Everything here works on plain Python loops: nested-loop joins over raw row
dictionaries, naive aggregation via the statistics module, scalar aggregates
of one multiset, recursive path enumeration, a brute-force split evaluator,
a row-at-a-time database builder and a row-at-a-time router.  Only the router
reads the package's loaded database, one cell at a time, and only the builder
builds one (with the package's key index); none of it uses the vectorized
code paths.  The exceptions are ``per_column_best_split``, the split search
that the engine's one-pass search replaced, and its ``_score_column``, which
scores both undefined routings of every candidate, kept for differential
tests, and ``stratified_folds``, the index-at-a-time deal that the engine's
fold assignment replaced.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

import numpy as np

from reltree.features import BOOLEAN, NUMERIC, Agg
from reltree.schema import KIND_CATEGORICAL, KIND_FOREIGN_KEY, KIND_NUMERIC, KIND_PRIMARY_KEY
from reltree.storage import (
    CategoricalColumn,
    Database,
    DataError,
    KeyColumn,
    KeyDomain,
    KeyIndex,
    LoadOptions,
    NumericColumn,
    TableData,
)
from reltree.tree import SplitTest
from reltree.tree import entropy as tree_entropy

MISSING_TOKENS = ("", "?")


def is_missing(value) -> bool:
    return value is None or (isinstance(value, str) and value in MISSING_TOKENS)


# ---------------------------------------------------------------------------
# Schema-document helpers (operating on the YAML-shaped dict directly).


def doc_tables(doc):
    return {t["name"]: t for t in doc["tables"]}


def doc_columns(table_entry):
    out = []
    for c in table_entry["columns"]:
        name, type_str = next(iter(c.items()))
        out.append((name, type_str))
    return out


def column_type(doc, table, column):
    for name, type_str in doc_columns(doc_tables(doc)[table]):
        if name == column:
            return type_str
    raise KeyError(f"{table}.{column}")


def primary_key(doc, table):
    for name, type_str in doc_columns(doc_tables(doc)[table]):
        if type_str == "pk":
            return name
    raise KeyError(table)


def fk_edges(doc):
    edges = []
    for t in doc["tables"]:
        for name, type_str in doc_columns(t):
            if type_str.startswith("fk("):
                ref = type_str[3:-1]
                rt, rc = ref.split(".")
                edges.append((t["name"], name, rt, rc))
    return edges


def is_associative(doc, table):
    fks = 0
    for name, type_str in doc_columns(doc_tables(doc)[table]):
        if type_str.startswith("fk("):
            fks += 1
        elif type_str not in ("pk",):
            return False
    return fks >= 2


def depths(doc):
    target = doc["target"].split(".")[0]
    adj = {t["name"]: set() for t in doc["tables"]}
    for ft, _, pt, _ in fk_edges(doc):
        adj[ft].add(pt)
        adj[pt].add(ft)
    d = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for t in frontier:
            for nb in adj[t]:
                if nb not in d:
                    d[nb] = d[t] + 1
                    nxt.append(nb)
        frontier = nxt
    return d


def neighbors(doc, table):
    """(own column, neighbor, neighbor column, fk label) per incident edge."""
    out = []
    for ft, fc, pt, pc in fk_edges(doc):
        if ft == table:
            out.append((fc, pt, pc, fc))
        if pt == table:
            out.append((pc, ft, fc, fc))
    return out


# ---------------------------------------------------------------------------
# Path enumeration by direct recursive search.


def dfs_paths(doc, max_len):
    """All forward-only paths as hop tuples (from, from_col, to, to_col, label).

    Mirrors the documented rules independently: strict depth increase, no
    repeated table, associative terminals continued until a data table,
    initial paths (all intermediates associative) kept regardless of the
    bound, extensions kept only while their full hop length fits.
    """
    target = doc["target"].split(".")[0]
    d = depths(doc)

    def closed(visited, hops):
        term = hops[-1][2]
        if not is_associative(doc, term):
            return [tuple(hops)]
        out = []
        for col, nb, nbcol, label in neighbors(doc, term):
            if nb in visited or d.get(nb, -1) <= d[term]:
                continue
            out.extend(closed(visited | {nb}, hops + [(term, col, nb, nbcol, label)]))
        return out

    def is_initial(hops):
        return all(is_associative(doc, h[2]) for h in hops[:-1])

    results = set()

    def grow(visited, hops):
        term = hops[-1][2] if hops else target
        for col, nb, nbcol, label in neighbors(doc, term):
            if nb in visited or d.get(nb, -1) <= d[term]:
                continue
            for full in closed(visited | {nb}, list(hops) + [(term, col, nb, nbcol, label)]):
                if max_len is not None and len(full) > max_len and not is_initial(full):
                    continue
                if full not in results:
                    results.add(full)
                    grow(set(v for h in full for v in (h[0], h[2])) | {target}, list(full))

    grow({target}, [])
    return results


def render_path(target, hops):
    return target + "".join(f"->{h[2]}({h[4]})" for h in hops)


def path_is_determinate(doc, hops):
    for _, _, to_table, to_col, _ in hops:
        if to_col != primary_key(doc, to_table):
            return False
    return True


# ---------------------------------------------------------------------------
# Nested-loop joins over raw rows.


def kept_rows(doc, tables):
    """Rows surviving load: any missing key cell rejects the row."""
    out = {}
    for t in doc["tables"]:
        name = t["name"]
        keys = [c for c, ts in doc_columns(t) if ts == "pk" or ts.startswith("fk(")]
        out[name] = [r for r in tables[name] if not any(is_missing(r.get(k)) for k in keys)]
    return out


def path_bags(doc, kept, hops):
    """Per target row (in kept order), the bag of terminal rows as a list."""
    target = doc["target"].split(".")[0]
    bags = [[r] for r in kept[target]]
    for from_table, from_col, to_table, to_col, _ in hops:
        new_bags = []
        for bag in bags:
            nb = []
            for row in bag:
                key = str(row[from_col])
                for cand in kept[to_table]:
                    if str(cand[to_col]) == key:
                        nb.append(cand)
            new_bags.append(nb)
        bags = new_bags
    return bags


# ---------------------------------------------------------------------------
# Naive aggregation.


def naive_numeric(values):
    """dict of the numeric aggregate family; None marks undefined cells."""
    n = len(values)
    out = {k: None for k in ("avg", "std", "var", "max", "min", "sum", "count")}
    if n == 0:
        return out
    present = [float(v) for v in values if v is not None]
    out["count"] = float(n)
    if not present:
        return out
    out["avg"] = statistics.fmean(present)
    out["var"] = statistics.pvariance(present)
    out["std"] = math.sqrt(out["var"])
    out["max"] = max(present)
    out["min"] = min(present)
    out["sum"] = math.fsum(present)
    return out


def naive_categorical(values, domain):
    n = len(values)
    present = [v for v in values if v is not None]
    out = {"count": None, "distinct_count": None, "contains": {v: None for v in domain}}
    if n == 0:
        return out
    out["count"] = float(n)
    out["distinct_count"] = float(len(set(present)))
    if present:
        got = set(present)
        out["contains"] = {v: (v in got) for v in domain}
    return out


@dataclass(frozen=True)
class NumericAggregates:
    avg: float | None
    std: float | None
    var: float | None
    max: float | None
    min: float | None
    sum: float | None
    count: int | None


@dataclass(frozen=True)
class CategoricalAggregates:
    count: int | None
    distinct_count: int | None
    contains: dict[str, bool | None] | None


def aggregate_numeric(values) -> NumericAggregates:
    """Numeric aggregate family over one multiset; None fields are undefined.

    Sums run sequentially in multiset order, the order the engine's
    bincount-based sums add in.
    """
    vals = list(values)
    n = len(vals)
    if n == 0:
        return NumericAggregates(None, None, None, None, None, None, None)
    present = [float(v) for v in vals if v is not None]
    if not present:
        return NumericAggregates(None, None, None, None, None, None, n)
    k = len(present)
    total = 0.0
    for x in present:
        total += x
    avg = total / k
    squares = 0.0
    for x in present:
        d = x - avg
        squares += d * d
    var = max(squares / k, 0.0)  # population variance
    return NumericAggregates(
        avg=avg,
        std=math.sqrt(var),
        var=var,
        max=max(present),
        min=min(present),
        sum=total,
        count=n,
    )


def aggregate_categorical(values, domain, emit_contains: bool) -> CategoricalAggregates:
    """Categorical aggregate family over one multiset.

    ``domain`` is the attribute's full base-table dictionary; contains cells
    are produced for every domain value when ``emit_contains`` is set.
    """
    vals = list(values)
    dom = list(domain)
    n = len(vals)
    if n == 0:
        contains = {v: None for v in dom} if emit_contains else None
        return CategoricalAggregates(None, None, contains)
    present = {v for v in vals if v is not None}
    if emit_contains:
        contains = {v: (v in present) if present else None for v in dom}
    else:
        contains = None
    return CategoricalAggregates(count=n, distinct_count=len(present), contains=contains)


def base_domain(kept, table, column):
    """Distinct non-missing values of a column, in first-appearance order."""
    seen = []
    got = set()
    for row in kept[table]:
        v = row.get(column)
        if is_missing(v):
            continue
        s = str(v)
        if s not in got:
            got.add(s)
            seen.append(s)
    return seen


def flat_cells(doc, tables, max_path_len, domsize_abs=40, domsize_rel=0.2):
    """Brute-force flat table: feature name -> list of cells (None undefined).

    Cells are floats for numeric aggregates, bools for flags and contains,
    and strings for identity over categorical attributes.
    """
    target, target_attr = doc["target"].split(".")
    kept = kept_rows(doc, tables)
    by_name = doc_tables(doc)
    cells: dict[str, list] = {}

    def attr_columns(table):
        out = []
        for name, type_str in doc_columns(by_name[table]):
            if type_str in ("num", "cat"):
                out.append((name, type_str))
        return out

    # root identity features over retained target attributes
    for attr, type_str in attr_columns(target):
        if attr == target_attr:
            continue
        col = []
        for row in kept[target]:
            v = row.get(attr)
            if is_missing(v):
                col.append(None)
            else:
                col.append(float(v) if type_str == "num" else str(v))
        cells[f"{target}.{attr}:identity"] = col

    for hops in dfs_paths(doc, max_path_len):
        render = render_path(target, hops)
        terminal = hops[-1][2]
        bags = path_bags(doc, kept, hops)
        if path_is_determinate(doc, hops):
            for attr, type_str in attr_columns(terminal):
                col = []
                for bag in bags:
                    assert len(bag) <= 1
                    if len(bag) == 1 and not is_missing(bag[0].get(attr)):
                        v = bag[0][attr]
                        col.append(float(v) if type_str == "num" else str(v))
                    else:
                        col.append(None)
                cells[f"{render}.{attr}:identity"] = col
            continue
        cells[f"{render}.:is_empty"] = [len(bag) == 0 for bag in bags]
        for attr, type_str in attr_columns(terminal):
            per_bag = [
                [None if is_missing(r.get(attr)) else (float(r[attr]) if type_str == "num" else str(r[attr])) for r in bag]
                for bag in bags
            ]
            if type_str == "num":
                aggs = [naive_numeric(vals) for vals in per_bag]
                for key in ("avg", "std", "var", "max", "min", "sum", "count"):
                    cells[f"{render}.{attr}:{key}"] = [a[key] for a in aggs]
            else:
                domain = base_domain(kept, terminal, attr)
                emit = len(domain) < domsize_abs and len(domain) < domsize_rel * len(kept[terminal])
                aggs = [naive_categorical(vals, domain) for vals in per_bag]
                cells[f"{render}.{attr}:count"] = [a["count"] for a in aggs]
                cells[f"{render}.{attr}:distinct_count"] = [a["distinct_count"] for a in aggs]
                if emit:
                    for v in domain:
                        cells[f"{render}.{attr}:contains={v}"] = [a["contains"][v] for a in aggs]
    return cells


# ---------------------------------------------------------------------------
# Exhaustive split search.


def entropy(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    out = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            out -= p * math.log2(p)
    return out


def _ig(left_labels, right_labels, all_labels, classes):
    n = len(all_labels)
    h = entropy([all_labels.count(c) for c in classes])
    hl = entropy([left_labels.count(c) for c in classes])
    hr = entropy([right_labels.count(c) for c in classes])
    return h - (len(left_labels) * hl + len(right_labels) * hr) / n


def exhaustive_split(columns, labels):
    """Best test over oracle columns by direct evaluation of every candidate.

    ``columns`` is a list of (name, kind, cells, dictionary) where cells use
    None for undefined.  Returns (best_ig, best_key, gains) with gains mapping
    every candidate key (name, kind, param, route) to its gain; candidates
    with an empty side are omitted.  Ties resolve to the earlier column, then
    the smaller threshold / value code, then the fail route.
    """
    classes = sorted(set(labels))
    n = len(labels)
    gains = {}
    best = None
    best_key = None
    for name, kind, cells, dictionary in columns:
        defined = [i for i in range(n) if cells[i] is not None]
        undef = [i for i in range(n) if cells[i] is None]
        candidates = []
        if kind == "numeric":
            vals = sorted({cells[i] for i in defined})
            for lo, hi in zip(vals, vals[1:]):
                thr = (lo + hi) / 2.0
                if not thr < hi:  # rounded up onto hi, or NaN between -inf and inf
                    thr = lo
                candidates.append(("numeric_le", thr, lambda v, t=thr: v <= t))
        elif kind == "boolean":
            candidates.append(("boolean_true", None, lambda v: bool(v)))
        else:
            present = sorted({cells[i] for i in defined}, key=lambda s: dictionary.index(s))
            for value in present:
                candidates.append(("categorical_eq", value, lambda v, x=value: v == x))
        for kind_name, param, fn in candidates:
            passes = [i for i in defined if fn(cells[i])]
            fails = [i for i in defined if not fn(cells[i])]
            options = []
            for route in ("fail", "pass"):
                left = passes + undef if route == "pass" else passes
                right = fails + undef if route == "fail" else fails
                if not left or not right:
                    continue
                ig = _ig([labels[i] for i in left], [labels[i] for i in right], list(labels), classes)
                gains[(name, kind_name, param, route)] = ig
                options.append((ig, route))
            if not options:
                continue
            ig, route = options[0]
            for ig2, route2 in options[1:]:
                if ig2 > ig:  # strict: ties keep the fail routing listed first
                    ig, route = ig2, route2
            if best is None or ig > best:  # strict: ties keep the earlier candidate
                best = ig
                best_key = (name, kind_name, param, route)
    return best, best_key, gains


# ---------------------------------------------------------------------------
# Per-column split search: the engine's split search before it scored all of
# a node's candidates in one pass.  It scores one column at a time and keeps a
# column's best test only when it beats every earlier column's strictly.


def _entropy_rows(counts):
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -(p * logs).sum(axis=1)


def _score_column(pass_counts, fail_counts, undef_counts, n, h_parent):
    """(ig, route_is_pass) of count rows, both undefined routings scored on every row: four entropy passes.

    ``undef_counts`` is one column's undefined counts (a vector shared by its
    rows) or one row of undefined counts per candidate.
    """
    undef = np.atleast_2d(undef_counts).astype(np.float64)

    def ig_of(left, right):
        nl = left.sum(axis=1)
        nr = right.sum(axis=1)
        h = h_parent - (nl * _entropy_rows(left) + nr * _entropy_rows(right)) / n
        return np.where((nl > 0) & (nr > 0), h, -np.inf)

    pc = pass_counts.astype(np.float64)
    fc = fail_counts.astype(np.float64)
    ig_fail = ig_of(pc, fc + undef)
    ig_pass = ig_of(pc + undef, fc)
    route_is_pass = ig_pass > ig_fail  # ties routed to fail
    return np.where(route_is_pass, ig_pass, ig_fail), route_is_pass


def _best_on_column(col, labels, n_classes, n, h_parent):
    defined = col.defined
    undef_counts = np.bincount(labels[~defined], minlength=n_classes)
    d_idx = np.nonzero(defined)[0]
    if d_idx.size == 0:
        return None
    d_labels = labels[d_idx]
    total_def = np.bincount(d_labels, minlength=n_classes)

    if col.kind == NUMERIC:
        vals = col.values[d_idx]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sl = d_labels[order]
        boundaries = np.nonzero(sv[1:] != sv[:-1])[0]
        if boundaries.size == 0:
            return None
        onehot = np.zeros((len(sl), n_classes), dtype=np.int64)
        onehot[np.arange(len(sl)), sl] = 1
        cum = np.cumsum(onehot, axis=0)
        pass_counts = cum[boundaries]
        fail_counts = total_def[None, :] - pass_counts
        with np.errstate(over="ignore", invalid="ignore"):
            thresholds = (sv[boundaries] + sv[boundaries + 1]) / 2.0
        rounded_up = ~(thresholds < sv[boundaries + 1])  # or NaN between -inf and inf
        thresholds[rounded_up] = sv[boundaries][rounded_up]
        ig, route_pass = _score_column(pass_counts, fail_counts, undef_counts, n, h_parent)
        i = int(np.argmax(ig))
        if not np.isfinite(ig[i]):
            return None
        route = "pass" if route_pass[i] else "fail"
        return float(ig[i]), SplitTest(col.descriptor, "numeric_le", threshold=float(thresholds[i]), undefined_route=route)

    if col.kind == BOOLEAN:
        truthy = col.values.astype(bool)[d_idx]
        pass_counts = np.bincount(d_labels[truthy], minlength=n_classes)[None, :]
        fail_counts = total_def[None, :] - pass_counts
        ig, route_pass = _score_column(pass_counts, fail_counts, undef_counts, n, h_parent)
        if not np.isfinite(ig[0]):
            return None
        return float(ig[0]), SplitTest(col.descriptor, "boolean_true", undefined_route="pass" if route_pass[0] else "fail")

    codes = col.values[d_idx].astype(np.int64)
    k = len(col.dictionary or ())
    if k == 0:
        return None
    present = np.unique(codes)
    counts_by_code = np.bincount(codes * n_classes + d_labels, minlength=k * n_classes).reshape(k, n_classes)
    pass_counts = counts_by_code[present]
    fail_counts = total_def[None, :] - pass_counts
    ig, route_pass = _score_column(pass_counts, fail_counts, undef_counts, n, h_parent)
    i = int(np.argmax(ig))
    if not np.isfinite(ig[i]):
        return None
    code = int(present[i])
    route = "pass" if route_pass[i] else "fail"
    return float(ig[i]), SplitTest(
        col.descriptor, "categorical_eq", value=col.dictionary[code], value_code=code, undefined_route=route
    )


def per_column_best_split(ldt):
    """(SplitTest, gain) of the best test over ``ldt``'s columns, or None, one column at a time."""
    n = len(ldt)
    parent = np.bincount(ldt.labels, minlength=ldt.n_classes)
    h_parent = tree_entropy(parent)
    best = None
    for col in sorted(ldt.columns, key=lambda c: c.descriptor.sort_key()):
        found = _best_on_column(col, ldt.labels, ldt.n_classes, n, h_parent)
        if found is not None and (best is None or found[0] > best[0]):
            best = found
    return None if best is None else (best[1], best[0])


# ---------------------------------------------------------------------------
# Random micro database generator (schema document + raw rows).


def random_micro_db(seed):
    """Small random relational database for oracle comparisons.

    Up to 6 tables linked into a connected FK graph (occasionally with an
    extra edge or a keys-only link table), small attribute sets, some missing
    values and some dangling references.
    """
    rnd = random.Random(seed)
    n_tables = rnd.randint(2, 6)
    names = [f"T{i}" for i in range(n_tables)]

    columns = {name: [(f"{name.lower()}_id", "pk")] for name in names}
    # spanning links keep everything reachable from T0
    for i in range(1, n_tables):
        parent = names[rnd.randrange(i)]
        columns[names[i]].append((f"fk_{parent.lower()}", f"fk({parent}.{parent.lower()}_id)"))
    # occasionally a second link (possible associative table / extra edge)
    for i in range(1, n_tables):
        if rnd.random() < 0.35:
            other = names[rnd.randrange(n_tables)]
            if other != names[i] and not any(c[0] == f"fk2_{other.lower()}" for c in columns[names[i]]):
                columns[names[i]].append((f"fk2_{other.lower()}", f"fk({other}.{other.lower()}_id)"))

    # attributes; tables with 2+ fks sometimes stay keys-only (associative)
    for name in names:
        n_fks = sum(1 for _, t in columns[name] if t.startswith("fk("))
        if n_fks >= 2 and rnd.random() < 0.6:
            continue
        for a in range(rnd.randint(0, 2)):
            kind = rnd.choice(["num", "cat"])
            columns[name].append((f"{'x' if kind == 'num' else 'c'}{a}", kind))
    columns[names[0]].append(("label", "cat"))

    doc = {
        "target": f"{names[0]}.label",
        "tables": [
            {"name": name, "file": f"{name.lower()}.csv", "columns": [{c: t} for c, t in columns[name]]}
            for name in names
        ],
    }

    n_rows = {name: rnd.randint(0, 33) for name in names}
    n_rows[names[0]] = rnd.randint(3, 33)
    tables = {}
    for name in names:
        rows = []
        pool = max(3, n_rows[name])
        for i in range(n_rows[name]):
            row = {}
            for col, type_str in columns[name]:
                if type_str == "pk":
                    row[col] = f"{name.lower()}k{i}"
                elif type_str.startswith("fk("):
                    ref = type_str[3:-1].split(".")[0]
                    if rnd.random() < 0.05:
                        row[col] = rnd.choice(["", "?"])  # missing key -> row rejected
                    else:
                        # values may dangle past the referenced table's rows
                        row[col] = f"{ref.lower()}k{rnd.randrange(max(3, n_rows[ref]) + 2)}"
                elif type_str == "num":
                    row[col] = "" if rnd.random() < 0.12 else str(rnd.randint(-5, 20) + rnd.choice([0.0, 0.5]))
                else:
                    row[col] = "?" if rnd.random() < 0.12 else rnd.choice("abcde"[: rnd.randint(2, 5)])
            rows.append(row)
        tables[name] = rows
    return doc, tables


# ---------------------------------------------------------------------------
# Row-at-a-time database build: one normalized dict per row, one missing test
# and one parse per cell.


def naive_build_database(catalog, raw_rows, options=None):
    """Row-at-a-time reference for ``storage.build_database`` on row dictionaries.

    Each row is normalized into a dict, each cell tested for missingness and
    each number parsed on its own; codes, dictionaries and error messages
    follow the same first-seen rules as the columnar builder.
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
                missing = v is None or (isinstance(v, str) and v in opts.missing_tokens)
                norm[c.name] = None if missing else v
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
        for row, i in zip(kept[ts.name], kept_orig[ts.name]):
            v = str(row[pk.name])
            if v in dom.code_of:
                raise DataError(f"table {ts.name} column {pk.name} row {i}: duplicate primary key value {v!r}")
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
        columns = {}
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
                    if not math.isfinite(vals[i]):
                        raise DataError(f"table {ts.name} column {c.name} row {orig[i]}: not finite: {v!r}")
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


# ---------------------------------------------------------------------------
# Row-at-a-time prediction: each node rebuilds the row's bag with Python lists
# and aggregates it with the scalar functions above.


def _bag_rows(db, row, path, cache):
    if path in cache:
        return cache[path]
    if path.is_root:
        bag = [row]
    else:
        hop = path.hops[-1]
        col = db.tables[hop.from_table].columns[hop.from_column]
        index = db.indexes[(hop.to_table, hop.to_column)]
        bag = []
        for r in _bag_rows(db, row, path.prefix(len(path.hops) - 1), cache):
            bag.extend(int(x) for x in index.lookup(int(col.codes[r])))
    cache[path] = bag
    return bag


_SCALAR_FIELD = {
    Agg.AVG: "avg",
    Agg.STD: "std",
    Agg.VAR: "var",
    Agg.MAX: "max",
    Agg.MIN: "min",
    Agg.SUM: "sum",
    Agg.COUNT: "count",
}


def _descriptor_value(db, row, d, cache):
    """(value, defined) of one feature for one instance, computed on demand."""
    bag = _bag_rows(db, row, d.path, cache)
    if d.agg is Agg.IS_EMPTY:
        return len(bag) == 0, True
    col = db.tables[d.path.terminal_table].columns[d.attribute]
    if isinstance(col, NumericColumn):
        multiset = [None if col.missing[r] else float(col.values[r]) for r in bag]
    else:
        assert isinstance(col, CategoricalColumn)
        multiset = [None if col.missing[r] else col.dictionary[col.codes[r]] for r in bag]

    if d.agg is Agg.IDENTITY:
        if len(multiset) == 1 and multiset[0] is not None:
            return multiset[0], True
        return None, False
    if d.agg in _SCALAR_FIELD and isinstance(col, NumericColumn):
        v = getattr(aggregate_numeric(multiset), _SCALAR_FIELD[d.agg])
        return v, v is not None
    if d.agg is Agg.CONTAINS:
        present = {v for v in multiset if v is not None}
        if not present:
            return None, False
        return d.value in present, True
    ca = aggregate_categorical(multiset, col.dictionary, False)
    if d.agg is Agg.COUNT:
        return ca.count, ca.count is not None
    if d.agg is Agg.DISTINCT_COUNT:
        return ca.distinct_count, ca.distinct_count is not None
    raise ValueError(f"cannot evaluate aggregator {d.agg!r}")


def _passes(test, value) -> bool:
    if test.kind == "numeric_le":
        return float(value) <= test.threshold
    if test.kind == "boolean_true":
        return bool(value)
    if test.kind == "categorical_eq":
        return value == test.value
    raise ValueError(f"unknown test kind {test.kind!r}")


def naive_predict(model, db, rows):
    """(class index, probabilities) of each row, routed one row at a time.

    Categorical tests compare decoded values, so routing goes through the
    predicting database's dictionary.
    """
    out = []
    for row in np.asarray(list(rows), dtype=np.int64).tolist():
        cache = {}
        node = model.root
        while hasattr(node, "test"):
            value, ok = _descriptor_value(db, row, node.test.descriptor, cache)
            go_left = _passes(node.test, value) if ok else node.test.undefined_route == "pass"
            node = node.left if go_left else node.right
        total = sum(node.counts)
        out.append((node.prediction, tuple(c / total for c in node.counts)))
    return out


def stratified_folds(labels, k, seed):
    """Label-stratified folds dealt one index at a time (the engine's checks of ``k`` left out).

    Each class's indices are shuffled by one generator seeded once, then dealt
    round-robin with a pointer that keeps rotating across classes.
    """
    y = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    pointer = 0
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        for i in idx:
            folds[pointer % k].append(int(i))
            pointer += 1
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]
