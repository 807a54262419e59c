#!/usr/bin/env python3
"""Seeded generators for the benchmark's datasets (schema YAML plus CSVs).

Generation runs in its own process, before the measured one starts, so the
measured process only reads files.  The generators are the benchmark's own
and use only numpy, so a change to ``src/`` never changes the inputs.

    python3 perfbench/gen.py --workload school-deep --seed 3 --part 0 --out DIR

A run measures several independent datasets per seed; ``--part`` picks one.

``school`` follows the distribution of ``reltree.evaluate.SchoolSpec``: each
professor teaches ``courses`` courses with ``enrollments`` distinct students
each and refers to one movie; the label is planted either on the average
grade of the enrolled students (threshold mid-gap at the median) or on the
movie's genre, then flipped with probability ``noise``.

``retail`` is a nine-table shop: customers, regions, stores, orders, a pure
``OrderItem`` link table, products, brands, support tickets and agents.  The
label is planted four hops deep, through the link table: a customer churns
when one of their purchases is of a brand from the rare origin ``nordic``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import numpy as np

GENRES = ("comedy", "drama", "horror", "scifi", "romance")

# Sizes and planted rules.  README.md says why each workload looks as it does.
SPECS = {
    "school-deep": dict(
        kind="school", professors=800, courses=3, enrollments=10, students=200, movies=20,
        rule="avg_grade", noise=0.1, balance_genre=True,
    ),
    "school-bulk": dict(
        kind="school", professors=4000, courses=3, enrollments=10, students=1000, movies=50,
        rule="movie_genre", noise=0.0,
    ),
    "retail-cv": dict(kind="retail", customers=400, noise=0.05),
}


# Bump when a generator changes what it writes for a given spec and seed.
VERSION = 3


def spec_key(workload: str) -> str:
    """Directory-name fragment that changes whenever the workload's data does."""
    spec = SPECS[workload]
    return f"v{VERSION}-" + "-".join(f"{k}{v}" for k, v in sorted(spec.items()) if k != "kind")


# ---------------------------------------------------------------------------
# CSV and schema writing


def _fmt(values: np.ndarray) -> list[str]:
    """Render floats with four decimals; NaN becomes the missing token ``?``."""
    out = np.char.mod("%.4f", values).tolist()
    for i in np.nonzero(np.isnan(values))[0]:
        out[i] = "?"
    return out


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _refs(prefix: str, idx: np.ndarray) -> list[str]:
    return [f"{prefix}{i}" for i in idx.tolist()]


def _write_csv(path: Path, columns: dict[str, list[str]]) -> None:
    names = list(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("".join(",".join(row) + "\n" for row in zip(*columns.values())))


def _write_schema(path: Path, target: str, tables: list[tuple[str, list[tuple[str, str]]]]) -> None:
    lines = [f"target: {target}", "tables:"]
    for name, cols in tables:
        lines += [f"  - name: {name}", f"    file: {name.lower()}.csv", "    columns:"]
        lines += [f"      - {col}: {kind}" for col, kind in cols]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _distinct_samples(rng: np.random.Generator, rows: int, per_row: int, population: int) -> np.ndarray:
    """``rows`` x ``per_row`` draws from ``range(population)``, distinct within each row."""
    out = rng.integers(0, population, size=(rows, per_row))
    while True:
        s = np.sort(out, axis=1)
        dup = (s[:, 1:] == s[:, :-1]).any(axis=1)
        if not dup.any():
            return out
        out[dup] = rng.integers(0, population, size=(int(dup.sum()), per_row))


def _flips(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Mask of exactly ``round(share * n)`` rows whose label is flipped.

    A fixed count, unlike an independent coin per row, keeps the amount of
    noise a tree has to fit, and so its size, nearly the same for every seed.
    """
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=round(share * n), replace=False)] = True
    return mask


# ---------------------------------------------------------------------------
# School


def _balanced_movies(rng: np.random.Generator, label: np.ndarray, movie_genre: np.ndarray) -> np.ndarray:
    """A movie per professor such that every genre holds each label in the same share.

    Professors of one label are dealt to the genres in turn, in a seeded
    order, so the counts of a label differ by at most one between genres.
    The genre then carries no information about the label at the root (its
    gain is far below ``min_ig``), and no seed's tree starts with a chance
    split on it.
    """
    n_genres = int(movie_genre.max()) + 1
    genre = np.empty(len(label), dtype=np.int64)
    for value in (False, True):
        rows = rng.permutation(np.nonzero(label == value)[0])
        genre[rows] = (np.arange(len(rows)) + int(rng.integers(n_genres))) % n_genres
    by_genre = [np.nonzero(movie_genre == g)[0] for g in range(n_genres)]
    return np.array([by_genre[g][rng.integers(len(by_genre[g]))] for g in genre.tolist()], dtype=np.int64)


def write_school(out: Path, rng: np.random.Generator, spec: dict) -> None:
    n_p, n_c, n_e = spec["professors"], spec["courses"], spec["enrollments"]
    n_s, n_m = spec["students"], spec["movies"]

    grades = rng.uniform(50.0, 100.0, size=n_s).round(4)
    movie_genre = np.arange(n_m) % len(GENRES)
    prof_movie = rng.integers(0, n_m, size=n_p)
    course_prof = np.repeat(np.arange(n_p), n_c)
    enrolled = _distinct_samples(rng, n_p * n_c, n_e, n_s)

    if spec["rule"] == "avg_grade":
        avg = grades[enrolled].reshape(n_p, n_c * n_e).mean(axis=1)
        distinct = np.unique(avg)
        i = max(1, int(np.searchsorted(distinct, np.sort(avg)[n_p // 2])))
        threshold = (distinct[i - 1] + distinct[i]) / 2.0
        clean = avg > threshold
    else:
        clean = movie_genre[prof_movie] == GENRES.index("comedy")
    label = clean ^ _flips(rng, n_p, spec["noise"])
    if spec.get("balance_genre"):
        prof_movie = _balanced_movies(rng, label, movie_genre)
    label = np.where(label, "yes", "no").tolist()

    _write_schema(out / "schema.yaml", "Professor.popular", [
        ("Professor", [("PID", "pk"), ("MID", "fk(Movie.MID)"), ("popular", "cat")]),
        ("Course", [("CID", "pk"), ("PID", "fk(Professor.PID)")]),
        ("Enrolled", [("EID", "pk"), ("CID", "fk(Course.CID)"), ("SID", "fk(Student.SID)")]),
        ("Student", [("SID", "pk"), ("grade", "num")]),
        ("Movie", [("MID", "pk"), ("genre", "cat")]),
    ])
    _write_csv(out / "professor.csv", {"PID": _ids("p", n_p), "MID": _refs("m", prof_movie), "popular": label})
    _write_csv(out / "course.csv", {"CID": _ids("c", n_p * n_c), "PID": _refs("p", course_prof)})
    _write_csv(out / "enrolled.csv", {
        "EID": _ids("e", enrolled.size),
        "CID": _refs("c", np.repeat(np.arange(n_p * n_c), n_e)),
        "SID": _refs("s", enrolled.ravel()),
    })
    _write_csv(out / "student.csv", {"SID": _ids("s", n_s), "grade": _fmt(grades)})
    _write_csv(out / "movie.csv", {"MID": _ids("m", n_m), "genre": [GENRES[g] for g in movie_genre]})


# ---------------------------------------------------------------------------
# Retail

CLIMATES = ("arid", "temperate", "tropical", "polar")
TIERS = ("basic", "plus", "premium")
FORMATS = ("mall", "street", "outlet", "kiosk")
CHANNELS = ("web", "app", "phone")
CATEGORIES = ("food", "toys", "books", "garden", "audio", "sport", "beauty", "tools")
COLORS = ("red", "green", "blue", "black", "white")
ORIGINS = ("local", "eastern", "western", "southern", "nordic")
TOPICS = ("billing", "delivery", "returns", "account", "warranty")
TEAMS = ("north", "south", "east", "west")


def _pick(rng: np.random.Generator, domain: tuple[str, ...], n: int, p=None) -> list[str]:
    return [domain[i] for i in rng.choice(len(domain), size=n, p=p).tolist()]


def _with_missing(rng: np.random.Generator, values: np.ndarray, share: float) -> np.ndarray:
    return np.where(rng.random(len(values)) < share, np.nan, values)


def write_retail(out: Path, rng: np.random.Generator, spec: dict) -> None:
    n_cust = spec["customers"]
    n_region, n_store, n_product, n_brand, n_agent = 12, 40, 300, 30, 25

    # One brand in thirty is "nordic"; the rest spread over the other origins.
    # Every brand has the same number of products, so the share of churners
    # does not swing with the seed.
    brand_origin = [ORIGINS[i % 4] for i in range(n_brand)]
    brand_origin[int(rng.integers(n_brand))] = "nordic"
    product_brand = rng.permutation(np.arange(n_product) % n_brand)

    orders_per_cust = rng.poisson(4.0, size=n_cust)
    order_cust = np.repeat(np.arange(n_cust), orders_per_cust)
    n_order = len(order_cust)
    items_per_order = 1 + rng.poisson(2.0, size=n_order)
    item_order = np.repeat(np.arange(n_order), items_per_order)
    item_product = rng.integers(0, n_product, size=len(item_order))
    tickets_per_cust = rng.poisson(1.5, size=n_cust)
    ticket_cust = np.repeat(np.arange(n_cust), tickets_per_cust)

    nordic = np.array([brand_origin[b] == "nordic" for b in product_brand])
    clean = np.zeros(n_cust, dtype=bool)
    clean[order_cust[item_order[nordic[item_product]]]] = True
    label = np.where(clean ^ _flips(rng, n_cust, spec["noise"]), "yes", "no").tolist()

    _write_schema(out / "schema.yaml", "Customer.churn", [
        ("Customer", [("CID", "pk"), ("RID", "fk(Region.RID)"), ("age", "num"), ("tier", "cat"), ("churn", "cat")]),
        ("Region", [("RID", "pk"), ("climate", "cat"), ("income", "num")]),
        ("Store", [("SID", "pk"), ("RID", "fk(Region.RID)"), ("format", "cat"), ("size", "num")]),
        ("Order", [("OID", "pk"), ("CID", "fk(Customer.CID)"), ("SID", "fk(Store.SID)"),
                   ("total", "num"), ("channel", "cat")]),
        ("OrderItem", [("IID", "pk"), ("OID", "fk(Order.OID)"), ("PID", "fk(Product.PID)")]),
        ("Product", [("PID", "pk"), ("BID", "fk(Brand.BID)"), ("price", "num"),
                     ("category", "cat"), ("color", "cat")]),
        ("Brand", [("BID", "pk"), ("origin", "cat"), ("rating", "num")]),
        ("Ticket", [("TID", "pk"), ("CID", "fk(Customer.CID)"), ("AID", "fk(Agent.AID)"),
                    ("wait", "num"), ("topic", "cat")]),
        ("Agent", [("AID", "pk"), ("team", "cat"), ("tenure", "num")]),
    ])
    _write_csv(out / "customer.csv", {
        "CID": _ids("c", n_cust),
        "RID": _refs("r", rng.integers(0, n_region, size=n_cust)),
        "age": _fmt(_with_missing(rng, rng.integers(18, 80, size=n_cust).astype(float), 0.02)),
        "tier": _pick(rng, TIERS, n_cust, p=(0.6, 0.3, 0.1)),
        "churn": label,
    })
    _write_csv(out / "region.csv", {
        "RID": _ids("r", n_region),
        "climate": _pick(rng, CLIMATES, n_region),
        "income": _fmt(rng.normal(50.0, 12.0, size=n_region)),
    })
    _write_csv(out / "store.csv", {
        "SID": _ids("s", n_store),
        "RID": _refs("r", rng.integers(0, n_region, size=n_store)),
        "format": _pick(rng, FORMATS, n_store),
        "size": _fmt(rng.uniform(100.0, 2000.0, size=n_store)),
    })
    _write_csv(out / "order.csv", {
        "OID": _ids("o", n_order),
        "CID": _refs("c", order_cust),
        "SID": _refs("s", rng.integers(0, n_store, size=n_order)),
        "total": _fmt(_with_missing(rng, rng.gamma(2.0, 40.0, size=n_order), 0.02)),
        "channel": _pick(rng, CHANNELS, n_order, p=(0.5, 0.3, 0.2)),
    })
    _write_csv(out / "orderitem.csv", {
        "IID": _ids("i", len(item_order)),
        "OID": _refs("o", item_order),
        "PID": _refs("x", item_product),
    })
    _write_csv(out / "product.csv", {
        "PID": _ids("x", n_product),
        "BID": _refs("b", product_brand),
        "price": _fmt(rng.lognormal(3.0, 0.8, size=n_product)),
        "category": _pick(rng, CATEGORIES, n_product),
        "color": _pick(rng, COLORS, n_product),
    })
    _write_csv(out / "brand.csv", {
        "BID": _ids("b", n_brand),
        "origin": brand_origin,
        "rating": _fmt(rng.uniform(1.0, 5.0, size=n_brand)),
    })
    _write_csv(out / "ticket.csv", {
        "TID": _ids("t", len(ticket_cust)),
        "CID": _refs("c", ticket_cust),
        "AID": _refs("a", rng.integers(0, n_agent, size=len(ticket_cust))),
        "wait": _fmt(rng.exponential(30.0, size=len(ticket_cust))),
        "topic": _pick(rng, TOPICS, len(ticket_cust)),
    })
    _write_csv(out / "agent.csv", {
        "AID": _ids("a", n_agent),
        "team": _pick(rng, TEAMS, n_agent),
        "tenure": _fmt(rng.uniform(0.0, 15.0, size=n_agent)),
    })


WRITERS = {"school": write_school, "retail": write_retail}


def generate(workload: str, seed: int, part: int, out: Path) -> None:
    """Write dataset ``part`` of ``workload`` for ``seed`` into ``out`` atomically."""
    spec = SPECS[workload]
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    WRITERS[spec["kind"]](tmp, np.random.default_rng([seed, part]), spec)
    os.replace(tmp, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one benchmark dataset.")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.part, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
