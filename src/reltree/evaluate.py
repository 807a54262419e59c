"""Stratified cross-validation, instrumentation reporting, synthetic data.

The school generator plants a concept into a five-table schema (professors,
courses, an enrollment link table, students, movies) so that recovery tests
know the ground-truth feature: either a threshold on the average grade
reached over professor->course->enrollment->student, or an equality on the
genre of the professor's movie (a determinate, depth-1 feature).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .eager import enumerate_paths, train_flat
from .features import Agg, FeatureDescriptor
from .ldt import target_labels
from .params import LearnParams, RESTRICTED, UNRESTRICTED, params_doc
from .schema import SchemaCatalog, catalog_from_dict
from .storage import Database, build_database
from .tree import grow_tree, predict_many

MODES = ("lazy-restricted", "lazy-unrestricted", "eager")


def stratified_folds(labels, k: int, seed: int) -> list[np.ndarray]:
    """Split indices 0..n-1 into k disjoint, label-stratified folds.

    Deterministic for a seed.  Per class and per fold the counts differ by at
    most one, and overall fold sizes do too (indices are dealt round-robin
    with a pointer that keeps rotating across classes).
    """
    y = np.asarray(labels)
    n = len(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of instances ({n})")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    pointer = 0
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        fold_of[idx] = (pointer + np.arange(len(idx))) % k
        pointer += len(idx)
    return [np.flatnonzero(fold_of == f) for f in range(k)]


@dataclass
class FoldResult:
    fold: int
    n_train: int
    n_test: int
    accuracy: float
    majority_accuracy: float
    seconds: float
    join_lookups: dict[int, int]
    features_materialized: int
    paths_materialized: list[str]


@dataclass
class CvReport:
    mode: str
    k: int
    seed: int
    params: LearnParams
    n_instances: int
    fold_results: list[FoldResult]

    @property
    def fold_accuracies(self) -> list[float]:
        return [f.accuracy for f in self.fold_results]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def majority_accuracy(self) -> float:
        return float(np.mean([f.majority_accuracy for f in self.fold_results]))

    @property
    def total_seconds(self) -> float:
        return float(sum(f.seconds for f in self.fold_results))

    @property
    def total_join_lookups(self) -> int:
        return sum(sum(f.join_lookups.values()) for f in self.fold_results)

    @property
    def paths_materialized(self) -> list[str]:
        out: set[str] = set()
        for f in self.fold_results:
            out.update(f.paths_materialized)
        return sorted(out)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "seed": self.seed,
            "params": params_doc(self.params),
            "n_instances": self.n_instances,
            "mean_accuracy": self.mean_accuracy,
            "majority_accuracy": self.majority_accuracy,
            "fold_accuracies": self.fold_accuracies,
            "fold_seconds": [f.seconds for f in self.fold_results],
            "total_seconds": self.total_seconds,
            "fold_join_lookups": [{str(d): n for d, n in sorted(f.join_lookups.items())} for f in self.fold_results],
            "total_join_lookups": self.total_join_lookups,
            "fold_features_materialized": [f.features_materialized for f in self.fold_results],
            "paths_materialized": self.paths_materialized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        return (
            f"cv mode={self.mode} k={self.k} seed={self.seed}: "
            f"accuracy={self.mean_accuracy:.4f} majority={self.majority_accuracy:.4f} "
            f"joins={self.total_join_lookups} time={self.total_seconds:.2f}s"
        )


def _mode_params(params: LearnParams, mode: str) -> LearnParams:
    """The params a fold of ``mode`` trains with: the lazy modes fix the strategy."""
    if mode == "lazy-restricted":
        return replace(params, strategy=RESTRICTED)
    if mode == "lazy-unrestricted":
        return replace(params, strategy=UNRESTRICTED)
    if mode == "eager":
        return params
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def cross_validate(
    db: Database,
    params: LearnParams,
    k: int = 10,
    seed: int = 0,
    mode: str = "lazy-restricted",
    max_path_len: int | None = 3,
) -> CvReport:
    """k-fold cross-validation of one configuration, with instrumentation.

    Folds run one after another.  Join-lookup and feature counts, and the
    seconds, cover training (feature construction and tree growth) per fold;
    the majority baseline predicts each training fold's most frequent class.
    The report holds the params the folds trained with: the lazy modes set
    the strategy their name gives.
    """
    params = _mode_params(params, mode)
    ids, labels, _ = target_labels(db)
    results: list[FoldResult] = []
    for i, test_pos in enumerate(stratified_folds(labels, k, seed)):
        test_mask = np.zeros(len(ids), dtype=bool)
        test_mask[test_pos] = True
        train_ids = ids[~test_mask]
        test_ids = ids[test_mask]
        train_labels = labels[~test_mask]
        test_labels = labels[test_mask]

        with db.stats.measure() as m:
            t0 = time.perf_counter()
            if mode == "eager":
                model = train_flat(db, max_path_len, params, train_ids)
            else:
                model = grow_tree(db, params, train_ids)
            seconds = time.perf_counter() - t0

        preds = predict_many(model, db, test_ids)
        accuracy = float(np.mean([p.index == y for p, y in zip(preds, test_labels)]))
        majority = int(np.argmax(np.bincount(train_labels)))
        majority_accuracy = float(np.mean(test_labels == majority))
        results.append(FoldResult(
            fold=i,
            n_train=len(train_ids),
            n_test=len(test_ids),
            accuracy=accuracy,
            majority_accuracy=majority_accuracy,
            seconds=seconds,
            join_lookups=dict(m.lookups_by_depth),
            features_materialized=m.features,
            paths_materialized=sorted(m.paths),
        ))
    return CvReport(mode=mode, k=k, seed=seed, params=params, n_instances=len(ids), fold_results=results)


# ---------------------------------------------------------------------------
# Synthetic school database with a planted concept.

RULE_AVG_GRADE = "avg_grade"
RULE_MOVIE_GENRE = "movie_genre"


@dataclass(frozen=True)
class SchoolSpec:
    """Sizes and planted rule for the synthetic school generator.

    ``grade_step`` snaps student grades to a grid (0 keeps them continuous).
    ``p_no_courses`` / ``p_no_movie`` leave some professors without courses or
    with a dangling movie reference, which yields empty bags downstream.
    """

    n_professors: int = 100
    courses_per_professor: int = 3
    enrollments_per_course: int = 10
    n_students: int = 200
    n_movies: int = 20
    genres: tuple[str, ...] = ("comedy", "drama", "horror", "scifi", "romance")
    grade_low: float = 50.0
    grade_high: float = 100.0
    grade_step: float = 50.0
    rule: str = RULE_AVG_GRADE
    threshold: float | None = None  # avg_grade rule; None picks a mid-gap margin
    target_genre: str = "comedy"
    label_noise: float = 0.0
    p_no_courses: float = 0.0
    p_no_movie: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_professors", "courses_per_professor", "enrollments_per_course", "n_students", "n_movies"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if min(self.n_professors, self.n_students, self.n_movies) < 1:
            raise ValueError("sizes must be >= 1")
        if self.courses_per_professor < 0 or self.enrollments_per_course < 0:
            raise ValueError("sizes must be >= 0")
        if self.courses_per_professor == 0 and self.enrollments_per_course > 0:
            raise ValueError("cannot enroll students without courses")
        for name in ("grade_low", "grade_high", "grade_step", "threshold", "label_noise", "p_no_courses", "p_no_movie"):
            value = getattr(self, name)
            if name == "threshold" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not self.grade_low < self.grade_high:
            raise ValueError("grade_low must be below grade_high")
        if self.grade_step < 0:
            raise ValueError("grade_step must be >= 0")
        for name in ("label_noise", "p_no_courses", "p_no_movie"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not isinstance(self.genres, tuple) or not self.genres or not all(isinstance(g, str) for g in self.genres):
            raise ValueError(f"genres must be a non-empty list of strings, not {self.genres!r}")
        if self.rule not in (RULE_AVG_GRADE, RULE_MOVIE_GENRE):
            raise ValueError(f"unknown rule {self.rule!r}")
        if not isinstance(self.target_genre, str):
            raise ValueError(f"target_genre must be a string, not {self.target_genre!r}")
        if self.rule == RULE_MOVIE_GENRE and self.target_genre not in self.genres:
            raise ValueError(f"target genre {self.target_genre!r} not in genres")


def school_schema_doc() -> dict:
    return {
        "target": "Professor.popular",
        "tables": [
            {
                "name": "Professor",
                "file": "professor.csv",
                "columns": [{"PID": "pk"}, {"MID": "fk(Movie.MID)"}, {"popular": "cat"}],
            },
            {"name": "Course", "file": "course.csv", "columns": [{"CID": "pk"}, {"PID": "fk(Professor.PID)"}]},
            {
                "name": "Enrolled",
                "file": "enrolled.csv",
                "columns": [{"EID": "pk"}, {"CID": "fk(Course.CID)"}, {"SID": "fk(Student.SID)"}],
            },
            {"name": "Student", "file": "student.csv", "columns": [{"SID": "pk"}, {"grade": "num"}]},
            {"name": "Movie", "file": "movie.csv", "columns": [{"MID": "pk"}, {"genre": "cat"}]},
        ],
    }


AVG_GRADE_PATH_RENDER = "Professor->Course(PID)->Enrolled(CID)->Student(SID)"
MOVIE_PATH_RENDER = "Professor->Movie(MID)"


@dataclass(eq=False)
class SchoolData:
    db: Database
    catalog: SchemaCatalog
    tables: dict[str, list[dict]]
    truth: FeatureDescriptor
    threshold: float | None
    labels: list[str]
    clean_labels: list[str]
    spec: SchoolSpec
    seed: int


def _grades(rnd: random.Random, spec: SchoolSpec, n: int) -> list[float]:
    if spec.grade_step > 0:
        lo = int(round(spec.grade_low / spec.grade_step))
        hi = int(round(spec.grade_high / spec.grade_step))
        return [rnd.randint(lo, hi) * spec.grade_step for _ in range(n)]
    return [rnd.uniform(spec.grade_low, spec.grade_high) for _ in range(n)]


def generate_school_db(seed: int, spec: SchoolSpec | None = None) -> SchoolData:
    """Random school database whose labels follow the planted rule."""
    spec = spec or SchoolSpec()
    rnd = random.Random(seed)

    students = [{"SID": f"s{i}", "grade": g} for i, g in enumerate(_grades(rnd, spec, spec.n_students))]
    movies = [{"MID": f"m{i}", "genre": spec.genres[i % len(spec.genres)]} for i in range(spec.n_movies)]

    professors: list[dict] = []
    courses: list[dict] = []
    enrollments: list[dict] = []
    prof_movie: list[str | None] = []
    prof_grades: list[list[float]] = []
    for p in range(spec.n_professors):
        pid = f"p{p}"
        if rnd.random() < spec.p_no_movie:
            mid = "m_none"  # dangling reference: joins to nothing
            prof_movie.append(None)
        else:
            movie = movies[rnd.randrange(spec.n_movies)]
            mid = movie["MID"]
            prof_movie.append(movie["genre"])
        professors.append({"PID": pid, "MID": mid, "popular": ""})

        grades: list[float] = []
        if rnd.random() >= spec.p_no_courses:
            for c in range(spec.courses_per_professor):
                cid = f"c{p}_{c}"
                courses.append({"CID": cid, "PID": pid})
                n_enr = min(spec.enrollments_per_course, spec.n_students)
                for s_idx in rnd.sample(range(spec.n_students), n_enr):
                    enrollments.append({"EID": f"e{len(enrollments)}", "CID": cid, "SID": f"s{s_idx}"})
                    grades.append(float(students[s_idx]["grade"]))
        prof_grades.append(grades)

    threshold = spec.threshold
    if spec.rule == RULE_AVG_GRADE:
        avgs = [sum(g) / len(g) for g in prof_grades if g]
        if not avgs:
            raise ValueError("avg_grade rule needs at least one professor with enrollments")
        if threshold is None:
            # pick the threshold mid-gap around the median so no instance sits on it
            distinct = sorted(set(avgs))
            if len(distinct) == 1:
                threshold = distinct[0]
            else:
                mid = sorted(avgs)[len(avgs) // 2]
                i = max(1, distinct.index(mid))
                threshold = (distinct[i - 1] + distinct[i]) / 2.0
        clean = ["yes" if g and (sum(g) / len(g)) > threshold else "no" for g in prof_grades]
    else:
        clean = ["yes" if genre == spec.target_genre else "no" for genre in prof_movie]

    labels = [("no" if y == "yes" else "yes") if rnd.random() < spec.label_noise else y for y in clean]
    for prof, y in zip(professors, labels):
        prof["popular"] = y

    tables = {
        "Professor": professors,
        "Course": courses,
        "Enrolled": enrollments,
        "Student": students,
        "Movie": movies,
    }
    catalog = catalog_from_dict(school_schema_doc(), source="<school>")
    db = build_database(catalog, tables)

    paths = {p.render(): p for p in enumerate_paths(catalog, None)}
    if spec.rule == RULE_AVG_GRADE:
        truth = FeatureDescriptor(path=paths[AVG_GRADE_PATH_RENDER], attribute="grade", agg=Agg.AVG)
    else:
        truth = FeatureDescriptor(path=paths[MOVIE_PATH_RENDER], attribute="genre", agg=Agg.IDENTITY)

    return SchoolData(
        db=db,
        catalog=catalog,
        tables=tables,
        truth=truth,
        threshold=threshold,
        labels=labels,
        clean_labels=clean,
        spec=spec,
        seed=seed,
    )


def write_school_dataset(out_dir, seed: int, spec: SchoolSpec | None = None) -> SchoolData:
    """Generate a school database and write its schema + CSVs + ground truth."""
    import csv as _csv
    import yaml

    data = generate_school_db(seed, spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    doc = school_schema_doc()
    with open(out / "schema.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)

    for entry in doc["tables"]:
        name, filename = entry["name"], entry["file"]
        cols = [next(iter(c)) for c in entry["columns"]]
        with open(out / filename, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(cols)
            for row in data.tables[name]:
                writer.writerow([row[c] for c in cols])

    truth = {
        "seed": seed,
        "rule": data.spec.rule,
        "threshold": data.threshold,
        "target_genre": data.spec.target_genre,
        "planted_feature": data.truth.name,
        "spec": asdict(data.spec),
    }
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data
