import json
import random
from dataclasses import replace

import numpy as np
import pytest

import oracles

from reltree.evaluate import (
    SchoolSpec,
    cross_validate,
    generate_school_db,
    stratified_folds,
    write_school_dataset,
)
from reltree.params import RESTRICTED, UNRESTRICTED, LearnParams
from reltree.schema import load_schema
from reltree.storage import load_database
from reltree.tree import grow_tree, predict_many

PARAMS = LearnParams()


def test_folds_balanced_binary():
    labels = np.array([0] * 50 + [1] * 50)
    folds = stratified_folds(labels, 10, seed=1)
    for fold in folds:
        assert len(fold) == 10
        assert (labels[fold] == 0).sum() == 5
        assert (labels[fold] == 1).sum() == 5
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(100))  # a partition


def test_folds_deterministic():
    labels = np.array([0, 1, 2] * 13)[:38]
    a = stratified_folds(labels, 10, seed=42)
    b = stratified_folds(labels, 10, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = stratified_folds(labels, 10, seed=43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_folds_38_instances_3_classes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=38)
    while len(set(labels.tolist())) < 3:
        labels = rng.integers(0, 3, size=38)
    folds = stratified_folds(labels, 10, seed=5)
    sizes = sorted(len(f) for f in folds)
    assert set(sizes) <= {3, 4}
    for cls in range(3):
        per_fold = [int((labels[f] == cls).sum()) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_equal_the_one_at_a_time_oracle():
    rnd = random.Random(7)
    for _ in range(300):
        n = rnd.randint(2, 80)
        labels = np.array([rnd.randrange(rnd.randint(1, 5)) for _ in range(n)])
        k = rnd.randint(2, min(n, 12))
        seed = rnd.randrange(10_000)
        got = stratified_folds(labels, k, seed)
        want = oracles.stratified_folds(labels, k, seed)
        assert len(got) == k
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.tolist() == w.tolist()


def test_folds_validation():
    with pytest.raises(ValueError):
        stratified_folds(np.array([0, 1]), 3, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(np.array([0, 1, 0]), 1, seed=0)


def test_majority_baseline_on_imbalanced_labels():
    data = generate_school_db(3, SchoolSpec(n_professors=100, rule="movie_genre"))
    report = cross_validate(data.db, PARAMS, k=10, seed=0)
    majority = max(data.labels.count("yes"), data.labels.count("no")) / 100
    assert report.majority_accuracy == pytest.approx(majority, abs=0.05)


def test_cv_perfect_on_separable_data():
    data = generate_school_db(5, SchoolSpec(n_professors=200, rule="avg_grade"))
    report = cross_validate(data.db, PARAMS, k=10, seed=1)
    assert report.mean_accuracy == 1.0
    assert report.k == 10 and len(report.fold_accuracies) == 10


def test_cv_lazy_uses_fewer_joins_than_eager_on_shallow_concept():
    data = generate_school_db(6, SchoolSpec(n_professors=150, rule="movie_genre"))
    lazy = cross_validate(data.db, PARAMS, k=5, seed=2, mode="lazy-restricted")
    eager = cross_validate(data.db, PARAMS, k=5, seed=2, mode="eager", max_path_len=3)
    assert lazy.total_join_lookups < eager.total_join_lookups
    assert lazy.mean_accuracy == eager.mean_accuracy == 1.0


def test_cv_report_serializes(tmp_path):
    data = generate_school_db(10, SchoolSpec(n_professors=60))
    report = cross_validate(data.db, PARAMS, k=3, seed=0)
    doc = json.loads(report.to_json())
    assert doc["k"] == 3
    assert len(doc["fold_accuracies"]) == 3
    assert doc["params"]["min_ig"] == 0.001
    assert "accuracy=" in report.summary()


def test_cv_report_params_are_the_ones_its_folds_used():
    data = generate_school_db(10, SchoolSpec(n_professors=60))
    restricted = LearnParams(strategy=RESTRICTED)
    unrestricted = cross_validate(data.db, restricted, k=3, seed=0, mode="lazy-unrestricted")
    assert unrestricted.params == replace(restricted, strategy=UNRESTRICTED)
    assert unrestricted.to_dict()["params"]["strategy"] == UNRESTRICTED
    lazy = cross_validate(data.db, LearnParams(strategy=UNRESTRICTED), k=3, seed=0, mode="lazy-restricted")
    assert lazy.params.strategy == RESTRICTED
    eager_params = LearnParams(strategy=UNRESTRICTED, min_inst=4)
    assert cross_validate(data.db, eager_params, k=3, seed=0, mode="eager").params == eager_params


def test_generator_labels_match_rule_exactly():
    data = generate_school_db(12, SchoolSpec(n_professors=80, rule="avg_grade"))
    courses_of = {}
    for c in data.tables["Course"]:
        courses_of.setdefault(c["PID"], []).append(c["CID"])
    enrollments_of = {}
    for e in data.tables["Enrolled"]:
        enrollments_of.setdefault(e["CID"], []).append(e["SID"])
    grade_of = {s["SID"]: float(s["grade"]) for s in data.tables["Student"]}
    for prof, label in zip(data.tables["Professor"], data.clean_labels):
        grades = [
            grade_of[sid]
            for cid in courses_of.get(prof["PID"], [])
            for sid in enrollments_of.get(cid, [])
        ]
        expected = "yes" if grades and sum(grades) / len(grades) > data.threshold else "no"
        assert label == expected
    assert data.labels == data.clean_labels  # noise 0


def test_generator_noise_flips_about_ten_percent():
    data = generate_school_db(14, SchoolSpec(n_professors=1000, label_noise=0.1))
    flips = sum(1 for a, b in zip(data.labels, data.clean_labels) if a != b)
    assert 60 <= flips <= 140


def test_generator_movie_rule_is_depth1_learnable():
    data = generate_school_db(16, SchoolSpec(n_professors=150, rule="movie_genre"))
    with data.db.stats.measure() as m:
        model = grow_tree(data.db, PARAMS)
    assert sum(n for d, n in m.lookups_by_depth.items() if d >= 2) == 0
    preds = predict_many(model, data.db, range(150))
    assert np.mean([p.label == y for p, y in zip(preds, data.labels)]) == 1.0


def test_generator_empty_bag_knobs():
    spec = SchoolSpec(n_professors=200, p_no_courses=0.3, p_no_movie=0.2)
    data = generate_school_db(18, spec)
    with_courses = {c["PID"] for c in data.tables["Course"]}
    share_empty = 1 - len(with_courses) / 200
    assert 0.15 <= share_empty <= 0.45
    assert data.db.dangling[("Professor", "MID")] > 0


def test_generator_rejects_infeasible_spec():
    with pytest.raises(ValueError):
        SchoolSpec(courses_per_professor=0, enrollments_per_course=5)
    with pytest.raises(ValueError):
        SchoolSpec(rule="movie_genre", target_genre="opera")
    with pytest.raises(ValueError):
        SchoolSpec(n_movies=0)


def test_write_school_dataset_round_trips(tmp_path):
    out = tmp_path / "synthetic"
    data = write_school_dataset(out, seed=21, spec=SchoolSpec(n_professors=40))
    catalog = load_schema(out / "schema.yaml")
    db = load_database(catalog, out)
    assert db.tables["Professor"].n_rows == 40
    truth = json.loads((out / "truth.json").read_text())
    assert truth["rule"] == "avg_grade"
    assert truth["planted_feature"] == data.truth.name
    labels = db.tables["Professor"].columns["popular"]
    reloaded = [labels.dictionary[c] for c in labels.codes]
    assert reloaded == data.labels
