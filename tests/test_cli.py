import csv
import json
import re

import pytest

from reltree.cli import run
from reltree.ldt import build_root_ldt
from reltree.params import LearnParams
from reltree.schema import load_schema
from reltree.storage import load_database


@pytest.fixture
def school_paths(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--preset", "school", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def test_synth_learn_predict_pipeline(school_paths, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = run(
        ["learn", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
         "--mode", "lazy-restricted", "--out", str(model_path)]
    )
    assert code == 0
    assert model_path.exists()

    preds_path = tmp_path / "preds.csv"
    code = run(
        ["predict", "--model", str(model_path), "--schema", str(school_paths / "schema.yaml"),
         "--data", str(school_paths), "--out", str(preds_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    m = re.search(r"accuracy on (\d+) labeled: ([\d.]+)", out)
    assert m, out
    assert float(m.group(2)) == 1.0  # resubstitution on noise-free planted data

    with open(preds_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_id", "predicted_class", "confidence"]
    assert len(rows) == 101
    assert rows[1][1] in ("yes", "no")
    assert 0.0 <= float(rows[1][2]) <= 1.0


def test_predict_accuracy_compares_labels_not_class_codes(school_paths, tmp_path, capsys):
    """A database that lists its classes in another order than the training data still scores by label."""
    model_path = tmp_path / "model.json"
    run(["learn", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
         "--out", str(model_path)])
    moved = tmp_path / "moved"
    moved.mkdir()
    for f in school_paths.iterdir():
        (moved / f.name).write_bytes(f.read_bytes())
    with open(school_paths / "professor.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    label = header.index("popular")
    other = next(i for i, r in enumerate(rows) if r[label] != rows[0][label])
    rows.insert(0, rows.pop(other))  # the other class now comes first, so its code is 0
    with open(moved / "professor.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    capsys.readouterr()

    preds_path = tmp_path / "preds.csv"
    code = run(["predict", "--model", str(model_path), "--schema", str(moved / "schema.yaml"),
                "--data", str(moved), "--out", str(preds_path)])
    assert code == 0
    m = re.search(r"accuracy on (\d+) labeled: ([\d.]+)", capsys.readouterr().out)
    with open(preds_path, newline="", encoding="utf-8") as fh:
        predicted = {r["instance_id"]: r["predicted_class"] for r in csv.DictReader(fh)}
    truth = {r[0]: r[label] for r in rows}
    share = sum(predicted[pid] == y for pid, y in truth.items()) / len(truth)
    assert m and int(m.group(1)) == len(truth)
    assert float(m.group(2)) == pytest.approx(share, abs=5e-5) and share == 1.0


def test_predict_with_ids_file(school_paths, tmp_path):
    model_path = tmp_path / "model.json"
    run(["learn", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
         "--out", str(model_path)])
    ids = tmp_path / "ids.txt"
    ids.write_text("p3\np7\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    code = run(["predict", "--model", str(model_path), "--schema", str(school_paths / "schema.yaml"),
                "--data", str(school_paths), "--ids", str(ids), "--out", str(preds)])
    assert code == 0
    with open(preds, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["p3", "p7"]


def test_cv_writes_report(school_paths, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run(["cv", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
                "--mode", "lazy-restricted", "--k", "10", "--seed", "5", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert len(doc["fold_accuracies"]) == 10
    assert doc["mean_accuracy"] >= doc["majority_accuracy"]
    assert "cv mode=lazy-restricted" in capsys.readouterr().out


def test_propositionalize_manifest_matches_root_ldt(school_paths, tmp_path):
    flat_path = tmp_path / "flat.csv"
    manifest_path = tmp_path / "manifest.txt"
    code = run(["propositionalize", "--schema", str(school_paths / "schema.yaml"),
                "--data", str(school_paths), "--max-path-len", "1",
                "--out", str(flat_path), "--manifest", str(manifest_path)])
    assert code == 0
    manifest_names = [line.split("\t")[0] for line in manifest_path.read_text().splitlines()]

    catalog = load_schema(school_paths / "schema.yaml")
    db = load_database(catalog, school_paths)
    root = build_root_ldt(db, LearnParams())
    assert set(manifest_names) == {c.descriptor.name for c in root.columns}

    with open(flat_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 101


def test_help_lists_documented_defaults(capsys):
    defaults = LearnParams()
    assert run(["learn", "--help"]) == 0
    text = capsys.readouterr().out
    assert f"default: {defaults.min_ig}" in text
    assert f"default: {defaults.min_inst}" in text
    assert "default: inf" in text
    assert f"default: {defaults.domsize_abs}" in text
    assert f"default: {defaults.domsize_rel}" in text


def test_cv_strip_defaults_on_learn_off(capsys):
    assert run(["cv", "--help"]) == 0
    assert "default: True" in capsys.readouterr().out
    assert run(["learn", "--help"]) == 0
    assert "default: False" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(school_paths):
    code = run(["learn", "--schema", "s", "--data", "d", "--out", "m", "--frobnicate"])
    assert code == 2


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_validation_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "schema.yaml"
    bad.write_text("target: Nowhere.y\ntables:\n  - name: A\n    columns:\n      - id: pk\n", encoding="utf-8")
    code = run(["learn", "--schema", str(bad), "--data", str(tmp_path), "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_yaml_parse_error_is_one_line(tmp_path, capsys):
    bad = tmp_path / "schema.yaml"
    bad.write_text("tables:\n  - name: [unclosed", encoding="utf-8")
    code = run(["learn", "--schema", str(bad), "--data", str(tmp_path), "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: cannot parse schema file {bad}: line 2, column 20: expected ',' or ']', but got '<stream end>'"
    ]


def test_synth_with_spec_override(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_professors": 25, "rule": "movie_genre"}), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["synth", "--seed", "1", "--spec", str(spec), "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["rule"] == "movie_genre"
    assert truth["spec"]["n_professors"] == 25


def test_cv_eager_mode(school_paths, tmp_path):
    report_path = tmp_path / "report.json"
    code = run(["cv", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
                "--mode", "eager", "--k", "5", "--seed", "2", "--max-path-len", "3",
                "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["mode"] == "eager"
    assert len(doc["fold_accuracies"]) == 5


def test_non_finite_number_exits_one_without_traceback(school_paths, tmp_path, capsys):
    student = school_paths / "student.csv"
    lines = student.read_text(encoding="utf-8").splitlines()
    sid = lines[1].split(",")[0]
    lines[1] = f"{sid},nan"
    student.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["learn", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
            "--out", str(tmp_path / "m.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"error: {student} line 2: column grade: not finite: 'nan'"
    assert run(argv + ["--missing-token", "nan"]) == 0


@pytest.mark.parametrize("flag", ["--min-ig", "--max-depth"])
def test_nan_learn_param_exits_one(school_paths, tmp_path, capsys, flag):
    model_path = tmp_path / "m.json"
    argv = ["learn", "--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths),
            flag, "nan", "--out", str(model_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not model_path.exists()


@pytest.mark.parametrize("fields", [
    {"bogus": 1}, {"n_professors": "x"}, {"n_professors": 2.5}, {"n_movies": True},
    {"grade_low": "x"}, {"threshold": "x"}, {"p_no_movie": "x"}, {"genres": []},
    {"genres": "drama"}, {"grade_low": 100.0}, {"label_noise": float("nan")}, {"p_no_courses": 1.5},
])
def test_synth_bad_spec_exits_one_naming_the_file(tmp_path, capsys, fields):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields), encoding="utf-8")
    assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and len(err.strip().splitlines()) == 1
    assert next(iter(fields)) in err


def test_synth_malformed_spec_exits_one_naming_the_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_professors": ', encoding="utf-8")
    assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: not valid JSON") and len(err.strip().splitlines()) == 1



@pytest.mark.parametrize("flag", ["--spec", "--model", "--ids", "--schema"])
def test_input_file_that_is_not_utf8_exits_one_naming_it(school_paths, tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p3\n\xff\xfe\n")
    data = ["--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths)]
    model = tmp_path / "model.json"
    assert run(["learn", *data, "--out", str(model)]) == 0
    argv = {
        "--spec": ["synth", "--spec", str(bad), "--out", str(tmp_path / "out")],
        "--model": ["predict", "--model", str(bad), *data, "--out", str(tmp_path / "preds.csv")],
        "--ids": ["predict", "--model", str(model), *data, "--ids", str(bad), "--out", str(tmp_path / "preds.csv")],
        "--schema": ["learn", "--schema", str(bad), "--data", str(school_paths), "--out", str(tmp_path / "m.json")],
    }[flag]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith(f"{bad}: not UTF-8 text: invalid start byte")


def _first_leaf(node, where="root"):
    while node["type"] != "leaf":
        node, where = node["left"], f"{where}.left"
    return node, where


def _set_root_test(doc, key, value, kind=None):
    test = doc["root"]["test"]
    test[key] = value
    if kind is not None:
        test["kind"] = kind
    return f"root.test.{key}"


def _set_leaf(doc, key, value):
    leaf, where = _first_leaf(doc["root"])
    leaf[key] = value
    return f"{where}.{key}"


def _repeat_first_descriptor_last(doc):
    doc["descriptors"].append(doc["descriptors"][0])
    return f"descriptors[{len(doc['descriptors']) - 1}]"


def _repeat_first_descriptor_first(doc):
    doc["descriptors"].insert(0, doc["descriptors"][0])
    stack = [doc["root"]]
    while stack:  # every test now names its descriptor one index later
        node = stack.pop()
        if node["type"] == "inner":
            node["test"]["descriptor"] += 1
            stack += [node["left"], node["right"]]
    return "descriptors[1]"


def _set_class_labels(doc, value):
    doc["class_labels"] = value
    return "class_labels"


@pytest.mark.parametrize("hostile", [
    lambda doc: _set_leaf(doc, "counts", [3]),
    lambda doc: _set_leaf(doc, "counts", [0, 0]),
    lambda doc: _set_leaf(doc, "counts", [-1, 5]),
    lambda doc: _set_leaf(doc, "counts", [1.5, 2]),
    lambda doc: _set_leaf(doc, "counts", "12"),
    lambda doc: _set_leaf(doc, "prediction", 7),
    lambda doc: _set_leaf(doc, "prediction", -1),
    lambda doc: _set_leaf(doc, "prediction", True),
    lambda doc: _set_root_test(doc, "threshold", "abc", kind="numeric_le"),
    lambda doc: _set_root_test(doc, "threshold", True, kind="numeric_le"),
    lambda doc: _set_root_test(doc, "threshold", float("nan"), kind="numeric_le"),
    lambda doc: _set_root_test(doc, "value", 7, kind="categorical_eq"),
    lambda doc: _set_root_test(doc, "value", None, kind="categorical_eq"),
    lambda doc: _set_root_test(doc, "undefined_route", "sideways"),
    lambda doc: _set_root_test(doc, "kind", "range"),
    lambda doc: _set_class_labels(doc, "ab"),
    lambda doc: _set_class_labels(doc, ["no", 1]),
    _repeat_first_descriptor_last,
    _repeat_first_descriptor_first,
])
def test_hostile_model_document_exits_one_naming_the_field(school_paths, tmp_path, capsys, hostile):
    data = ["--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths)]
    model = tmp_path / "model.json"
    assert run(["learn", *data, "--out", str(model)]) == 0
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert doc["root"]["type"] == "inner" and len(doc["class_labels"]) == 2
    where = hostile(doc)
    model.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", "--model", str(model), *data, "--out", str(tmp_path / "preds.csv")]) == 1
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith(f"error: invalid model document: {where}: ")


def _set_descriptor(doc, i, key, value):
    doc["descriptors"][i][key] = value
    return f"descriptors[{i}].{key}"


def _set_hop(doc, i, key, value):
    doc["descriptors"][i]["path"]["hops"][0][key] = value
    return f"descriptors[{i}].path.hops[0]"


def _numeric_test_on_categorical(doc):
    test = doc["root"]["test"]
    assert doc["descriptors"][test["descriptor"]]["name"].endswith(".genre:identity")
    test.update(kind="numeric_le", threshold=1.0)
    return "root.test.kind"


def _boolean_test_on_numeric_below_the_root(doc):
    test = doc["root"]["right"]["left"]["test"]
    assert test["kind"] == "numeric_le" and doc["descriptors"][test["descriptor"]]["name"].endswith(".grade:avg")
    test["kind"] = "boolean_true"
    return "root.right.left.test.kind"


@pytest.mark.parametrize("misfit", [
    lambda doc: _set_descriptor(doc, 0, "attribute", "bogus"),
    lambda doc: _set_descriptor(doc, 1, "attribute", "MID"),  # a key, not an attribute
    lambda doc: _set_hop(doc, 0, "to_table", "Nope"),
    lambda doc: _set_hop(doc, 1, "to_column", "Nope"),
    lambda doc: _set_hop(doc, 0, "many_to_one", True),  # Course is reached one-to-many
    _numeric_test_on_categorical,
    _boolean_test_on_numeric_below_the_root,
])
def test_model_that_does_not_fit_the_database_exits_one_naming_the_field(school_paths, tmp_path, capsys, misfit):
    """A well-formed model whose features the database cannot compute, or its tests compare, is one error line."""
    data = ["--schema", str(school_paths / "schema.yaml"), "--data", str(school_paths)]
    model = tmp_path / "model.json"
    assert run(["learn", *data, "--out", str(model)]) == 0
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert [d["name"] for d in doc["descriptors"]] == [
        "Professor->Course(PID)->Enrolled(CID)->Student(SID).grade:avg", "Professor->Movie(MID).genre:identity",
    ]
    where = misfit(doc)
    model.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", "--model", str(model), *data, "--out", str(tmp_path / "preds.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: model does not fit the database: {where}: ")
