"""Command-line entry point: learn, predict, propositionalize, cv, synth.

Exit codes: 0 on success, 2 on usage errors, 1 on data or validation errors
(with a single-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .eager import BudgetExceededError, export_flat_csv, propositionalize, write_manifest
from .evaluate import MODES, SchoolSpec, _mode_params, cross_validate, write_school_dataset
from .ldt import target_labels
from .params import LearnParams
from .schema import SchemaError, load_schema
from .storage import DataError, Database, LoadOptions, load_database, rows_matching
from .tree import (
    ModelFormatError,
    ModelMismatchError,
    deserialize_model,
    grow_tree,
    predict_many,
    serialize_model,
)

_DEFAULTS = LearnParams()


def _parse_max_depth(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "none"):
        return math.inf
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid max depth: {text!r}") from None
    return v


def _add_learn_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-ig", type=float, default=_DEFAULTS.min_ig, help="minimum information gain to split")
    parser.add_argument("--min-inst", type=int, default=_DEFAULTS.min_inst, help="minimum instances to attempt a split")
    parser.add_argument("--max-depth", type=_parse_max_depth, default=_DEFAULTS.max_depth, help="maximum tree depth ('inf' allowed)")
    parser.add_argument("--domsize-abs", type=int, default=_DEFAULTS.domsize_abs, help="absolute domain-size bound for contains features")
    parser.add_argument("--domsize-rel", type=float, default=_DEFAULTS.domsize_rel, help="relative domain-size bound for contains features")


def _params_from(args) -> LearnParams:
    """The learn params of ``args``; ``--mode`` sets the strategy (``evaluate._mode_params``)."""
    params = LearnParams(
        min_ig=args.min_ig,
        min_inst=args.min_inst,
        max_depth=args.max_depth,
        domsize_abs=args.domsize_abs,
        domsize_rel=args.domsize_rel,
    )
    return _mode_params(params, args.mode)


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; a file that is not UTF-8 is a DataError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _load_db(args) -> Database:
    catalog = load_schema(args.schema)
    tokens = tuple(args.missing_token) if args.missing_token else LoadOptions().missing_tokens
    options = LoadOptions(missing_tokens=tokens, strip_target_features=args.strip_target_features)
    return load_database(catalog, args.data, options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reltree",
        description="Decision-tree learning over relational CSV databases with lazy join-path features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--schema", required=True, help="schema description file (YAML)")
        p.add_argument("--data", required=True, help="directory holding the tables' CSV files")
        p.add_argument("--missing-token", action="append", help="missing-value token (repeatable; default: '' and '?')")

    p_learn = sub.add_parser("learn", help="train a model", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    common_io(p_learn)
    p_learn.add_argument("--mode", choices=["lazy-restricted", "lazy-unrestricted"], default="lazy-restricted")
    _add_learn_params(p_learn)
    p_learn.add_argument("--strip-target-features", action=argparse.BooleanOptionalAction, default=False,
                         help="drop non-key target-table columns other than the class")
    p_learn.add_argument("--out", required=True, help="output model file (JSON)")

    p_pred = sub.add_parser("predict", help="apply a model", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_pred.add_argument("--model", required=True)
    common_io(p_pred)
    p_pred.add_argument("--ids", help="file with one target primary-key value per line (default: all rows)")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.set_defaults(strip_target_features=False)

    p_prop = sub.add_parser("propositionalize", help="materialize the flat feature table",
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    common_io(p_prop)
    p_prop.add_argument("--max-path-len", type=int, default=3)
    p_prop.add_argument("--domsize-abs", type=int, default=_DEFAULTS.domsize_abs)
    p_prop.add_argument("--domsize-rel", type=float, default=_DEFAULTS.domsize_rel)
    p_prop.add_argument("--missing-out", default="?", help="token written for undefined cells")
    p_prop.add_argument("--strip-target-features", action=argparse.BooleanOptionalAction, default=False)
    p_prop.add_argument("--out", required=True, help="output CSV")
    p_prop.add_argument("--manifest", help="also write a descriptor manifest")

    p_cv = sub.add_parser("cv", help="cross-validate", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    common_io(p_cv)
    p_cv.add_argument("--mode", choices=list(MODES), default="lazy-restricted")
    _add_learn_params(p_cv)
    p_cv.add_argument("--k", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0, help="seed of the stratified fold assignment")
    p_cv.add_argument("--max-path-len", type=int, default=3, help="path bound for eager mode")
    p_cv.add_argument("--strip-target-features", action=argparse.BooleanOptionalAction, default=True,
                      help="drop non-key target-table columns other than the class")
    p_cv.add_argument("--out", help="output report file (JSON)")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset",
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_synth.add_argument("--preset", choices=["school"], default="school")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--spec", help="JSON file overriding generator spec fields")
    p_synth.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_learn(args) -> int:
    db = _load_db(args)
    model = grow_tree(db, _params_from(args))
    Path(args.out).write_text(serialize_model(model), encoding="utf-8")
    print(f"learned {args.mode} model: {model.n_nodes} nodes, {len(model.descriptors)} tested features -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = deserialize_model(_read_text(args.model))
    db = _load_db(args)
    target = db.catalog.target_table
    pk = db.catalog.table(target).primary_key.name

    if args.ids:
        row_ids = []
        for line in _read_text(args.ids).splitlines():
            value = line.strip()
            if not value:
                continue
            rows = rows_matching(db, target, pk, value)
            if len(rows) == 0:
                raise DataError(f"unknown {target}.{pk} value {value!r}")
            row_ids.append(int(rows[0]))
    else:
        row_ids = list(range(db.tables[target].n_rows))

    preds = predict_many(model, db, row_ids)
    pk_values = db.primary_key_values(target)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "predicted_class", "confidence"])
        for row_id, p in zip(row_ids, preds):
            writer.writerow([pk_values[row_id], p.label, f"{p.confidence:.6g}"])

    labeled_ids, labels, classes = target_labels(db)
    # Labels, not class codes: this database codes its classes in the order
    # its CSV lists them, which need not be the order of the model's classes.
    known = {int(r): classes[y] for r, y in zip(labeled_ids, labels)}
    scored = [(p, known[r]) for r, p in zip(row_ids, preds) if r in known]
    if scored:
        acc = sum(1 for p, y in scored if p.label == y) / len(scored)
        print(f"predicted {len(preds)} instances -> {args.out} (accuracy on {len(scored)} labeled: {acc:.4f})")
    else:
        print(f"predicted {len(preds)} instances -> {args.out}")
    return 0


def _cmd_propositionalize(args) -> int:
    db = _load_db(args)
    params = LearnParams(domsize_abs=args.domsize_abs, domsize_rel=args.domsize_rel)
    flat = propositionalize(db, args.max_path_len, params)
    export_flat_csv(flat, db, args.out, missing_token=args.missing_out)
    if args.manifest:
        write_manifest(flat.columns, args.manifest)
    print(f"propositionalized {flat.n_rows} instances x {len(flat.columns)} features -> {args.out}")
    return 0


def _cmd_cv(args) -> int:
    db = _load_db(args)
    report = cross_validate(db, _params_from(args), k=args.k, seed=args.seed, mode=args.mode, max_path_len=args.max_path_len)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(report.summary())
    return 0


def _cmd_synth(args) -> int:
    spec = SchoolSpec()
    if args.spec:
        try:
            overrides = json.loads(_read_text(args.spec))
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.spec}: not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise DataError(f"{args.spec}: generator spec must be a JSON object")
        unknown = sorted(set(overrides) - {f.name for f in fields(SchoolSpec)})
        if unknown:
            raise DataError(f"{args.spec}: unknown generator spec field(s): {', '.join(unknown)}")
        try:
            if isinstance(overrides.get("genres"), list):
                overrides["genres"] = tuple(overrides["genres"])
            spec = SchoolSpec(**overrides)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{args.spec}: {exc}") from None
    data = write_school_dataset(args.out, args.seed, spec)
    n_rows = sum(len(rows) for rows in data.tables.values())
    print(f"wrote school dataset ({data.spec.rule} rule, {data.spec.n_professors} professors, {n_rows} rows) -> {args.out}")
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "predict": _cmd_predict,
    "propositionalize": _cmd_propositionalize,
    "cv": _cmd_cv,
    "synth": _cmd_synth,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, DataError, ModelFormatError, ModelMismatchError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
