"""Command-line entry point and dataset I/O.

Dataset files are CoNLL-style: sentence blocks separated by blank lines,
an optional ``# id <string>`` header per block, and token lines
``token _ _ TAG`` (the tag column is absent for unlabeled data). Every
subcommand accepts ``--config FILE`` with ``key = value`` lines supplying
any flag; explicit command-line flags win.

Exit codes: 0 success (``--help`` included), 1 usage, validation or parse
error, 2 internal invariant violation. Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from propner import augmenter
from propner.encoder import (
    TrainConfig,
    TrainingDivergedError,
    load_model,
    predict,
    predict_tags,
    save_model,
    train,
)
from propner.ensemble import WeightedPredictions, check_tag, kfold_split, weighted_vote
from propner.evaluator import score
from propner.inputs import InputError, parse_lines
from propner.kbstore import (
    DEFAULT_QID_CAP,
    FULL_PROPERTY_MASK,
    DumpErrorReport,
    KnowledgeBaseInconsistencyError,
    build_knowledge_base,
    coverage_rate,
    load_kb,
    parse_dump,
    save_kb,
)
from propner.matcher import Sentence, build_matcher, retrieve
from propner.synthetic import SyntheticConfig, run_synthetic_ab

logger = logging.getLogger(__name__)


def _read_blocks(path, widths: tuple[int, int]) -> list[tuple[str, list[list[str]]]]:
    """Blank-line separated blocks as (id, rows of whitespace-separated
    fields). The id comes from a ``# id <string>`` header, or is the block
    index. Any other line, ``#love _ _ O`` included, is a row of one of
    ``widths`` fields, as many as the first row of its block. A row of 2
    (token, tag) or 4 (token _ _ tag) fields ends in a BIO tag; each
    distinct tag is checked once."""
    blocks: list[tuple[str, list[list[str]]]] = []
    sentence_id: str | None = None
    rows: list[list[str]] = []
    tags: set[str] = set()

    def parse(line: str) -> None:
        nonlocal sentence_id, rows
        fields = line.split()
        if not fields:
            if rows:
                blocks.append((str(len(blocks)) if sentence_id is None else sentence_id, rows))
                sentence_id, rows = None, []
            elif sentence_id is not None:
                raise ValueError(f"header for id {sentence_id!r} has no token lines")
        elif fields[0] == "#" and fields[1:2] == ["id"]:
            if len(fields) != 3:
                raise ValueError("header must look like '# id <string>'")
            if rows:
                raise ValueError("'# id' header inside a sentence block")
            sentence_id = fields[2]
        else:
            width = len(fields)
            if width not in widths:
                raise ValueError(f"expected {widths[0]} or {widths[1]} columns, got {width}")
            if rows and width != len(rows[0]):
                raise ValueError(f"{width} columns in a block whose first line has {len(rows[0])}")
            if width % 2 == 0 and fields[-1] not in tags:
                tags.add(check_tag(fields[-1]))
            rows.append(fields)

    parse_lines(path, parse)
    return blocks


def read_conll(path) -> list[Sentence]:
    """Parse a dataset file into sentences; block index becomes the id when
    no ``# id`` header is present."""
    sentences = []
    for sid, rows in _read_blocks(path, (3, 4)):
        tags = [fields[3] for fields in rows] if len(rows[0]) == 4 else None
        sentences.append(Sentence(sid, [fields[0] for fields in rows], tags))
    return sentences


def write_conll(sentences: list[Sentence], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for sentence in sentences:
            handle.write(f"# id {sentence.id}\n")
            for i, token in enumerate(sentence.tokens):
                if sentence.gold_tags is not None:
                    handle.write(f"{token} _ _ {sentence.gold_tags[i]}\n")
                else:
                    handle.write(f"{token} _ _\n")
            handle.write("\n")


def _write_tagged(rows: list[tuple[str, list[str], list[str]]], path) -> None:
    """Prediction output: '# id' headers and token<TAB>tag lines."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for sid, tokens, tags in rows:
            handle.write(f"# id {sid}\n")
            for token, tag in zip(tokens, tags):
                handle.write(f"{token}\t{tag}\n")
            handle.write("\n")


def _read_tag_sequences(path) -> list[tuple[str, list[str]]]:
    """(id, tags) blocks from either prediction output (2 columns) or dataset
    format (4 columns with tags); as in ``read_conll``, a block without a
    header takes its block index as id."""
    return [(sid, [fields[-1] for fields in rows]) for sid, rows in _read_blocks(path, (2, 4))]


def _parse_properties(text: str) -> frozenset[str]:
    kinds = frozenset(part.strip() for part in text.split(",") if part.strip())
    if not kinds:
        raise argparse.ArgumentTypeError("property list is empty")
    unknown = kinds - FULL_PROPERTY_MASK
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown property kinds: {sorted(unknown)}")
    return kinds


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}: {exc}")


def _dump_json(data, path: str | None) -> None:
    text = json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_build_kb(args) -> int:
    report = DumpErrorReport()
    with open(args.dump, "rb") as handle:
        kb = build_knowledge_base(parse_dump(handle, report), args.lang, args.properties, qid_cap=args.qid_cap)
    save_kb(kb, args.out)
    for error in report:
        logger.warning("dump line %d skipped: %s", error.line_number, error.message)
    print(f"built kb: {len(kb.surface_index)} surfaces, {len(kb.contexts)} entities, {len(report)} bad lines")
    return 0


def cmd_coverage(args) -> int:
    kb = load_kb(args.kb)
    dataset = read_conll(args.data)
    print(json.dumps({"coverage_rate": coverage_rate(kb, dataset)}, sort_keys=True))
    return 0


def cmd_retrieve(args) -> int:
    kb = load_kb(args.kb)
    matcher = build_matcher(kb)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        for sentence in read_conll(args.data):
            pairs = retrieve(kb, matcher, sentence)
            row = {
                "id": sentence.id,
                "pairs": [
                    {"start": m.start, "end": m.end, "qid": m.qid, "context": m.context} for m in pairs
                ],
            }
            handle.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def cmd_augment(args) -> int:
    kb = load_kb(args.kb)
    matcher = build_matcher(kb)
    augs = []
    for sentence in read_conll(args.data):
        pairs = retrieve(kb, matcher, sentence)
        augs.append(augmenter.assemble(sentence, pairs, args.max_len, args.mask_mode))
    augmenter.write_jsonl(augs, args.out)
    return 0


def cmd_train(args) -> int:
    dataset = augmenter.read_jsonl(args.aug)
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    model = train(dataset, config)
    save_model(model, args.out)
    print(f"trained {config.epochs} epochs, final loss {model.epoch_losses[-1]:.6f}" if model.epoch_losses else "trained")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    rows = []
    sidecar_rows = []
    for aug in augmenter.read_jsonl(args.aug):
        tags = predict_tags(model, aug)
        sentence_tokens = aug.tokens[1 : aug.n_sentence + 1]
        rows.append((aug.sentence_id, sentence_tokens, tags))
        sidecar_rows.append(
            {
                "id": aug.sentence_id,
                "tokens": sentence_tokens,
                "labels": model.labels,
                "dist": predict(model, aug).tolist(),
            }
        )
    _write_tagged(rows, args.out)
    with open(str(args.out) + ".dist.jsonl", "w", encoding="utf-8", newline="") as handle:
        for row in sidecar_rows:
            handle.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def cmd_split(args) -> int:
    plan = kfold_split(read_conll(args.data), args.k, args.seed)
    _dump_json({"k": plan.k, "seed": plan.seed, "assignments": plan.assignments}, args.out)
    return 0


def _is_strings(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _sidecar_row(row) -> dict:
    """A checked sidecar row, its ``dist`` as a (tokens, labels) float array."""
    if not isinstance(row, dict):
        raise ValueError("row must be a JSON object")
    augmenter.check_sentence_id(row.get("id"))
    for key in ("tokens", "labels"):
        if not _is_strings(row.get(key)):
            raise ValueError(f"{key!r} must be a list of strings")
    n, k = len(row["tokens"]), len(row["labels"])
    try:
        dist = np.array(row.get("dist"))
    except ValueError:  # ragged rows
        dist = None
    if dist is not None and dist.size == 0 == n * k:
        dist = dist.reshape(n, k)
    if dist is None or dist.shape != (n, k) or dist.dtype.kind not in "fiu" or not np.isfinite(dist).all():
        raise ValueError(f"'dist' must be {n} rows of {k} finite numbers")
    return {**row, "dist": dist.astype(np.float64, copy=False)}


def _read_sidecar(path, first: list[dict] | None = None) -> list[dict]:
    """Rows of a ``.dist.jsonl`` sidecar. Every row has the labels of the
    file's first row, which are distinct BIO tags; given ``first``, the rows
    of the first prediction file, each row has the id, tokens and labels of
    the row at its place there. A bad line raises an InputError naming
    ``path:line``."""
    rows: list[dict] = []

    def parse(line: str) -> None:
        if not line.strip():
            return
        row = _sidecar_row(json.loads(line))
        if first is not None:
            if len(rows) == len(first):
                raise ValueError(f"row {len(rows) + 1} is past the {len(first)} rows of the first prediction file")
            for key in ("id", "tokens", "labels"):
                if row[key] != first[len(rows)][key]:
                    raise ValueError(f"{key!r} does not match row {len(rows) + 1} of the first prediction file")
        elif not rows:
            if not row["labels"] or len(set(row["labels"])) != len(row["labels"]):
                raise ValueError("'labels' must be a non-empty list of distinct tags")
            for label in row["labels"]:
                check_tag(label)
        elif row["labels"] != rows[0]["labels"]:
            raise ValueError("'labels' does not match the first row")
        rows.append(row)

    parse_lines(path, parse)
    if first is not None and len(rows) != len(first):
        raise InputError(path, None, f"{len(rows)} rows where the first prediction file has {len(first)}")
    return rows


def cmd_vote(args) -> int:
    if len(args.weights) != len(args.preds):
        raise ValueError(f"{len(args.weights)} weights for {len(args.preds)} prediction files")
    first = _read_sidecar(args.preds[0])
    folds = [first] + [_read_sidecar(path, first) for path in args.preds[1:]]
    preds = WeightedPredictions(
        labels=first[0]["labels"] if first else [],
        weights=args.weights,
        distributions=[[row["dist"] for row in fold] for fold in folds],
    )
    voted = weighted_vote(preds, hard=args.hard)
    rows = [(row["id"], row["tokens"], tags) for row, tags in zip(first, voted)]
    _write_tagged(rows, args.out)
    return 0


def _tags_by_id(blocks: list[tuple[str, list[str]]], path) -> dict[str, list[str]]:
    by_id: dict[str, list[str]] = {}
    for sid, tags in blocks:
        if sid in by_id:
            raise InputError(path, None, f"duplicate id {sid!r}")
        by_id[sid] = tags
    return by_id


def cmd_score(args) -> int:
    gold_sentences = read_conll(args.gold)
    if any(s.gold_tags is None for s in gold_sentences):
        raise InputError(args.gold, None, "contains unlabeled sentences")
    gold = _tags_by_id([(s.id, s.gold_tags) for s in gold_sentences], args.gold)
    pred = _tags_by_id(_read_tag_sequences(args.pred), args.pred)
    for sid, tags in gold.items():
        if sid not in pred:
            raise InputError(args.pred, None, f"no prediction for id {sid!r}")
        if len(pred[sid]) != len(tags):
            raise InputError(args.pred, None, f"id {sid!r} has {len(pred[sid])} tags for {len(tags)} gold tokens")
    extra = next((sid for sid in pred if sid not in gold), None)
    if extra is not None:
        raise InputError(args.pred, None, f"id {extra!r} is not in {args.gold}")
    report = score(list(gold.values()), [pred[sid] for sid in gold])
    if args.report == "json":
        _dump_json(report.to_dict(), None)
    else:
        for name, cs in sorted(report.per_class.items()):
            print(f"{name}: P={cs.precision:.4f} R={cs.recall:.4f} F1={cs.f1:.4f} (tp={cs.tp} fp={cs.fp} fn={cs.fn})")
        print(f"micro: P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}")
        print(f"macro F1: {report.macro_f1:.4f}")
    return 0


def cmd_synthetic_ab(args) -> int:
    config = SyntheticConfig(epochs=args.epochs)
    report = run_synthetic_ab(args.seed, properties=args.properties, mask_mode=args.mask_mode, config=config)
    _dump_json(report, args.out)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser that raises a usage error as a ValueError where argparse
    would print its usage text and exit."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value file supplying defaults for any flag")
    sub.add_argument("--verbose", action="store_true", help="log at INFO level")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _ArgumentParser(prog="propner", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str, fn) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=fn)
        _add_common(sub)
        subs[name] = sub
        return sub

    sub = command("build-kb", "compile a dump into a knowledge base directory", cmd_build_kb)
    sub.add_argument("--dump", required=True, help="JSON-lines entity dump")
    sub.add_argument("--lang", required=True, help="language code for names and labels")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--properties", type=_parse_properties, default=FULL_PROPERTY_MASK,
                     help="comma list of instanceof,subclassof,occupation")
    sub.add_argument("--qid-cap", type=int, default=DEFAULT_QID_CAP, help="max qids kept per surface")

    sub = command("coverage", "fraction of gold mentions found in the kb", cmd_coverage)
    sub.add_argument("--kb", required=True)
    sub.add_argument("--data", required=True)

    sub = command("retrieve", "entity/context pairs per sentence as JSON lines", cmd_retrieve)
    sub.add_argument("--kb", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", required=True)

    sub = command("augment", "assemble model inputs with entity-aware masks", cmd_augment)
    sub.add_argument("--kb", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--max-len", type=int, default=TrainConfig.max_len)
    sub.add_argument("--mask-mode", choices=augmenter.MASK_MODES, default="default")

    sub = command("train", "train the tagger on augmented inputs", cmd_train)
    sub.add_argument("--aug", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--lr", type=float, default=TrainConfig.lr)
    sub.add_argument("--d-model", type=int, default=TrainConfig.d_model)
    sub.add_argument("--heads", dest="n_heads", type=int, default=TrainConfig.n_heads)
    sub.add_argument("--layers", dest="n_layers", type=int, default=TrainConfig.n_layers)
    sub.add_argument("--ff-dim", type=int, default=TrainConfig.ff_dim)
    sub.add_argument("--max-len", type=int, default=TrainConfig.max_len)

    sub = command("predict", "tag augmented inputs; writes tags plus a .dist.jsonl sidecar", cmd_predict)
    sub.add_argument("--model", required=True)
    sub.add_argument("--aug", required=True)
    sub.add_argument("--out", required=True)

    sub = command("split", "deterministic k-fold assignment", cmd_split)
    sub.add_argument("--data", required=True)
    sub.add_argument("--k", type=int, default=8)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", help="plan file; stdout when omitted")

    sub = command("vote", "F1-weighted vote over prediction sidecars", cmd_vote)
    sub.add_argument("--preds", nargs="+", required=True, help="one .dist.jsonl file per fold")
    sub.add_argument("--weights", type=_parse_weights, required=True, help="comma list, one weight per fold")
    sub.add_argument("--hard", action="store_true", help="one-hot votes instead of distributions")
    sub.add_argument("--out", required=True)

    sub = command("score", "entity-level micro/macro F1", cmd_score)
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.add_argument("--report", choices=("json", "text"), default="text")

    sub = command("synthetic-ab", "baseline vs knowledge-augmented A/B on a seeded corpus", cmd_synthetic_ab)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", help="report file; stdout when omitted")
    sub.add_argument("--properties", type=_parse_properties, default=FULL_PROPERTY_MASK)
    sub.add_argument("--mask-mode", choices=augmenter.MASK_MODES, default="default")
    sub.add_argument("--epochs", type=int, default=SyntheticConfig.epochs)

    return parser, subs


def _scan_config_path(argv: list[str]) -> str | None:
    for i, item in enumerate(argv):
        if item == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if item.startswith("--config="):
            return item.split("=", 1)[1]
    return None


_CONFIG_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True), **dict.fromkeys(("0", "false", "no", "off"), False)}


def _config_value(action: argparse.Action, value: str) -> object:
    """``value`` converted as the command line converts it for ``action``;
    a value the command line would refuse raises ValueError."""
    if action.nargs == 0 and action.const is True:
        if value.lower() not in _CONFIG_BOOLS:
            raise ValueError(f"expected true or false, got {value!r}")
        return _CONFIG_BOOLS[value.lower()]
    parts = [value] if action.nargs is None else value.split()
    if not parts:
        raise ValueError("expected at least one value")
    try:
        converted = [action.type(part) if action.type else part for part in parts]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from None
    if action.choices is not None and any(item not in action.choices for item in converted):
        raise ValueError(f"expected one of {', '.join(action.choices)}, got {value!r}")
    return converted[0] if action.nargs is None else converted


def _apply_config_defaults(sub: argparse.ArgumentParser, path: str) -> None:
    by_flag = {}
    for action in sub._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                by_flag[option[2:]] = action

    def parse(line: str) -> None:
        line = line.strip()
        if not line or line.startswith("#"):
            return
        if "=" not in line:
            raise ValueError("expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        action = by_flag.get(key)
        if action is None or key in ("config", "help"):
            raise ValueError(f"unknown config key {key!r}")
        sub.set_defaults(**{action.dest: _config_value(action, value)})
        action.required = False

    parse_lines(path, parse)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = _build_parser()
    config_path = _scan_config_path(argv)
    try:
        if config_path is not None and argv and argv[0] in subs:
            _apply_config_defaults(subs[argv[0]], config_path)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help; a usage error raises ValueError
            return 0 if exc.code in (0, None) else 1
        logging.basicConfig(level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
        return int(args.func(args) or 0)
    except (KnowledgeBaseInconsistencyError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TrainingDivergedError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
