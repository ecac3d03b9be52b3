"""Command-line entry point and dataset I/O.

Dataset files are CoNLL-style: sentence blocks separated by blank lines,
an optional ``# id <string>`` header per block, and token lines
``token _ _ TAG`` (the tag column is absent for unlabeled data, which
``score`` and ``coverage`` refuse). Every subcommand accepts ``--config
FILE`` with ``key = value`` lines supplying any flag; explicit command-line
flags win. argparse finds ``--config`` as it finds any flag, so an
abbreviation works and the last one given wins.

Exit codes: 0 success (``--help`` included), 1 any error, which is one
line on stderr.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import logging
import sys
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from propner import augmenter
from propner.encoder import TrainConfig, load_model, predict, predict_tags, save_model, train
from propner.ensemble import WeightedPredictions, check_labels, check_tag, kfold_split, weighted_vote
from propner.evaluator import coverage_rate, score
from propner.inputs import InputError, parse_lines, read_lines, refuse_bom, write_text
from propner.kbstore import (DEFAULT_QID_CAP, FULL_PROPERTY_MASK, DumpErrorReport, build_knowledge_base, load_kb,
                              parse_dump, save_kb)
from propner.matcher import Sentence, build_matcher, retrieve
from propner.synthetic import SyntheticConfig, run_synthetic_ab

logger = logging.getLogger("propner.cli")  # also when run as __main__


def _read_blocks(path, widths: tuple[int, ...]) -> list[tuple[str, list[list[str]], int]]:
    """Blank-line separated blocks as (id, rows of whitespace-separated
    fields, the number of the block's first line). The id comes from a
    ``# id <string>`` header, or is the block index; a block's first line is
    its header, or its first row if it has none. A repeated id is an error
    at its second header or, for a block without one, at its first row. Any
    other line, ``#love _ _ O`` included, is a row of one of ``widths``
    fields, as many as the first row of its block. A row of 2 (token, tag)
    or 4 (token _ _ tag) fields ends in a BIO tag; each distinct tag is
    checked once.

    One loop runs over the lines of ``read_lines`` and one empty line past
    the end, which closes the last block; a defect found there is reported
    at the file's last line, or at line 1 of an empty file, as
    ``parse_lines`` reports it."""
    blocks: list[tuple[str, list[list[str]], int]] = []
    starts: dict[str, int] = {}  # the first line of each id's block
    sentence_id: str | None = None
    rows: list[list[str]] = []
    tags: set[str] = set()
    lines = [*read_lines(path), ""]
    number = width = 0  # the line being parsed, and the number of fields of each row of its block

    def claim(sid: str) -> str:
        if sid in starts:
            raise ValueError(f"duplicate id {sid!r}")
        starts[sid] = number
        return sid

    try:
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            if not fields:
                if rows:
                    blocks.append((sentence_id, rows, starts[sentence_id]))
                    sentence_id, rows = None, []
                elif sentence_id is not None:
                    raise ValueError(f"header for id {sentence_id!r} has no token lines")
            elif fields[0] == "#" and fields[1:2] == ["id"]:
                if len(fields) != 3:
                    raise ValueError("header must look like '# id <string>'")
                if rows:
                    raise ValueError("'# id' header inside a sentence block")
                if sentence_id is not None:
                    raise ValueError(f"header for id {sentence_id!r} has no token lines")
                sentence_id = claim(fields[2])
            else:
                if sentence_id is None:
                    sentence_id = claim(str(len(blocks)))
                if not rows or len(fields) != width:  # the block's first row, or a defect
                    if len(fields) not in widths:
                        raise ValueError(f"expected {' or '.join(map(str, widths))} columns, got {len(fields)}")
                    if rows:
                        raise ValueError(f"{len(fields)} columns in a block whose first line has {width}")
                    width = len(fields)
                if width % 2 == 0 and fields[-1] not in tags:
                    tags.add(check_tag(fields[-1]))
                rows.append(fields)
    except ValueError as exc:
        raise InputError(path, min(number, len(lines) - 1) or 1, str(exc)) from None
    return blocks


def read_conll(path, labeled: bool = False) -> list[Sentence]:
    """Parse a dataset file into sentences; block index becomes the id when
    no ``# id`` header is present. If ``labeled``, every row must carry a
    tag."""
    sentences = []
    for sid, rows, _ in _read_blocks(path, (4,) if labeled else (3, 4)):
        tags = [fields[3] for fields in rows] if len(rows[0]) == 4 else None
        sentences.append(Sentence(sid, [fields[0] for fields in rows], tags))
    return sentences


def write_conll(sentences: list[Sentence], path) -> None:
    """Dataset output: '# id' headers and token _ _ tag lines, or token _ _
    lines for a sentence without gold tags."""

    def rows(sentence: Sentence) -> Iterator[str]:
        if sentence.gold_tags is None:
            return (f"{token} _ _\n" for token in sentence.tokens)
        return (f"{token} _ _ {tag}\n" for token, tag in zip(sentence.tokens, sentence.gold_tags))

    write_text(path, (f"# id {sentence.id}\n" + "".join(rows(sentence)) + "\n" for sentence in sentences))


def _write_tagged(rows: Iterable[tuple[str, list[str], list[str]]], path) -> None:
    """Prediction output: '# id' headers and token<TAB>tag lines."""
    write_text(path, (f"# id {sid}\n" + "".join(f"{token}\t{tag}\n" for token, tag in zip(tokens, tags)) + "\n"
                      for sid, tokens, tags in rows))


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
        write_text(path, [text])
    else:
        sys.stdout.write(text)


def cmd_build_kb(args) -> None:
    report = DumpErrorReport()
    with open(args.dump, "rb") as handle:
        refuse_bom(args.dump, handle.peek(3))
        kb = build_knowledge_base(parse_dump(handle, report), args.lang, args.properties, qid_cap=args.qid_cap)
    save_kb(kb, args.out)
    for error in report:
        logger.warning("dump line %d skipped: %s", error.line_number, error.message)
    print(f"built kb: {len(kb.surface_index)} surfaces, {len(kb.contexts)} entities, {len(report)} bad lines")


def cmd_coverage(args) -> None:
    kb = load_kb(args.kb)
    rate = coverage_rate(kb, read_conll(args.data, labeled=True))
    print(json.dumps({"coverage_rate": rate}, sort_keys=True))


def cmd_retrieve(args) -> None:
    kb = load_kb(args.kb)
    matcher = build_matcher(kb)

    def lines(sentences: list[Sentence]) -> Iterator[str]:
        for sentence in sentences:
            pairs = retrieve(kb, matcher, sentence)
            row = {
                "id": sentence.id,
                "pairs": [
                    {"start": m.start, "end": m.end, "qid": m.qid, "context": m.context} for m in pairs
                ],
            }
            yield json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"

    # --data is read whole before --out is opened, so a bad one leaves --out as it was.
    write_text(args.out, lines(read_conll(args.data)))


def cmd_augment(args) -> None:
    kb = load_kb(args.kb)
    matcher = build_matcher(kb)
    augs = []
    for index, sentence in enumerate(read_conll(args.data)):
        pairs = retrieve(kb, matcher, sentence)
        try:
            augs.append(augmenter.assemble(sentence, pairs, args.max_len, args.mask_mode))
        except ValueError as exc:  # the sentence does not fit --max-len
            raise InputError(args.data, _read_blocks(args.data, (3, 4))[index][2], str(exc)) from None
    augmenter.write_jsonl(augs, args.out)


def cmd_train(args) -> None:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    dataset = augmenter.read_jsonl(args.aug, max_len=config.max_len, labeled=True)
    if not dataset:
        raise InputError(args.aug, None, "training dataset is empty")
    model = train(dataset, config)
    save_model(model, args.out)
    print(f"trained {config.epochs} epochs, final loss {model.epoch_losses[-1]:.6f}" if model.epoch_losses else "trained")


SIDECAR_FORMAT = {"format": "propner-dist", "version": 3}
SIDECAR_BLOCK_ROWS = 1024  # the most rows that one block line of a sidecar holds


def sidecar_header(labels: list[str]) -> str:
    """Line 1 of a ``.dist.jsonl`` sidecar: its format, and the labels that
    name the columns of every block's ``dist``."""
    return json.dumps({**SIDECAR_FORMAT, "labels": labels}, sort_keys=True, ensure_ascii=False) + "\n"


def sidecar_block(rows: list[tuple[str, list[str], np.ndarray]]) -> str:
    """The sidecar line of one block of ``rows``, each an id, its tokens and
    its (tokens, labels) distribution: their ids, their tokens and, as
    padded base64, their distributions stacked into one array of row-major
    little-endian float64, which reads back bit for bit. The line is the
    one ``json.dumps`` writes with sorted keys, but it is joined from its
    parts, so the base64 text, which needs no escape, is copied once."""
    ids, tokens, dists = zip(*rows)
    dist = base64.b64encode(np.concatenate(dists).astype("<f8", copy=False)).decode("ascii")
    rest = json.dumps({"ids": ids, "tokens": tokens}, sort_keys=True, ensure_ascii=False)
    return "".join(('{"dist": "', dist, '", ', rest[1:], "\n"))


def write_sidecar(path, labels: list[str], rows: list[tuple[str, list[str], np.ndarray]]) -> None:
    """Write the sidecar of ``rows`` to ``path``: the header, then one block
    line for each ``SIDECAR_BLOCK_ROWS`` rows, each made as it is written."""
    blocks = (sidecar_block(rows[at : at + SIDECAR_BLOCK_ROWS]) for at in range(0, len(rows), SIDECAR_BLOCK_ROWS))
    write_text(path, chain([sidecar_header(labels)], blocks))


def cmd_predict(args) -> None:
    model = load_model(args.model)
    augs = augmenter.read_jsonl(args.aug, max_len=model.max_len)
    tagged, sidecar = [], []
    for aug in augs:
        sentence_tokens = aug.tokens[1 : aug.n_sentence + 1]
        tagged.append((aug.sentence_id, sentence_tokens, predict_tags(model, aug)))
        sidecar.append((aug.sentence_id, sentence_tokens, predict(model, aug)))
    _write_tagged(tagged, args.out)  # first: an --out that cannot be written leaves no sidecar
    write_sidecar(str(args.out) + ".dist.jsonl", model.labels, sidecar)


def cmd_split(args) -> None:
    plan = kfold_split(read_conll(args.data), args.k, args.seed)
    _dump_json({"k": plan.k, "seed": plan.seed, "assignments": plan.assignments}, args.out)


def _block_rows_pass(ids: list, tokens: list, seen: set[str]) -> bool:
    """Whether every row of a sidecar block passes ``check_id_and_tokens``
    with an id in neither ``seen`` nor an earlier row: one check of all the
    block's ids and tokens at once."""
    try:
        augmenter.check_id_and_tokens("block", [*ids, *chain.from_iterable(tokens)])
    except (TypeError, ValueError):  # a row of tokens that is not a list may not iterate
        return False
    return set(map(type, tokens)) <= {list} and all(tokens) and len(set(ids)) == len(ids) and seen.isdisjoint(ids)


def _read_sidecar(path, first: tuple | None = None) -> tuple[list[str], list[str], list[list[str]], np.ndarray]:
    """The labels, the ids, the tokens and the distributions of a
    ``.dist.jsonl`` sidecar of format 3: one (Σtokens, labels) float64 array
    of all its rows in order, the block's own array when the file has one
    block. The header's labels pass ``check_labels``. Each block line is
    checked whole as it is read: it holds 1 to ``SIDECAR_BLOCK_ROWS`` rows,
    each row passes ``check_id_and_tokens`` with an id not seen before, and
    ``dist`` is padded base64 of exactly the rows' values, all finite. Given
    ``first``, what this returned for the first prediction file, the labels
    are the same and each block holds the ids and tokens of the rows at its
    place there. Either check runs over the block as a whole, and row by row
    only to name the row of a defect. A defect raises an InputError at its
    line, the first one in the file; a row's defect names the row, and its
    id if it has one."""
    first_labels, first_ids, first_tokens, _ = first or (None, [], [], None)
    labels: list[str] = []  # empty until the header is read
    ids: list[str] = []
    tokens: list[list[str]] = []
    arrays: list[np.ndarray] = []  # one per block
    seen: set[str] = set()

    def parse_header(line: str) -> None:
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or any(header.get(key) != value for key, value in SIDECAR_FORMAT.items()):
            raise ValueError("not a propner-dist sidecar of version 3 (re-run propner predict)")
        if first_labels is not None and header.get("labels") != first_labels:
            raise ValueError("'labels' does not match the first prediction file")
        labels.extend(first_labels or check_labels(header.get("labels")))

    def row_defect(number: int, sid, message: str) -> ValueError:
        return ValueError(f"row {number} ({sid!r}): {message}" if isinstance(sid, str) else f"row {number}: {message}")

    def parse(line: str) -> None:
        if not labels:
            return parse_header(line)
        if not line.strip():
            return
        block = json.loads(line)
        if not isinstance(block, dict):
            raise ValueError("block must be a JSON object")
        block_ids, block_tokens = block.get("ids"), block.get("tokens")
        if not (isinstance(block_ids, list) and isinstance(block_tokens, list)
                and 0 < len(block_ids) == len(block_tokens) <= SIDECAR_BLOCK_ROWS):
            raise ValueError(f"'ids' and 'tokens' must be lists of one entry per row, 1 to {SIDECAR_BLOCK_ROWS} rows")
        start, stop = len(ids), len(ids) + len(block_ids)
        if first is None:
            if not _block_rows_pass(block_ids, block_tokens, seen):
                for number, sid, row_tokens in zip(range(start + 1, stop + 1), block_ids, block_tokens):
                    try:
                        augmenter.check_id_and_tokens(sid, row_tokens)
                    except ValueError as exc:
                        raise row_defect(number, sid, str(exc)) from None
                    if sid in seen:
                        raise row_defect(number, sid, f"duplicate id {sid!r}")
                    seen.add(sid)
            seen.update(block_ids)
        elif block_ids != first_ids[start:stop] or block_tokens != first_tokens[start:stop]:
            for number, *row in zip(range(start + 1, stop + 1), block_ids, block_tokens):
                if number > len(first_ids):
                    raise ValueError(f"row {number} is past the {len(first_ids)} rows of the first prediction file")
                for key, value, want in zip(("id", "tokens"), row, (first_ids[number - 1], first_tokens[number - 1])):
                    if value != want:
                        raise ValueError(f"{key!r} does not match row {number} of the first prediction file")
        try:
            data = base64.b64decode(block["dist"], validate=True)
        except (KeyError, TypeError, ValueError):
            raise ValueError("'dist' must be a string of padded base64") from None
        n, k = sum(map(len, block_tokens)), len(labels)
        if len(data) != 8 * n * k:
            raise ValueError(f"'dist' holds {len(data)} bytes, not the {8 * n * k} of {n} rows of {k} float64")
        values = np.frombuffer(data, "<f8").reshape(n, k)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            row = int(np.searchsorted(np.cumsum(list(map(len, block_tokens))), finite.argmin(), side="right"))
            raise row_defect(start + row + 1, block_ids[row], "'dist' must be finite")
        ids.extend(block_ids)
        tokens.extend(block_tokens)
        arrays.append(values)

    parse_lines(path, parse)
    if first is not None and len(ids) != len(first_ids):
        raise InputError(path, None, f"{len(ids)} rows where the first prediction file has {len(first_ids)}")
    return labels, ids, tokens, arrays[0] if len(arrays) == 1 else np.concatenate([np.zeros((0, len(labels))), *arrays])


def cmd_vote(args) -> None:
    labels, ids, tokens, dist = first = _read_sidecar(args.preds[0])
    folds = [dist] + [_read_sidecar(path, first)[3] for path in args.preds[1:]]
    preds = WeightedPredictions(labels, args.weights, list(map(len, tokens)), folds)
    _write_tagged(zip(ids, tokens, weighted_vote(preds, hard=args.hard)), args.out)


def cmd_score(args) -> None:
    gold = {s.id: s.gold_tags for s in read_conll(args.gold, labeled=True)}
    pred = {sid: [fields[-1] for fields in rows] for sid, rows, _ in _read_blocks(args.pred, (2, 4))}
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


def cmd_synthetic_ab(args) -> None:
    config = SyntheticConfig(epochs=args.epochs)
    report = run_synthetic_ab(args.seed, properties=args.properties, mask_mode=args.mask_mode, config=config)
    _dump_json(report, args.out)


class _ArgumentParser(argparse.ArgumentParser):
    """A parser that raises a usage error as a ValueError where argparse
    would print its usage text and exit."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser(only: str | None = None) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparser of each command, or only of
    the command named ``only`` when it names one; for help, no command or
    an unknown one, the usage text names every command."""
    parser = _ArgumentParser(prog="propner", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)  # its choices map each name to its subparser

    def command(name: str, help_text: str, fn) -> argparse.ArgumentParser | None:
        if only not in (None, name):
            return None
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=fn)
        sub.add_argument("--config", help="key = value file supplying defaults for any flag")
        sub.add_argument("--verbose", action="store_true", help="log at INFO level")
        return sub

    if sub := command("build-kb", "compile a dump into a knowledge base directory", cmd_build_kb):
        sub.add_argument("--dump", required=True, help="JSON-lines entity dump")
        sub.add_argument("--lang", required=True, help="language code for names and labels")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--properties", type=_parse_properties, default=FULL_PROPERTY_MASK,
                         help="comma list of instanceof,subclassof,occupation")
        sub.add_argument("--qid-cap", type=int, default=DEFAULT_QID_CAP, help="max qids kept per surface")

    if sub := command("coverage", "fraction of gold mentions found in the kb", cmd_coverage):
        sub.add_argument("--kb", required=True)
        sub.add_argument("--data", required=True)

    if sub := command("retrieve", "entity/context pairs per sentence as JSON lines", cmd_retrieve):
        sub.add_argument("--kb", required=True)
        sub.add_argument("--data", required=True)
        sub.add_argument("--out", required=True)

    if sub := command("augment", "assemble model inputs with entity-aware masks", cmd_augment):
        sub.add_argument("--kb", required=True)
        sub.add_argument("--data", required=True)
        sub.add_argument("--out", required=True)
        sub.add_argument("--max-len", type=int, default=TrainConfig.max_len)
        sub.add_argument("--mask-mode", choices=augmenter.MASK_MODES, default="default")

    if sub := command("train", "train the tagger on augmented inputs", cmd_train):
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

    if sub := command("predict", "tag augmented inputs; writes tags plus a .dist.jsonl sidecar", cmd_predict):
        sub.add_argument("--model", required=True)
        sub.add_argument("--aug", required=True)
        sub.add_argument("--out", required=True)

    if sub := command("split", "deterministic k-fold assignment", cmd_split):
        sub.add_argument("--data", required=True)
        sub.add_argument("--k", type=int, default=8)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--out", help="plan file; stdout when omitted")

    if sub := command("vote", "F1-weighted vote over prediction sidecars", cmd_vote):
        sub.add_argument("--preds", nargs="+", required=True, help="one .dist.jsonl file per fold")
        sub.add_argument("--weights", type=_parse_weights, required=True, help="comma list, one weight per fold")
        sub.add_argument("--hard", action="store_true", help="one-hot votes instead of distributions")
        sub.add_argument("--out", required=True)

    if sub := command("score", "entity-level micro/macro F1", cmd_score):
        sub.add_argument("--gold", required=True)
        sub.add_argument("--pred", required=True)
        sub.add_argument("--report", choices=("json", "text"), default="text")

    if sub := command("synthetic-ab", "baseline vs knowledge-augmented A/B on a seeded corpus", cmd_synthetic_ab):
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--out", help="report file; stdout when omitted")
        sub.add_argument("--properties", type=_parse_properties, default=FULL_PROPERTY_MASK)
        sub.add_argument("--mask-mode", choices=augmenter.MASK_MODES, default="default")
        sub.add_argument("--epochs", type=int, default=SyntheticConfig.epochs)

    return (parser, commands.choices) if commands.choices else _build_parser()


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
    """Run the command that ``argv`` (``sys.argv[1:]`` when None) names and
    return the exit code. A command returns nothing, and every failure is
    an exception: 0 once the command returns (or after ``--help``), 1 with
    one ``error:`` line on stderr when it raises a ValueError, an OSError
    or a KeyError."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = _build_parser(argv[0] if argv else None)
    try:
        if argv and argv[0] in subs:
            config = _ArgumentParser(prog=subs[argv[0]].prog, add_help=False)
            config.add_argument("--config")
            config_path = config.parse_known_args(argv[1:])[0].config
            if config_path is not None:
                _apply_config_defaults(subs[argv[0]], config_path)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help; a usage error raises ValueError
            return 0 if exc.code in (0, None) else 1
        # For this call only, the package logs each message once, to this
        # call's stderr, at this call's level.
        package = logging.getLogger("propner")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
        saved = package.level, package.propagate
        package.addHandler(handler)
        package.setLevel(logging.INFO if args.verbose else logging.WARNING)
        package.propagate = False
        try:
            args.func(args)
        finally:
            package.removeHandler(handler)
            package.setLevel(saved[0])
            package.propagate = saved[1]
        return 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
