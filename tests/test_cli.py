import base64
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import string
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import propner
from propner import augmenter
from propner.augmenter import Segment
from propner.cli import _read_blocks, _read_sidecar, main, read_conll, sidecar_header, sidecar_row, write_conll
from propner.encoder import TrainConfig, load_model, predict, save_model, train
from propner.ensemble import WeightedPredictions, weighted_vote
from propner.inputs import InputError, read_lines
from propner.kbstore import CONTEXTS_FILE, SURFACES_FILE, load_kb, save_kb
from propner.matcher import Sentence

from conftest import table_dump_lines
from helpers import record_line
from oracles import rule_mask


@pytest.fixture
def dump_file(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(table_dump_lines()) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.conll"
    path.write_text(
        "# id s1\n"
        "Victor _ _ B-PER\n"
        "Cousin _ _ I-PER\n"
        "met _ _ O\n"
        "a _ _ O\n"
        "stranger _ _ O\n"
        "\n"
        "# id s2\n"
        "the _ _ O\n"
        "human _ _ B-OTH\n"
        "walked _ _ O\n"
        "\n"
        "# id s3\n"
        "plain _ _ O\n"
        "words _ _ O\n"
        "\n"
        "# id s4\n"
        "Victor _ _ B-PER\n"
        "Cousin _ _ I-PER\n"
        "taught _ _ O\n"
        "\n",
        encoding="utf-8",
    )
    return path


class TestReadConll:
    def test_basic_block(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("# id 1\nVictor _ _ B-PER\nCousin _ _ I-PER\n", encoding="utf-8")
        [sentence] = read_conll(path)
        assert sentence.id == "1"
        assert sentence.tokens == ("Victor", "Cousin")
        assert sentence.gold_tags == ("B-PER", "I-PER")

    def test_sentences_refuse_change(self, tmp_path):
        """A sentence is checked once, when it is built, so neither it nor
        its tokens and tags can change after."""
        path = tmp_path / "x.conll"
        path.write_text("# id 1\nVictor _ _ B-PER\nCousin _ _ I-PER\n", encoding="utf-8")
        [sentence] = read_conll(path)
        for field in (sentence.tokens, sentence.gold_tags):
            with pytest.raises(AttributeError):
                field.append("")
            with pytest.raises(TypeError):
                field[0] = ""
        with pytest.raises(FrozenInstanceError):
            sentence.tokens = ["Victor"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert read_conll(path) == []

    def test_unlabeled_block(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("alpha _ _\nbeta _ _\n", encoding="utf-8")
        [sentence] = read_conll(path)
        assert sentence.id == "0"
        assert sentence.gold_tags is None

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("token _ _ TAG extra\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{path}:1:")):
            read_conll(path)

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("a _ _ O\nb _ _\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_conll(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("# nonsense\na _ _ O\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_conll(path)

    def test_round_trip(self, data_file, tmp_path):
        sentences = read_conll(data_file)
        out = tmp_path / "copy.conll"
        write_conll(sentences, out)
        assert read_conll(out) == sentences

    @settings(max_examples=40)
    @given(
        blocks=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["alpha", "beta", "Gamma", "delta-x"]), min_size=1, max_size=5),
                st.booleans(),
            ),
            min_size=0,
            max_size=4,
        )
    )
    def test_round_trip_generated(self, tmp_path_factory, blocks):
        sentences = []
        for index, (tokens, labeled) in enumerate(blocks):
            tags = ["O"] * len(tokens) if labeled else None
            sentences.append(Sentence(f"g{index}", tokens, tags))
        path = tmp_path_factory.mktemp("conll") / "gen.conll"
        write_conll(sentences, path)
        assert read_conll(path) == sentences


class TestPipeline:
    def test_full_pipeline(self, tmp_path, dump_file, data_file):
        kb_dir = tmp_path / "kb"
        assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb_dir)]) == 0
        assert (kb_dir / "surfaces.tsv").exists()

        assert main(["coverage", "--kb", str(kb_dir), "--data", str(data_file)]) == 0

        pairs_file = tmp_path / "pairs.jsonl"
        assert main(["retrieve", "--kb", str(kb_dir), "--data", str(data_file), "--out", str(pairs_file)]) == 0
        rows = [json.loads(line) for line in pairs_file.read_text(encoding="utf-8").splitlines()]
        assert rows[0]["id"] == "s1"
        assert rows[0]["pairs"][0] == {
            "start": 0,
            "end": 2,
            "qid": "Q434346",
            "context": "human | philosopher | politician",
        }
        assert rows[2]["pairs"] == []

        aug_file = tmp_path / "aug.jsonl"
        assert main(["augment", "--kb", str(kb_dir), "--data", str(data_file), "--out", str(aug_file), "--max-len", "64"]) == 0

        model_file = tmp_path / "model.bin"
        assert (
            main(
                ["train", "--aug", str(aug_file), "--out", str(model_file), "--seed", "3",
                 "--epochs", "60", "--max-len", "64"]
            )
            == 0
        )

        pred_file = tmp_path / "pred.tsv"
        assert main(["predict", "--model", str(model_file), "--aug", str(aug_file), "--out", str(pred_file)]) == 0
        assert (tmp_path / "pred.tsv.dist.jsonl").exists()

        assert main(["score", "--gold", str(data_file), "--pred", str(pred_file), "--report", "json"]) == 0

        plan_file = tmp_path / "plan.json"
        assert main(["split", "--data", str(data_file), "--k", "2", "--seed", "1", "--out", str(plan_file)]) == 0
        plan = json.loads(plan_file.read_text(encoding="utf-8"))
        assert plan["k"] == 2 and sorted(plan["assignments"]) == ["s1", "s2", "s3", "s4"]

        voted_file = tmp_path / "voted.tsv"
        sidecar = str(pred_file) + ".dist.jsonl"
        assert main(["vote", "--preds", sidecar, sidecar, "--weights", "0.7,0.3", "--out", str(voted_file)]) == 0
        assert voted_file.read_text(encoding="utf-8")

    def test_augment_output_loads_back(self, tmp_path, dump_file, data_file):
        from propner import augmenter

        kb_dir = tmp_path / "kb"
        main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb_dir)])
        aug_file = tmp_path / "aug.jsonl"
        main(["augment", "--kb", str(kb_dir), "--data", str(data_file), "--out", str(aug_file)])
        augs = augmenter.read_jsonl(aug_file)
        assert [aug.sentence_id for aug in augs] == ["s1", "s2", "s3", "s4"]
        assert augs[0].tokens[:7] == ("[CLS]", "Victor", "Cousin", "met", "a", "stranger", "[SEP]")

    def test_strict_paper_mode_trains_and_predicts(self, tmp_path, dump_file, data_file):
        kb_dir = tmp_path / "kb"
        main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb_dir)])
        aug_file = tmp_path / "aug.jsonl"
        assert main(["augment", "--kb", str(kb_dir), "--data", str(data_file), "--out", str(aug_file),
                     "--max-len", "64", "--mask-mode", "strict-paper"]) == 0
        model_file = tmp_path / "model.bin"
        assert main(["train", "--aug", str(aug_file), "--out", str(model_file), "--seed", "1",
                     "--epochs", "10", "--max-len", "64"]) == 0
        pred_file = tmp_path / "pred.tsv"
        assert main(["predict", "--model", str(model_file), "--aug", str(aug_file), "--out", str(pred_file)]) == 0
        assert pred_file.read_text(encoding="utf-8").startswith("# id s1")


class TestCliBehavior:
    def test_dump_with_a_byte_order_mark_is_refused(self, dump_file, tmp_path):
        """As every other text input is, at line 1, before anything is written."""
        dump_file.write_bytes(b"\xef\xbb\xbf" + dump_file.read_bytes())
        code, err = _run(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(tmp_path / "kb")])
        _assert_one_error_line(code, err, f"error: {dump_file}:1: starts with a UTF-8 byte order mark")
        assert not (tmp_path / "kb").exists()

    def test_sentence_past_max_len_is_located(self, dump_file, tmp_path):
        """The sentence that does not fit ``--max-len`` is named at its
        line in the data file, with or without an ``# id`` header."""
        kb = tmp_path / "kb"
        assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb)]) == 0
        data = tmp_path / "d.conll"
        for text, line, name in (
            ("# id s0\nshort _ _\n\n\n# id s1\nVictor _ _\nCousin _ _\nspoke _ _\n", 5, "s1"),
            ("short _ _\n\nVictor _ _\nCousin _ _\nspoke _ _\n", 3, "1"),
        ):
            data.write_text(text, encoding="utf-8")
            code, err = _run(["augment", "--kb", str(kb), "--data", str(data), "--out", str(tmp_path / "a.jsonl"),
                              "--max-len", "4"])
            _assert_one_error_line(code, err, f"error: {data}:{line}: sentence '{name}' needs 5 positions but max_len is 4")
            assert not (tmp_path / "a.jsonl").exists()

    def test_retrieve_reads_its_data_before_it_writes(self, dump_file, tmp_path):
        """A ``--data`` that is missing or malformed leaves ``--out`` as it
        was: an existing file keeps its bytes, and no new file appears."""
        kb = tmp_path / "kb"
        assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb)]) == 0
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"id": "old", "pairs": []}\n', encoding="utf-8")
        code, err = _run(["retrieve", "--kb", str(kb), "--data", str(tmp_path / "missing.conll"), "--out", str(pairs)])
        _assert_one_error_line(code, err, "missing.conll")
        assert pairs.read_text(encoding="utf-8") == '{"id": "old", "pairs": []}\n'
        data = tmp_path / "bad.conll"
        data.write_text("Paris _ _ XX\n", encoding="utf-8")
        code, err = _run(["retrieve", "--kb", str(kb), "--data", str(data), "--out", str(tmp_path / "new.jsonl")])
        _assert_one_error_line(code, err, f"error: {data}:1: ")
        assert not (tmp_path / "new.jsonl").exists()

    def test_unknown_flag_is_error(self, dump_file, tmp_path):
        assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(tmp_path / "kb"), "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "--epochs" in out

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["coverage", "--kb", str(tmp_path / "nope"), "--data", str(tmp_path / "also-nope")]) == 1

    @pytest.mark.parametrize("command", ["split", "synthetic-ab"])
    def test_negative_seed_names_the_flag(self, data_file, command):
        argv = ["split", "--data", str(data_file), "--k", "2"] if command == "split" else [command]
        _assert_one_error_line(*_run([*argv, "--seed", "-1"]), "'seed' must be an integer of at least 0, got -1")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("one two\n", encoding="utf-8")
        assert main(["split", "--data", str(bad), "--k", "2", "--seed", "1"]) == 1

    def test_surface_without_context_is_a_load_kb_input_error(self, tmp_path, dump_file, data_file):
        kb_dir = tmp_path / "kb"
        main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb_dir)])
        contexts = kb_dir / "contexts.tsv"
        lines = [line for line in contexts.read_text(encoding="utf-8").splitlines() if not line.startswith("Q434346\t")]
        contexts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        surfaces = (kb_dir / "surfaces.tsv").read_text(encoding="utf-8").splitlines()
        number = next(n for n, line in enumerate(surfaces, start=1) if line.endswith("\tQ434346"))
        code, err = _run(["retrieve", "--kb", str(kb_dir), "--data", str(data_file), "--out", str(tmp_path / "x")])
        _assert_one_error_line(code, err, f"{kb_dir / 'surfaces.tsv'}:{number}: ", "'Q434346', which has no entry")

    def test_config_file_supplies_flags(self, tmp_path, data_file):
        config = tmp_path / "run.cfg"
        config.write_text("k = 2\nseed = 9\n# comment line\nout = {}\n".format(tmp_path / "plan.json"), encoding="utf-8")
        assert main(["split", "--data", str(data_file), "--config", str(config)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert plan["k"] == 2 and plan["seed"] == 9

    def test_command_line_overrides_config(self, tmp_path, data_file):
        config = tmp_path / "run.cfg"
        config.write_text(f"k = 2\nseed = 9\nout = {tmp_path / 'plan.json'}\n", encoding="utf-8")
        assert main(["split", "--data", str(data_file), "--config", str(config), "--k", "4"]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert plan["k"] == 4

    def test_unknown_config_key_rejected(self, tmp_path, data_file):
        config = tmp_path / "run.cfg"
        config.write_text("wibble = 3\n", encoding="utf-8")
        assert main(["split", "--data", str(data_file), "--config", str(config), "--k", "2", "--seed", "1"]) == 1

    def test_seed_required_without_config(self, tmp_path, data_file):
        assert main(["split", "--data", str(data_file), "--k", "2"]) == 1

    @pytest.mark.parametrize("flag", [["--conf", "{}"], ["--conf={}"], ["--config={}"]], ids=" ".join)
    def test_abbreviated_config_flag_applies_the_file(self, tmp_path, data_file, flag):
        """argparse takes an unambiguous prefix of a flag, and the file is
        found as argparse finds the flag."""
        config = tmp_path / "run.cfg"
        config.write_text(f"k = 2\nseed = 9\nout = {tmp_path / 'plan.json'}\n", encoding="utf-8")
        assert main(["split", "--data", str(data_file), *(part.format(config) for part in flag)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert plan["k"] == 2 and plan["seed"] == 9

    def test_last_config_flag_wins(self, tmp_path, data_file):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text(f"k = 3\nseed = 1\nout = {tmp_path / 'first.json'}\n", encoding="utf-8")
        last.write_text(f"k = 2\nseed = 9\nout = {tmp_path / 'last.json'}\n", encoding="utf-8")
        assert main(["split", "--data", str(data_file), "--config", str(first), "--config", str(last)]) == 0
        assert not (tmp_path / "first.json").exists()
        plan = json.loads((tmp_path / "last.json").read_text(encoding="utf-8"))
        assert plan["k"] == 2 and plan["seed"] == 9

    @pytest.mark.parametrize("argv,needle", [
        (["split", "--data", "d.conll", "--k", "2"], "propner split: the following arguments are required: --seed"),
        (["split", "--data", "d.conll", "--k", "two", "--seed", "1"], "propner split: argument --k: invalid int"),
        (["split", "--data", "d.conll", "--seed", "1", "--bogus"], "propner: unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["split", "--data", "d.conll", "--seed", "1", "--config"], "propner split: argument --config: expected one argument"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, needle):
        code = main(argv)
        captured = capsys.readouterr()
        _assert_one_error_line(code, captured.err, needle)
        assert captured.out == ""


class TestDeterminism:
    def test_build_kb_byte_identical(self, tmp_path, dump_file):
        first, second = tmp_path / "kb1", tmp_path / "kb2"
        main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(first)])
        main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(second)])
        for name in ("surfaces.tsv", "contexts.tsv", "meta.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_split_byte_identical(self, tmp_path, data_file):
        first, second = tmp_path / "p1.json", tmp_path / "p2.json"
        main(["split", "--data", str(data_file), "--k", "2", "--seed", "7", "--out", str(first)])
        main(["split", "--data", str(data_file), "--k", "2", "--seed", "7", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


AUG_DEFECTS = [
    "negative entity range",
    "context range past the end",
    "empty entity range",
    "gold tags longer than the sentence",
    "gold tags a string",
    "unknown mask mode",
    "missing key",
    "tokens not a list",
    "malformed JSON",
    "invalid UTF-8",
    "id with a space",
    "missing id",
    "token with a space",
    "empty token",
    "gold tag not a BIO tag",
    "missing mask_mode",
    "missing gold_tags",
    "n_sentence a boolean",
    "no sentence tokens",
    "entity bound a boolean",
    "n_sentence past the tokens",
    "id with a lone surrogate",
    "context token with a lone surrogate",
    "gold tag with a lone surrogate",
    "segments overlap",
    "entity range past the sentence",
]


def _break_line_2(path, defect: str) -> None:
    """Apply one named defect, or hand-edited mask bits, to line 2 of an
    aug-JSONL file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    segment = record["segments"][0]
    if defect == "negative entity range":
        segment["entity"] = [-1, 2]
    elif defect == "context range past the end":
        segment["context"] = [segment["context"][0], len(record["tokens"]) + 3]
    elif defect == "empty entity range":
        segment["entity"] = [2, 2]
    elif defect == "gold tags longer than the sentence":
        record["gold_tags"].append("O")
    elif defect == "gold tags a string":  # one character a token, which a copy to a tuple would take as tags
        record["gold_tags"] = "O" * record["n_sentence"]
    elif defect == "unknown mask mode":
        record["mask_mode"] = "loose"
    elif defect == "missing key":
        del record["segments"]
    elif defect == "tokens not a list":
        record["tokens"] = " ".join(record["tokens"])
    elif defect == "id with a space":
        record["id"] = "s 2"
    elif defect == "missing id":
        del record["id"]
    elif defect == "token with a space":
        record["tokens"][1] = "New York"
    elif defect == "empty token":
        record["tokens"][1] = ""
    elif defect == "gold tag not a BIO tag":
        record["gold_tags"][1] = "B-X Y"
    elif defect in ("missing mask_mode", "missing gold_tags"):
        del record[defect.removeprefix("missing ")]
    elif defect == "n_sentence a boolean":  # the rest is a valid layout for a sentence of 1 token
        record.update(n_sentence=True, segments=[], gold_tags=record["gold_tags"][:1])
    elif defect == "no sentence tokens":  # a valid layout, but augment never writes an empty sentence
        record.update(tokens=["[CLS]", "[SEP]"], n_sentence=0, segments=[], gold_tags=[])
    elif defect == "entity bound a boolean":  # true reads as 1, which makes a valid range
        segment["entity"] = [True, segment["entity"][1]]
    elif defect == "n_sentence past the tokens":  # [SEP] and what follows it read as sentence tokens
        n_sentence = len(record["tokens"]) - 1
        record.update(n_sentence=n_sentence, segments=[], gold_tags=["O"] * n_sentence)
    elif defect == "id with a lone surrogate":  # json.dumps writes it as the escape "\ud800"
        record["id"] = "s\ud800"
    elif defect == "context token with a lone surrogate":  # train writes every token into the model's vocabulary
        record["tokens"][segment["context"][0]] += "\ud800"
    elif defect == "gold tag with a lone surrogate":
        record["gold_tags"][1] = "B-\ud800"
    elif defect == "segments overlap":  # a second entity whose segment shares the first one's context
        record["segments"].append({"entity": [1, 2], "context": segment["context"]})
    elif defect == "entity range past the sentence":  # ends on [SEP]
        segment["entity"] = [segment["entity"][0], record["n_sentence"] + 2]
    elif defect == "mask bits edited by hand":
        record["mask_bits"] = [[-1, -1], [0, 99]]
    lines[1] = '{"tokens": [' if defect == "malformed JSON" else json.dumps(record)
    data = "\n".join(lines).encode("utf-8") + b"\n"
    if defect == "invalid UTF-8":
        first_end = data.index(b"\n") + 1
        data = data[:first_end] + b"\xff\xfe" + data[first_end:]
    path.write_bytes(data)


class TestAugFileValidation:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A valid aug-JSONL file (line 2 is sentence s2, which has one
        segment) and a model trained on it."""
        root = tmp_path_factory.mktemp("aug")
        dump = root / "dump.jsonl"
        dump.write_text("\n".join(table_dump_lines()) + "\n", encoding="utf-8")
        data = root / "data.conll"
        write_conll(
            [
                Sentence("s1", ["Victor", "Cousin", "met", "a", "stranger"], ["B-PER", "I-PER", "O", "O", "O"]),
                Sentence("s2", ["the", "human", "walked"], ["O", "B-OTH", "O"]),
            ],
            data,
        )
        assert main(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(root / "kb")]) == 0
        aug = root / "aug.jsonl"
        assert main(["augment", "--kb", str(root / "kb"), "--data", str(data), "--out", str(aug), "--max-len", "64"]) == 0
        model = root / "model.bin"
        assert main(["train", "--aug", str(aug), "--out", str(model), "--seed", "1", "--epochs", "1", "--max-len", "64"]) == 0
        return aug, model

    def _broken_copy(self, trained, tmp_path, defect):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(trained[0].read_bytes())
        _break_line_2(path, defect)
        return path

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("defect", AUG_DEFECTS)
    def test_defect_is_one_error_line(self, trained, tmp_path, capsys, command, defect):
        broken = self._broken_copy(trained, tmp_path, defect)
        if command == "train":
            argv = ["train", "--aug", str(broken), "--out", str(tmp_path / "m.bin"), "--seed", "1", "--epochs", "1",
                    "--max-len", "64"]
        else:
            argv = ["predict", "--model", str(trained[1]), "--aug", str(broken), "--out", str(tmp_path / "p.tsv")]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{broken}:2:" in err and "Traceback" not in err
        if defect.startswith("missing "):
            assert "missing key '" in err
        if defect == "n_sentence past the tokens":
            assert "tokens cannot hold a sentence of" in err
        if defect == "segments overlap":
            assert err.endswith(":2: segment ranges overlap\n")
        if defect == "entity range past the sentence":
            assert "entity range [2, 5) outside [1, 4)" in err

    def test_hand_edited_mask_bits_are_ignored(self, trained, tmp_path):
        from propner import augmenter

        edited = self._broken_copy(trained, tmp_path, "mask bits edited by hand")
        masks = [aug.mask.bits.tobytes() for aug in augmenter.read_jsonl(edited)]
        assert masks == [aug.mask.bits.tobytes() for aug in augmenter.read_jsonl(trained[0])]
        assert main(["predict", "--model", str(trained[1]), "--aug", str(edited), "--out", str(tmp_path / "p.tsv")]) == 0


class TestHashTokens:
    def test_hash_token_in_dataset(self, tmp_path):
        path = tmp_path / "x.conll"
        path.write_text("# id t1\n#love _ _ O\nit _ _ O\n\n#tag _ _\n", encoding="utf-8")
        first, second = read_conll(path)
        assert (first.id, first.tokens, first.gold_tags) == ("t1", ("#love", "it"), ("O", "O"))
        assert (second.id, second.tokens, second.gold_tags) == ("1", ("#tag",), None)

    @pytest.mark.parametrize("header", ["# id two words", "# id"])
    def test_malformed_id_header_is_not_a_token(self, tmp_path, header):
        pred = tmp_path / "pred.tsv"
        pred.write_text(f"{header}\na\tO\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{pred}:1:")):
            _read_blocks(pred, (2, 4))

    def test_hash_token_in_predictions(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text("# id t1\n#love _ _ B-X\nit _ _ O\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("# id t1\n#love\tB-X\nit\tO\n\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["score", "--gold", str(gold), "--pred", str(pred), "--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["micro"]["f1"] == 1.0


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one ``propner`` run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_one_error_line(code: int, err: str, *needles: str) -> None:
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


class TestAmbiguousSurface:
    def test_augment_writes_one_segment_per_span(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        dump.write_text(
            "\n".join(
                [
                    record_line("Q1", "Paris", p31=["Q10", "Q11"]),
                    record_line("Q2", "Paris", p31=["Q10", "Q12"]),
                    record_line("Q10", "city"),
                    record_line("Q11", "capital"),
                    record_line("Q12", "commune"),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        data = tmp_path / "data.conll"
        write_conll([Sentence("p1", ["Paris", "is"], ["B-LOC", "O"])], data)
        assert main(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(tmp_path / "kb")]) == 0
        aug_file = tmp_path / "aug.jsonl"
        assert main(["augment", "--kb", str(tmp_path / "kb"), "--data", str(data), "--out", str(aug_file)]) == 0

        [aug] = augmenter.read_jsonl(aug_file)
        assert aug.tokens == ("[CLS]", "Paris", "is", "[SEP]", "Paris", "city", "|", "capital", "|", "commune")
        assert aug.segments == (Segment(range(1, 2), range(4, 10)),)
        assert np.array_equal(aug.mask.bits, rule_mask(aug.n_sentence, len(aug.tokens), aug.segments, aug.mask_mode))
        rewritten = tmp_path / "again.jsonl"
        augmenter.write_jsonl([aug], rewritten)
        assert rewritten.read_bytes() == aug_file.read_bytes()


GOLD_AB = "# id a\nVictor _ _ B-PER\nCousin _ _ I-PER\n\n# id b\nthe _ _ O\nhuman _ _ B-OTH\n\n"


class TestScoreById:
    def _score(self, tmp_path, pred_text: str) -> tuple[int, str, str]:
        gold = tmp_path / "gold.conll"
        gold.write_text(GOLD_AB, encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text(pred_text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, err = _run(["score", "--gold", str(gold), "--pred", str(pred), "--report", "json"])
        return code, out.getvalue(), err

    def test_reversed_order_pairs_by_id(self, tmp_path):
        code, out, _ = self._score(tmp_path, "# id b\nthe\tO\nhuman\tB-OTH\n\n# id a\nVictor\tB-PER\nCousin\tI-PER\n\n")
        assert code == 0
        assert json.loads(out)["micro"]["f1"] == 1.0

    def test_duplicate_id_is_an_error(self, tmp_path):
        code, _, err = self._score(tmp_path, "# id a\nVictor\tB-PER\nCousin\tI-PER\n\n# id a\nthe\tO\nhuman\tB-OTH\n\n")
        _assert_one_error_line(code, err, "pred.tsv:5: duplicate id 'a'")

    @pytest.mark.parametrize("pred_text,needle", [
        ("# id a\nVictor\tB-PER\nCousin\tI-PER\n\n", "no prediction for id 'b'"),
        (GOLD_AB.replace("_ _ ", "") + "# id c\nx\tO\n\n", "id 'c' is not in"),
        (GOLD_AB.replace("_ _ ", "").replace("human B-OTH\n", ""), "id 'b' has 1 tags for 2 gold tokens"),
    ])
    def test_missing_or_extra_id_is_an_error(self, tmp_path, pred_text, needle):
        code, _, err = self._score(tmp_path, pred_text)
        _assert_one_error_line(code, err, needle)

    @pytest.mark.parametrize("pred_text,needle", [
        ("# id a\n# id b\nthe\tO\nhuman\tB-OTH\n\n", ":2: header for id 'a'"),
        ("# id a\n\n# id b\nthe\tO\nhuman\tB-OTH\n\n", ":2: header for id 'a'"),
        (GOLD_AB.replace("_ _ ", "") + "# id c\n", ":9: header for id 'c'"),  # its own line, not one past the end
    ], ids=["back to back", "blank line between", "last line"])
    def test_header_without_token_lines(self, tmp_path, pred_text, needle):
        code, _, err = self._score(tmp_path, pred_text)
        _assert_one_error_line(code, err, f"pred.tsv{needle} has no token lines")

    def test_blocks_without_header_take_their_index(self, tmp_path):
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\tO\n\n# id x\nb\tO\n\nc\tO\n", encoding="utf-8")
        assert [sid for sid, _ in _read_blocks(pred, (2, 4))] == ["0", "x", "2"]

    def test_invalid_utf8_in_predictions(self, tmp_path):
        gold = tmp_path / "gold.conll"
        gold.write_text(GOLD_AB, encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_bytes(b"\xff\xfe# id a\n")
        code, err = _run(["score", "--gold", str(gold), "--pred", str(pred)])
        _assert_one_error_line(code, err, f"{pred}:1:")


def _aug_file(path, *sentences: Sentence):
    augmenter.write_jsonl([augmenter.assemble(sentence, [], 16) for sentence in sentences], path)
    return path


class TestDuplicateIds:
    """Each reader rejects a repeated sentence id at the line that repeats
    it; the sidecar reader's case is among the SIDECAR_DEFECTS."""

    @pytest.mark.parametrize("text,needle", [
        ("# id s1\na _ _ O\n\n# id s1\nb _ _ O\n", ":4: duplicate id 's1'"),
        ("a _ _ O\n\n# id 0\nb _ _ O\n", ":3: duplicate id '0'"),  # a header takes an earlier block's index
        ("# id 1\na _ _ O\n\nb _ _ O\n", ":4: duplicate id '1'"),  # a block's index is an earlier header's id
        ("# id a\n# id b\nx _ _ O\n\n# id c\ny _ _ O\n", ":2: header for id 'a' has no token lines"),
        ("x _ _ O\n\n# id a\n", ":3: header for id 'a' has no token lines"),  # a header on the last line
        ("a _ _ O\n# id b\nb _ _ O\n", ":2: '# id' header inside a sentence block"),
        ("\ufeff# id a\nx _ _ O\n", ":1: starts with a UTF-8 byte order mark"),
    ])
    def test_dataset(self, tmp_path, text, needle):
        data = tmp_path / "data.conll"
        data.write_text(text, encoding="utf-8")
        _assert_one_error_line(*_run(["split", "--data", str(data), "--k", "2", "--seed", "1"]), f"{data}{needle}")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_aug_file(self, cli_files, tmp_path, command):
        aug = _aug_file(tmp_path / "aug.jsonl", Sentence("s1", ["a"], ["O"]), Sentence("s1", ["b"], ["O"]))
        argv = {
            "train": ["train", "--aug", str(aug), "--out", str(tmp_path / "m.bin"), "--seed", "1"],
            "predict": ["predict", "--model", str(cli_files["model"]), "--aug", str(aug), "--out", str(tmp_path / "p.tsv")],
        }[command]
        _assert_one_error_line(*_run(argv), f"{aug}:2: duplicate id 's1'")


class TestAugFileMeetsTheModel:
    """An input that ``train`` or the model cannot take is reported at its
    line of the aug-JSONL file, before any step or prediction."""

    def test_train_input_longer_than_max_len(self, tmp_path):
        aug = _aug_file(tmp_path / "aug.jsonl", Sentence("s1", ["a"] * 3, ["O"] * 3), Sentence("s2", ["a"] * 5, ["O"] * 5))
        argv = ["train", "--aug", str(aug), "--out", str(tmp_path / "m.bin"), "--seed", "1", "--max-len", "6"]
        _assert_one_error_line(*_run(argv), f"{aug}:2: input of length 7 exceeds max_len 6")

    def test_predict_input_longer_than_max_len(self, tmp_path):
        short = _aug_file(tmp_path / "short.jsonl", Sentence("s1", ["a"] * 3, ["O"] * 3))
        model = tmp_path / "m.bin"
        assert main(["train", "--aug", str(short), "--out", str(model), "--seed", "1", "--epochs", "1", "--max-len", "6"]) == 0
        aug = _aug_file(tmp_path / "aug.jsonl", Sentence("s1", ["a"] * 3), Sentence("s2", ["a"] * 5))
        argv = ["predict", "--model", str(model), "--aug", str(aug), "--out", str(tmp_path / "p.tsv")]
        _assert_one_error_line(*_run(argv), f"{aug}:2: input of length 7 exceeds max_len 6")

    @pytest.mark.parametrize("first_tags,line", [(None, 1), (["O"], 2)])
    def test_train_on_unlabeled_input(self, tmp_path, first_tags, line):
        aug = _aug_file(tmp_path / "aug.jsonl", Sentence("s1", ["a"], first_tags), Sentence("s2", ["b"]))
        argv = ["train", "--aug", str(aug), "--out", str(tmp_path / "m.bin"), "--seed", "1"]
        _assert_one_error_line(*_run(argv), f"{aug}:{line}: input 's{line}' has no gold tags to train on")


LABELS = ["B-X", "O"]
DIST = np.array([[0.2, 0.8], [0.6, 0.4]])


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _sidecar_row(sid="s1", tokens=("a", "b"), values=DIST, **fields) -> str:
    """A format-2 sidecar line as ``predict`` writes it for ``values``, then
    with each of ``fields`` set or, when None, removed."""
    line = sidecar_row(sid, list(tokens), np.asarray(values, dtype=float))
    if not fields:
        return line
    row = {**json.loads(line), **fields}
    return json.dumps({key: value for key, value in row.items() if value is not None}) + "\n"


def _write_sidecar(path, *rows: str, labels=LABELS):
    path.write_text(sidecar_header(labels) + "".join(rows), encoding="utf-8")
    return path


SIDECAR_DEFECTS = {
    "not an object": "[1, 2]\n",
    "missing dist": _sidecar_row(dist=None),
    "id with a space": _sidecar_row("s 1"),
    "repeated id": _sidecar_row("s0"),
    "tokens not strings": _sidecar_row(tokens=["a", 2]),
    "token with whitespace": _sidecar_row(tokens=["New York", "b"]),
    "empty token": _sidecar_row(tokens=["", "b"]),
    "no tokens": _sidecar_row(tokens=[], values=np.zeros((0, 2))),
    "dist row count": _sidecar_row(values=DIST[:1]),
    "dist row length": _sidecar_row(dist=_b64([0.2, 0.8, 0.6])),
    "dist not numbers": _sidecar_row(dist=[[0.2, "0.8"], [0.6, 0.4]]),
    "dist not base64": _sidecar_row(dist="not base64!"),
    "dist base64 without padding": _sidecar_row(dist=_b64(DIST).rstrip("=")),
    "dist not finite": _sidecar_row(values=[[0.2, 0.8], [np.nan, 0.4]]),
    "dist too large for a float": _sidecar_row(values=[[0.2, 0.8], [np.inf, 0.4]]),
    "invalid UTF-8": "\udcff\n",
    "id with a lone surrogate": _sidecar_row(id="s\ud800"),  # json.dumps writes the escape "\ud800"
    "token with a lone surrogate": _sidecar_row(tokens=["a\ud800", "b"], dist=_b64(DIST)),
}

HEADER_DEFECTS = {
    "format-1 file": json.dumps({"id": "s1", "tokens": ["a", "b"], "labels": LABELS, "dist": DIST.tolist()}) + "\n",
    "empty file": "",
    "not JSON": "{\n",
    "version 1": '{"format": "propner-dist", "labels": ["B-X", "O"], "version": 1}\n',
    "format missing": '{"labels": ["B-X", "O"], "version": 2}\n',
    "labels not a list": sidecar_header("O"),
    "labels with a lone surrogate": '{"format": "propner-dist", "labels": ["B-\\ud800", "O"], "version": 2}\n',
}


class TestSidecarValidation:
    @pytest.mark.parametrize("defect", sorted(SIDECAR_DEFECTS))
    def test_defect_is_one_error_line(self, tmp_path, defect):
        sidecar = tmp_path / "p.dist.jsonl"
        text = sidecar_header(LABELS) + _sidecar_row("s0") + SIDECAR_DEFECTS[defect]
        sidecar.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, err = _run(["vote", "--preds", str(sidecar), "--weights", "1", "--out", str(tmp_path / "v.tsv")])
        _assert_one_error_line(code, err, f"{sidecar}:3:")

    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    def test_header_defect(self, tmp_path, defect):
        """A file of format 1, which has labels and numbers in every row and
        no header, is refused at its first line, as is any other first line
        that is not a format-2 header."""
        sidecar = tmp_path / "p.dist.jsonl"
        sidecar.write_text(HEADER_DEFECTS[defect], encoding="utf-8")
        code, err = _run(["vote", "--preds", str(sidecar), "--weights", "1", "--out", str(tmp_path / "v.tsv")])
        needle = {
            "labels not a list": "'labels' must be",
            "labels with a lone surrogate": "'labels': invalid BIO tag 'B-\\ud800'",
        }.get(defect, "not a propner-dist sidecar of version 2 (re-run")
        _assert_one_error_line(code, err, f"{sidecar}:1: {needle}")

    def test_valid_rows_vote(self, tmp_path):
        sidecar = _write_sidecar(tmp_path / "p.dist.jsonl", _sidecar_row(), _sidecar_row("s2", ["c"], [[0.9, 0.1]]))
        out = tmp_path / "v.tsv"
        assert main(["vote", "--preds", str(sidecar), str(sidecar), "--weights", "1,1", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "# id s1\na\tO\nb\tB-X\n\n# id s2\nc\tB-X\n\n"

    def test_weight_count_must_match_the_files(self, tmp_path):
        """``WeightedPredictions`` holds the rule; the CLI reports it."""
        sidecar = _write_sidecar(tmp_path / "p.dist.jsonl", _sidecar_row())
        argv = ["vote", "--preds", str(sidecar), str(sidecar), "--weights", "1,1,1", "--out", str(tmp_path / "v.tsv")]
        _assert_one_error_line(*_run(argv), "error: 3 weights for 2 folds")
        assert not (tmp_path / "v.tsv").exists()

    @pytest.mark.parametrize("labels,dist", [
        (["O", "O"], [[0.2, 0.8], [0.6, 0.4]]), ([], [[], []]), (["O", "B-X"], [[0.2, 0.8], [0.6, 0.4]]),
    ])
    def test_labels_repeated_or_empty(self, tmp_path, labels, dist):
        """Repeated, empty or unsorted labels in the header."""
        sidecar = _write_sidecar(tmp_path / "p.dist.jsonl", _sidecar_row(values=dist), labels=labels)
        code, err = _run(["vote", "--preds", str(sidecar), "--weights", "1", "--out", str(tmp_path / "v.tsv")])
        rule = "distinct and in sorted order" if labels else "a non-empty list of strings"
        _assert_one_error_line(code, err, f"{sidecar}:1: 'labels' must be {rule}")

    def test_empty_sidecars_vote(self, tmp_path):
        """Sidecars of a header and no rows, as ``predict`` writes for no inputs."""
        sidecar = _write_sidecar(tmp_path / "p.dist.jsonl")
        out = tmp_path / "v.tsv"
        assert main(["vote", "--preds", str(sidecar), str(sidecar), "--weights", "1,1", "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_label_not_a_bio_tag(self, tmp_path):
        sidecar = _write_sidecar(tmp_path / "p.dist.jsonl", _sidecar_row(), labels=["PER", "O"])
        code, err = _run(["vote", "--preds", str(sidecar), "--weights", "1", "--out", str(tmp_path / "v.tsv")])
        _assert_one_error_line(code, err, f"{sidecar}:1:", "invalid BIO tag 'PER'")

    @pytest.mark.parametrize("rows,needle", [
        ([sidecar_header(["B-Y", "O"]), _sidecar_row(), _sidecar_row("s2")], ":1: 'labels'"),
        ([sidecar_header(LABELS), _sidecar_row("s3"), _sidecar_row("s2")], ":2: 'id'"),
        ([sidecar_header(LABELS), _sidecar_row("s1", ["a"], [[0.5, 0.5]]), _sidecar_row("s2")], ":2: 'tokens'"),
        ([sidecar_header(LABELS), _sidecar_row("s1", ["a", "c"]), _sidecar_row("s2")], ":2: 'tokens'"),
        ([sidecar_header(LABELS), _sidecar_row(), _sidecar_row("s2"), _sidecar_row("s3")], ":4: row 3 is past the 2 rows"),
        ([sidecar_header(LABELS), _sidecar_row()], ": 1 rows where the first prediction file has 2"),
    ])
    def test_fold_rows_must_match_the_first_file(self, tmp_path, rows, needle):
        """``rows`` are the lines of the second file, its header first."""
        first = _write_sidecar(tmp_path / "first.dist.jsonl", _sidecar_row(), _sidecar_row("s2"))
        other = tmp_path / "other.dist.jsonl"
        other.write_text("".join(rows), encoding="utf-8")
        argv = ["vote", "--preds", str(first), str(other), "--weights", "1,1", "--out", str(tmp_path / "v.tsv")]
        _assert_one_error_line(*_run(argv), f"{other}{needle}")

    def test_predict_without_inputs_writes_the_header(self, cli_files, tmp_path):
        aug = tmp_path / "empty.jsonl"
        aug.write_bytes(b"")
        pred = tmp_path / "p.tsv"
        assert main(["predict", "--model", str(cli_files["model"]), "--aug", str(aug), "--out", str(pred)]) == 0
        labels = json.loads(cli_files["sidecar"].read_text(encoding="utf-8").splitlines()[0])["labels"]
        assert Path(f"{pred}.dist.jsonl").read_text(encoding="utf-8") == sidecar_header(labels)

    def test_predict_to_a_directory_writes_no_sidecar(self, cli_files, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["predict", "--model", str(cli_files["model"]), "--aug", str(cli_files["aug"]), "--out", str(out)]
        _assert_one_error_line(*_run(argv), f"Is a directory: '{out}'")
        assert not Path(f"{out}.dist.jsonl").exists()

    def test_dist_is_predict_bit_for_bit(self, cli_files):
        model = load_model(cli_files["model"])
        augs = augmenter.read_jsonl(cli_files["aug"])
        labels, rows = _read_sidecar(cli_files["sidecar"])
        assert labels == model.labels and [row["id"] for row in rows] == [aug.sentence_id for aug in augs]
        for row, aug in zip(rows, augs):
            assert row["dist"].tobytes() == predict(model, aug).tobytes()


FLOAT64 = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=100, deadline=None)
@given(dist=st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=FLOAT64)))
@example(dist=np.array([[-0.0, 0.0], [5e-324, -2.2250738585072014e-308], [np.finfo(float).max, -np.finfo(float).tiny]]))
def test_sidecar_round_trip_is_bit_identical(tmp_path_factory, dist):
    labels = [f"B-L{i}" for i in range(dist.shape[1])]
    path = _write_sidecar(tmp_path_factory.mktemp("sidecar") / "p.dist.jsonl", sidecar_row("s1", ["t"] * len(dist), dist),
                          labels=labels)
    read_labels, [row] = _read_sidecar(path)
    assert read_labels == labels and (row["id"], row["tokens"]) == ("s1", ["t"] * len(dist))
    assert row["dist"].shape == dist.shape and row["dist"].tobytes() == dist.astype("<f8").tobytes()


@pytest.mark.parametrize("hard", [False, True])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 0.2)])
def test_vote_over_sidecars_is_weighted_vote(cli_files, tmp_path, hard, weights):
    """The second fold is the first with its label columns reversed, so
    under equal weights every token's scores tie between mirrored labels,
    soft and hard."""
    model = load_model(cli_files["model"])
    augs = augmenter.read_jsonl(cli_files["aug"])
    folds = [[predict(model, aug) for aug in augs]]
    folds.append([dist[:, ::-1] for dist in folds[0]])
    paths = []
    for index, dists in enumerate(folds):
        rows = [sidecar_row(aug.sentence_id, aug.tokens[1 : aug.n_sentence + 1], dist) for aug, dist in zip(augs, dists)]
        paths.append(str(_write_sidecar(tmp_path / f"fold{index}.dist.jsonl", *rows, labels=model.labels)))
    out = tmp_path / "voted.tsv"
    argv = ["vote", "--preds", *paths, "--weights", ",".join(map(str, weights)), "--out", str(out)]
    assert main(argv + ["--hard"] * hard) == 0
    expected = weighted_vote(WeightedPredictions(model.labels, list(weights), folds), hard=hard)
    voted = [(sid, [tag for _, tag in rows]) for sid, rows in _read_blocks(out, (2, 4))]
    assert voted == [(aug.sentence_id, tags) for aug, tags in zip(augs, expected)]
    config, from_config = tmp_path / "vote.cfg", tmp_path / "voted-by-config.tsv"
    config.write_text(f"hard = {'yes' if hard else 'no'}\n", encoding="utf-8")
    assert main([*argv[:-1], str(from_config), "--config", str(config)]) == 0
    assert from_config.read_bytes() == out.read_bytes()


class TestTagsNameTheirFile:
    def test_dataset_tag(self, tmp_path, dump_file):
        data = tmp_path / "data.conll"
        data.write_text("# id a\nVictor _ _ PER\n", encoding="utf-8")
        assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(tmp_path / "kb")]) == 0
        argv = ["augment", "--kb", str(tmp_path / "kb"), "--data", str(data), "--out", str(tmp_path / "aug.jsonl")]
        _assert_one_error_line(*_run(argv), f"{data}:2: invalid BIO tag 'PER'")

    def test_aug_tag_with_trailing_newline(self, tmp_path):
        aug = tmp_path / "aug.jsonl"
        augmenter.write_jsonl([augmenter.assemble(Sentence("s1", ["a", "b"], ["B-X", "O\n"]), [], 16)], aug)
        argv = ["train", "--aug", str(aug), "--out", str(tmp_path / "m.bin"), "--seed", "1"]
        _assert_one_error_line(*_run(argv), f"{aug}:1: invalid BIO tag 'O\\n'")

    def test_prediction_tag(self, tmp_path):
        gold = tmp_path / "gold.conll"
        gold.write_text(GOLD_AB, encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text(GOLD_AB.replace("_ _ ", "").replace("human B-OTH", "human X"), encoding="utf-8")
        code, err = _run(["score", "--gold", str(gold), "--pred", str(pred)])
        _assert_one_error_line(code, err, f"{pred}:7: invalid BIO tag 'X'")


@pytest.mark.parametrize("argv,text,needle", [
    (["split", "--data"], b"seed = 1\nk = two\n", ":2: invalid literal for int()"),
    (["split", "--data"], b"seed = 1\n\xff = 2\n", ":2: 'utf-8' codec can't decode byte 0xff"),
    (["split", "--seed", "1", "--data"], b"verbose = maybe\n", ":1: expected true or false"),
    (["split", "--seed", "1", "--data"], b"k\n", ":1: expected 'key = value'"),
    (["build-kb", "--lang", "en", "--out", "kb", "--dump"], b"properties = bogus\n", ":1: unknown property kinds"),
    (["score", "--pred", "p.tsv", "--gold"], b"report = xml\n", ":1: expected one of json, text"),
    (["build-kb", "--lang", "en", "--out", "kb", "--dump"], b"properties = ,\n", ":1: property list is empty"),
    (["vote", "--out", "v.tsv", "--preds"], b"weights = 1,zz\n", ":1: bad weight list '1,zz'"),
    (["vote", "--weights", "1", "--out", "v.tsv", "--preds"], b"preds =\n", ":1: expected at least one value"),
    (["split", "--data"], b"\xef\xbb\xbfseed = 1\n", ":1: starts with a UTF-8 byte order mark"),
])
def test_config_error_names_its_line(tmp_path, data_file, argv, text, needle):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    code, err = _run([*argv, str(data_file), "--config", str(config)])
    _assert_one_error_line(code, err, f"{config}{needle}")


KB_DEFECTS = {
    "meta.json not JSON": ("meta.json", lambda text: "", "meta.json: Expecting value"),
    "meta.json without a key": ("meta.json", lambda text: '{"language": "en"}', "meta.json: missing key 'property_mask'"),
    "property mask not a list": ("meta.json", lambda text: '{"language": "en", "property_mask": 3}',
                                 "meta.json: 'language' must be a string and 'property_mask' a list"),
    "format_version 2": ("meta.json", lambda text: text.replace('"format_version": 1', '"format_version": 2'),
                         "meta.json: 'format_version' must be 1, got 2"),
    "format_version missing": ("meta.json", lambda text: '{"language": "en", "property_mask": ["instanceof"]}',
                               "meta.json: 'format_version' must be 1, got None"),
    "surfaces line without a tab": ("surfaces.tsv", lambda text: text + "zeta Q5\n", "surfaces.tsv:{}: expected"),
    "contexts line without a tab": ("contexts.tsv", lambda text: text + "Q77\n", "contexts.tsv:{}: expected"),
    "malformed qid": ("contexts.tsv", lambda text: text + "Qx7\tplace\n", "contexts.tsv:{}: malformed qid 'Qx7'"),
    "qid with a leading zero": ("contexts.tsv", lambda text: text + "Q01\tplace\n",
                                "contexts.tsv:{}: malformed qid 'Q01'"),
    "qid listed twice": ("contexts.tsv", lambda text: text + "Q5\tplace\n", "contexts.tsv:{}: qid 'Q5' is listed twice"),
    "surface and qid listed twice": ("surfaces.tsv", lambda text: text + "human\tQ5\n",
                                     "surfaces.tsv:{}: surface 'human' is listed with 'Q5' twice"),
    "surface not normalized": ("surfaces.tsv", lambda text: text + "victor  cousin\tQ5\n",
                               "surfaces.tsv:{}: surface 'victor  cousin' is not normalized"),
    "empty surface": ("surfaces.tsv", lambda text: text + "\tQ5\n", "surfaces.tsv:{}: surface is empty"),
    "surface listed apart": ("surfaces.tsv", lambda text: text + "human\tQ82955\n",
                             "surfaces.tsv:{}: surface 'human' is listed again after other surfaces"),
}


@pytest.mark.parametrize("defect", sorted(KB_DEFECTS))
def test_kb_defect_names_its_file(tmp_path, dump_file, data_file, defect):
    kb = tmp_path / "kb"
    assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb)]) == 0
    name, edit, needle = KB_DEFECTS[defect]
    path = kb / name
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    code, err = _run(["retrieve", "--kb", str(kb), "--data", str(data_file), "--out", str(tmp_path / "pairs.jsonl")])
    _assert_one_error_line(code, err, str(kb / needle.format(len(text.splitlines()) + 1)))


def test_kb_invalid_utf8_names_its_line(tmp_path, dump_file, data_file):
    kb = tmp_path / "kb"
    assert main(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb)]) == 0
    contexts = kb / "contexts.tsv"
    lines = contexts.read_bytes().split(b"\n")
    index = next(i for i, line in enumerate(lines) if line.startswith(b"Q5\t"))
    lines[index] += b"\xff"
    contexts.write_bytes(b"\n".join(lines))
    code, err = _run(["retrieve", "--kb", str(kb), "--data", str(data_file), "--out", str(tmp_path / "pairs.jsonl")])
    _assert_one_error_line(code, err, f"{contexts}:{index + 1}: 'utf-8' codec can't decode byte 0xff")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Valid files of each kind the robustness property mutates: a dump, the
    knowledge base built from it, the gold data, an aug-JSONL file, the model
    trained on it, its predictions with their sidecar, and a config file."""
    root = tmp_path_factory.mktemp("robust")
    dump = root / "dump.jsonl"
    dump.write_text("\n".join(table_dump_lines()) + "\n", encoding="utf-8")
    gold = root / "gold.conll"
    write_conll(
        [
            Sentence("s1", ["Victor", "Cousin", "met", "a", "human"], ["B-PER", "I-PER", "O", "O", "B-OTH"]),
            Sentence("s2", ["the", "human", "walked"], ["O", "B-OTH", "O"]),
        ],
        gold,
    )
    assert main(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(root / "kb")]) == 0
    aug = root / "aug.jsonl"
    assert main(["augment", "--kb", str(root / "kb"), "--data", str(gold), "--out", str(aug), "--max-len", "64"]) == 0
    model = root / "model.bin"
    assert main(["train", "--aug", str(aug), "--out", str(model), "--seed", "1", "--epochs", "1", "--max-len", "64"]) == 0
    pred = root / "pred.tsv"
    assert main(["predict", "--model", str(model), "--aug", str(aug), "--out", str(pred)]) == 0
    config = root / "split.cfg"
    config.write_text("# two folds\nk = 2\nseed = 9\n", encoding="utf-8")
    return {"root": root, "aug": aug, "model": model, "pred": pred, "sidecar": root / "pred.tsv.dist.jsonl", "gold": gold,
            "dump": dump, "kb": root / "kb", "config": config}


def _edit_header(edit, redigest: bool = False):
    """A model file transform that applies ``edit`` to the parsed header. The
    digest is left stale unless ``redigest``."""
    def apply(data: bytes) -> bytes:
        header, body = data.split(b"\n", 1)
        record = json.loads(header)
        edit(record)
        if redigest:
            rest = {key: value for key, value in record.items() if key != "digest"}
            canonical = json.dumps(rest, sort_keys=True, ensure_ascii=False).encode("utf-8")
            record["digest"] = hashlib.blake2b(canonical + body).hexdigest()
        return json.dumps(record).encode("utf-8") + b"\n" + body
    return apply


def _hyperparams(**hyperparams):
    """A model file transform that puts ``hyperparams`` in the header and
    leaves the digest stale."""
    return _edit_header(lambda header: header["hyperparams"].update(hyperparams))


def _bool_vocab(header):
    """Number the first two vocab tokens False and True, which sort as 0 and 1."""
    vocab = header["hyperparams"]["vocab"]
    first = next(token for token, index in vocab.items() if index == 1)
    vocab.update({"[UNK]": False, first: True})


def _surrogate_token(header):
    """Rename a vocab token to one that holds a lone surrogate, which
    ``json.dumps`` writes as the escape ``\\ud800``."""
    vocab = header["hyperparams"]["vocab"]
    vocab["x\ud800"] = vocab.pop(next(token for token in vocab if token != "[UNK]"))


_LOSSES = ":1: 'epoch_losses' must be a list of finite numbers"
MODEL_DEFECTS = {
    "body truncated": (lambda data: data[:-5], ": the arrays take"),
    "8 bytes appended": (lambda data: data + bytes(8), ": the arrays take"),
    "header not UTF-8": (lambda data: b"\xff" + data, ":1: 'utf-8' codec can't decode"),
    "header not JSON": (lambda data: b"{" + data, ":1: Expecting property name"),
    "d_model edited": (_edit_header(lambda h: h["hyperparams"].update(d_model=16)), ":1: the array list does not"),
    "missing key": (_edit_header(lambda h: h["hyperparams"].pop("vocab")), ":1: missing key 'vocab'"),
    "array list shortened": (_edit_header(lambda h: h["arrays"].pop()), ":1: the array list does not"),
    "vocab index past the end": (_edit_header(lambda h: h["hyperparams"]["vocab"].update(zzz=10**6)), ":1: 'vocab'"),
    "a billion layers": (_edit_header(lambda h: h["hyperparams"].update(n_layers=10**9)), ":1: 'n_layers'"),
    "n_heads edited": (_edit_header(lambda h: h["hyperparams"].update(n_heads=2)), ": the digest does not match"),
    "version true": (_edit_header(lambda h: h.update(version=True)), ":1: not a toy-encoder model file"),
    "body float overwritten": (
        lambda data: data[:-8] + struct.pack("<d", struct.unpack("<d", data[-8:])[0] + 1.0),
        ": the digest does not match",
    ),
    # The digest is checked last, so the labels and config checks catch these.
    "labels not BIO tags": (_hyperparams(labels=["B-OTH", "B-PER", "O", "PER"]), ":1: 'labels': invalid BIO tag 'PER'"),
    "labels repeated": (_hyperparams(labels=["B-OTH", "B-PER", "B-PER", "O"]), ":1: 'labels' must be distinct"),
    "labels unsorted": (_hyperparams(labels=["O", "I-PER", "B-PER", "B-OTH"]), ":1: 'labels' must be distinct"),
    "seed not an integer": (_hyperparams(seed="x"), ":1: 'seed' must be an integer of at least 0, got 'x'"),
    "vocab indices booleans": (_edit_header(_bool_vocab, redigest=True), ":1: 'vocab' must number its tokens"),
    "version 1": (_edit_header(lambda h: h.update(version=1)), ":1: not a toy-encoder model file of version 2"),
    "epoch_losses a string": (_edit_header(lambda h: h.update(epoch_losses="ab"), redigest=True), _LOSSES),
    "epoch_losses not finite": (_edit_header(lambda h: h["epoch_losses"].append(float("nan")), redigest=True), _LOSSES),
    "epoch_losses missing": (_edit_header(lambda h: h.pop("epoch_losses"), redigest=True), ":1: missing key 'epoch_losses'"),
    "vocab token with a lone surrogate": (_edit_header(_surrogate_token), ":1: '\\ud800' is a lone surrogate"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_model_defect_names_its_file(cli_files, tmp_path, defect):
    transform, needle = MODEL_DEFECTS[defect]
    model = tmp_path / "model.bin"
    model.write_bytes(transform(cli_files["model"].read_bytes()))
    code, err = _run(["predict", "--model", str(model), "--aug", str(cli_files["aug"]), "--out", str(tmp_path / "p.tsv")])
    _assert_one_error_line(code, err, f"{model}{needle}")


class TestTrainFlags:
    """Each ``train`` flag reaches its TrainConfig field: the model file
    holds the hyperparameters and is the file ``train`` and ``save_model``
    write for that config, so ``--lr`` and ``--epochs`` are covered too."""

    FLAGS = {"d-model": "8", "heads": "2", "layers": "1", "ff-dim": "12", "max-len": "64", "lr": "0.1"}
    CONFIG = TrainConfig(d_model=8, n_heads=2, n_layers=1, ff_dim=12, max_len=64, lr=0.1, epochs=2, seed=3)

    @staticmethod
    def _check(path, aug, config: TrainConfig) -> None:
        hyperparams = json.loads(path.read_bytes().split(b"\n", 1)[0])["hyperparams"]
        for key in ("d_model", "n_heads", "n_layers", "ff_dim", "max_len", "seed"):
            assert hyperparams[key] == getattr(config, key), key
        expected = path.with_suffix(".api.bin")
        save_model(train(augmenter.read_jsonl(aug), config), expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_defaults_are_train_config(self, cli_files, tmp_path):
        out = tmp_path / "model.bin"
        assert main(["train", "--aug", str(cli_files["aug"]), "--out", str(out), "--seed", "3"]) == 0
        self._check(out, cli_files["aug"], replace(TrainConfig(), seed=3))

    def test_flags_and_config_file_agree(self, cli_files, tmp_path):
        aug = str(cli_files["aug"])
        flags = [item for key, value in self.FLAGS.items() for item in (f"--{key}", value)]
        by_flags = tmp_path / "flags.bin"
        assert main(["train", "--aug", aug, "--out", str(by_flags), "--seed", "3", "--epochs", "2", *flags]) == 0
        self._check(by_flags, cli_files["aug"], self.CONFIG)
        config = tmp_path / "train.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in self.FLAGS.items()), encoding="utf-8")
        by_config = tmp_path / "config.bin"
        assert main(["train", "--aug", aug, "--out", str(by_config), "--seed", "3", "--epochs", "2",
                     "--config", str(config)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("flags,needle", [
    (["--heads", "0"], "'n_heads' must be an integer of at least 1, got 0"),
    (["--d-model", "0"], "'d_model' must be an integer of at least 1, got 0"),
    (["--ff-dim", "0"], "'ff_dim' must be an integer of at least 1, got 0"),
    (["--max-len", "0"], "'max_len' must be an integer of at least 1, got 0"),
    (["--layers", "-1"], "'n_layers' must be an integer of at least 0, got -1"),
    (["--epochs", "-1"], "'epochs' must be an integer of at least 0, got -1"),
    (["--heads", "3"], "'d_model' 32 is not divisible by 'n_heads' 3"),
    (["--lr", "0"], "'lr' must be a finite positive number, got 0.0"),
    (["--lr", "nan"], "'lr' must be a finite positive number, got nan"),
    (["--lr", "inf"], "'lr' must be a finite positive number, got inf"),
    (["--seed", "-1"], "'seed' must be an integer of at least 0, got -1"),
])
def test_out_of_range_train_option(cli_files, tmp_path, flags, needle):
    out = tmp_path / "model.bin"
    code, err = _run(["train", "--aug", str(cli_files["aug"]), "--out", str(out), "--seed", "1", *flags])
    _assert_one_error_line(code, err, needle)
    assert not out.exists()


def test_diverging_train_writes_one_line(cli_files, tmp_path):
    # numpy's overflow warnings would come first, as further stderr lines
    out = tmp_path / "model.bin"
    code, err = _run(["train", "--aug", str(cli_files["aug"]), "--out", str(out), "--seed", "1", "--lr", "1e300"])
    _assert_one_error_line(code, err, "non-finite loss at epoch 0")
    assert not out.exists()


def test_train_checks_options_before_reading(tmp_path):
    argv = ["train", "--aug", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "m.bin"), "--seed", "1"]
    _assert_one_error_line(*_run([*argv, "--heads", "0"]), "'n_heads' must be an integer of at least 1, got 0")


def test_train_on_empty_aug_file_names_it(tmp_path):
    aug, out = tmp_path / "aug.jsonl", tmp_path / "m.bin"
    aug.write_bytes(b"\n")
    _assert_one_error_line(*_run(["train", "--aug", str(aug), "--out", str(out), "--seed", "1"]),
                           f"error: {aug}: training dataset is empty")
    assert not out.exists()


def test_coverage_on_unlabeled_data_names_it(cli_files, tmp_path):
    data = tmp_path / "data.conll"
    write_conll([Sentence("s1", ["Victor", "Cousin"], ["B-PER", "I-PER"]), Sentence("s2", ["Victor"])], data)
    _assert_one_error_line(*_run(["coverage", "--kb", str(cli_files["kb"]), "--data", str(data)]),
                           f"error: {data}:6: expected 4 columns, got 3")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_qid_cap_below_one(tmp_path, dump_file, cap):
    out = tmp_path / "kb"
    code, err = _run(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(out), "--qid-cap", cap])
    _assert_one_error_line(code, err, f"qid_cap must be at least 1, got {cap}")
    assert not out.exists()


@pytest.mark.parametrize("module,absent", [
    ("propner.cli", ["hashlib", "multiprocessing"]),
    ("propner.kbstore", ["numpy", "propner.encoder"]),
], ids=["cli", "kbstore"])
def test_import_leaves_out_hashlib(module, absent):
    """hashlib loads OpenSSL, which only the commands that read or write a
    model need; multiprocessing serves only the synthetic A/B. The package
    exports no names, so a module loads only what it imports itself."""
    script = f"import sys, {module}; print([name for name in {absent!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(propner.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


CHUNKS = st.one_of(
    st.sampled_from([b"\xff", b"\xff\xfe", b"\n", b"\t", b" ", b'"', b"]", b"}", b"-1", b"1e999", b"# id ", b"null"]),
    st.text(string.printable, min_size=1, max_size=4).map(str.encode),
    st.binary(min_size=1, max_size=4),
)
EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "insert", "truncate"]), st.integers(0, 10**6), CHUNKS),
    min_size=1,
    max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, chunk in edits:
        at %= len(data) + 1
        if kind == "overwrite":
            data = data[:at] + chunk + data[at + len(chunk) :]
        elif kind == "insert":
            data = data[:at] + chunk + data[at:]
        else:
            data = data[:at]
    return data


def _check_kb_written_back(kb, mutated, written) -> None:
    """``load_kb`` of ``kb`` raises an InputError naming ``mutated``, one of
    its files, or the surfaces file, which it reads last and checks against
    the contexts; or ``save_kb`` of what it loaded writes back each TSV
    file's lines, as ``read_lines`` reads them, in the same order."""
    try:
        loaded = load_kb(kb)
    except InputError as exc:
        assert str(exc).startswith((f"{mutated}:", f"{kb / SURFACES_FILE}:"))
        return
    save_kb(loaded, written)
    for name in (SURFACES_FILE, CONTEXTS_FILE):
        assert read_lines(written / name) == read_lines(kb / name)


class TestRobustness:
    """A mutated input file either works or fails with exit 1 and one
    ``error:`` line; an exception escaping ``main`` fails the test."""

    @pytest.mark.parametrize("command", ["predict", "vote", "score"])
    @settings(max_examples=300, deadline=None)
    @given(edits=EDITS)
    def test_mutated_file(self, cli_files, command, edits):
        source = {"predict": cli_files["aug"], "vote": cli_files["sidecar"], "score": cli_files["pred"]}[command]
        mutated = cli_files["root"] / f"mutated-{source.name}"
        mutated.write_bytes(_mutate(source.read_bytes(), edits))
        out = str(cli_files["root"] / "out.tsv")
        argv = {
            "predict": ["predict", "--model", str(cli_files["model"]), "--aug", str(mutated), "--out", out],
            "vote": ["vote", "--preds", str(cli_files["sidecar"]), str(mutated), "--weights", "1,1", "--out", out],
            "score": ["score", "--gold", str(cli_files["gold"]), "--pred", str(mutated)],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = _run(argv)
        if code == 0:
            assert err == ""
        else:
            _assert_one_error_line(code, err)

    @pytest.mark.parametrize("source", ["config", "dataset", "surfaces.tsv", "contexts.tsv", "meta.json", "dump"])
    @settings(max_examples=100, deadline=None)
    @given(edits=EDITS)
    def test_mutated_input(self, cli_files, source, edits):
        """As above for the other inputs; ``build-kb`` may print its
        skipped-line warnings."""
        root, gold = cli_files["root"], str(cli_files["gold"])
        kb = root / "mutated-kb"
        shutil.copytree(cli_files["kb"], kb, dirs_exist_ok=True)
        original, mutated = {
            "config": (cli_files["config"], root / "mutated.cfg"),
            "dataset": (cli_files["gold"], root / "mutated.conll"),
            "dump": (cli_files["dump"], root / "mutated.jsonl"),
        }.get(source, (cli_files["kb"] / source, kb / source))
        mutated.write_bytes(_mutate(original.read_bytes(), edits))
        argv = {
            "config": ["split", "--data", gold, "--config", str(mutated)],
            "dataset": ["augment", "--kb", str(cli_files["kb"]), "--data", str(mutated), "--out", str(root / "out.jsonl")],
            "dump": ["build-kb", "--dump", str(mutated), "--lang", "en", "--out", str(root / "kb-of-mutated")],
        }.get(source, ["retrieve", "--kb", str(kb), "--data", gold, "--out", str(root / "out.jsonl")])
        cwd = os.getcwd()
        os.chdir(root)  # a mutated config may name an output file
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, err = _run(argv)
        finally:
            os.chdir(cwd)
        if code == 0:
            assert all("dump line" in line and "skipped" in line for line in err.splitlines()) if source == "dump" else not err
        else:
            _assert_one_error_line(code, err)

    @settings(max_examples=50, deadline=None)
    @given(edits=EDITS)
    def test_aug_file_reads_what_its_writer_writes_back(self, cli_files, edits):
        """A mutated aug-JSONL file is refused with an InputError that names
        it, or the writer writes back inputs that read as the same values."""
        root = cli_files["root"]
        mutated, written = root / "mutated-aug.jsonl", root / "written-aug.jsonl"
        mutated.write_bytes(_mutate(cli_files["aug"].read_bytes(), edits))
        try:
            augs = augmenter.read_jsonl(mutated)
        except InputError as exc:
            assert str(exc).startswith(f"{mutated}:")
            return
        augmenter.write_jsonl(augs, written)
        assert augmenter.read_jsonl(written) == augs

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from([SURFACES_FILE, CONTEXTS_FILE]), edits=EDITS)
    def test_kb_reads_what_its_writer_writes_back(self, cli_files, name, edits):
        """As above for a KB file: ``save_kb`` keeps the order that
        ``load_kb`` read."""
        root = cli_files["root"]
        kb = root / "round-trip-kb"
        shutil.copytree(cli_files["kb"], kb, dirs_exist_ok=True)
        (kb / name).write_bytes(_mutate((cli_files["kb"] / name).read_bytes(), edits))
        _check_kb_written_back(kb, kb / name, root / "written-kb")

    def test_kb_qids_written_back_in_the_order_read(self, cli_files, tmp_path):
        """``Q9`` before ``Q70``, which sort the other way as strings."""
        shutil.copytree(cli_files["kb"], tmp_path, dirs_exist_ok=True)
        (tmp_path / SURFACES_FILE).write_text("nine\tQ9\nnine\tQ70\n", encoding="utf-8")
        (tmp_path / CONTEXTS_FILE).write_text("Q9\t\nQ70\t\n", encoding="utf-8")
        _check_kb_written_back(tmp_path, tmp_path / SURFACES_FILE, tmp_path / "written")
        assert read_lines(tmp_path / "written" / SURFACES_FILE) == ["nine\tQ9", "nine\tQ70"]

    @settings(max_examples=50, deadline=None)
    @given(edits=EDITS)
    def test_sidecar_reads_what_its_writer_writes_back(self, cli_files, edits):
        """As above for a prediction sidecar: its labels, and each row's id,
        tokens and distribution bit for bit."""
        root = cli_files["root"]
        mutated, written = root / "mutated.dist.jsonl", root / "written.dist.jsonl"
        mutated.write_bytes(_mutate(cli_files["sidecar"].read_bytes(), edits))
        try:
            labels, rows = _read_sidecar(mutated)
        except InputError as exc:
            assert str(exc).startswith(f"{mutated}:")
            return
        _write_sidecar(written, *(sidecar_row(row["id"], row["tokens"], row["dist"]) for row in rows), labels=labels)
        again_labels, again_rows = _read_sidecar(written)
        assert again_labels == labels and len(again_rows) == len(rows)
        for row, again in zip(rows, again_rows):
            assert (again["id"], again["tokens"], again["dist"].tobytes()) == (row["id"], row["tokens"], row["dist"].tobytes())

    @settings(max_examples=100, deadline=None)
    @given(edit=st.one_of(
        EDITS.map(lambda edits: ("header", edits)),
        st.integers(0, 10**6).map(lambda at: ("truncate", at)),
        CHUNKS.map(lambda chunk: ("append", chunk)),
        st.tuples(st.integers(0, 10**6), CHUNKS).map(lambda edit: ("overwrite", edit)),
    ))
    def test_mutated_model(self, cli_files, edit):
        """As above for a model file: its header line, the length of its
        body, or bytes of its body at the same length, which the digest
        covers."""
        data = cli_files["model"].read_bytes()
        header, body = data.split(b"\n", 1)
        kind, arg = edit
        if kind == "header":
            data = _mutate(header, arg) + b"\n" + body
        elif kind == "truncate":
            data = data[: len(header) + 1 + arg % (len(body) + 1)]
        elif kind == "overwrite":
            at, chunk = arg[0] % len(body), arg[1]
            data = header + b"\n" + (body[:at] + chunk + body[at + len(chunk) :])[: len(body)]
        else:
            data += arg
        mutated = cli_files["root"] / "mutated-model.bin"
        mutated.write_bytes(data)
        argv = ["predict", "--model", str(mutated), "--aug", str(cli_files["aug"]), "--out", str(cli_files["root"] / "out.tsv")]
        code, err = _run(argv)
        if code == 0:
            assert err == ""
        else:
            _assert_one_error_line(code, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device on which every write fails")
class TestFailedWriteNamesItsFile:
    """A write that fails after its file opened, as on a full disk, exits 1
    with one ``error:`` line that ends in the file's name, as a file that
    cannot be opened does."""

    @pytest.mark.parametrize("command", ["retrieve", "augment", "split", "train", "predict", "vote", "synthetic-ab"])
    def test_out_on_a_full_device(self, cli_files, command):
        kb, gold, aug, sidecar = (str(cli_files[key]) for key in ("kb", "gold", "aug", "sidecar"))
        argv = {
            "retrieve": ["retrieve", "--kb", kb, "--data", gold],
            "augment": ["augment", "--kb", kb, "--data", gold, "--max-len", "64"],
            "split": ["split", "--data", gold, "--k", "2", "--seed", "1"],
            "train": ["train", "--aug", aug, "--seed", "1", "--epochs", "1", "--max-len", "64"],
            "predict": ["predict", "--model", str(cli_files["model"]), "--aug", aug],
            "vote": ["vote", "--preds", sidecar, sidecar, "--weights", "1,1"],
            "synthetic-ab": ["synthetic-ab", "--seed", "1", "--epochs", "1"],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = _run([*argv, "--out", "/dev/full"])
        _assert_one_error_line(code, err)
        assert err.endswith("No space left on device: '/dev/full'\n"), err
        assert not os.path.exists("/dev/full.dist.jsonl")  # predict writes its sidecar only after its .tsv

    def test_kb_file_on_a_full_device(self, dump_file, tmp_path):
        kb = tmp_path / "kb"
        kb.mkdir()
        (kb / SURFACES_FILE).symlink_to("/dev/full")
        code, err = _run(["build-kb", "--dump", str(dump_file), "--lang", "en", "--out", str(kb)])
        _assert_one_error_line(code, err)
        assert err.endswith(f"No space left on device: '{kb / SURFACES_FILE}'\n"), err


def test_each_call_logs_to_its_own_stderr(tmp_path):
    """Two runs in one process, each with its own stderr: each run's
    warnings reach its own stderr once, and ``--verbose`` adds the INFO
    lines of its run only."""
    dump = tmp_path / "dump.jsonl"
    dump.write_text(f"{record_line('Q1', 'Paris')}\nnot json\n{record_line('Q1', 'Paris')}\n", encoding="utf-8")
    lines = []
    for run, flags in enumerate([[], ["--verbose"]]):
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = _run(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(tmp_path / f"kb{run}"), *flags])
        assert code == 0
        lines.append(err.splitlines())
    warning = "WARNING:propner.cli:dump line 2 skipped: invalid JSON: Expecting value: line 1 column 1 (char 0)"
    assert lines == [[warning], ["INFO:propner.kbstore:duplicate qid Q1 in dump, later record wins", warning]]
