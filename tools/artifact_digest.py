"""Print the sha256 of every artifact a fixed list of seeded commands writes.

    python3 tools/artifact_digest.py [--seed N]

The inputs are the benchmark's smoke-size workload (``bench/workloads.py``,
``SMOKE``) at the seed: a dump, a training and a test CoNLL file. In a
temporary directory the tool runs, through ``propner.cli.main``:
``build-kb``; ``retrieve``; ``split``; ``coverage`` of the training set;
then in each mask mode ``augment`` of both CoNLL files, ``train`` of two
models (seeds 1 and 2), ``predict`` with each (its ``.tsv`` and its
sidecar), ``vote`` over the two sidecars, ``score`` of the voted tags
(``--report json`` and ``text``) and ``synthetic-ab --out``. What each
command prints is kept too, as the files ``log/<run>.stdout`` and
``log/<run>.stderr``. It prints one ``name sha256`` line per file written,
sorted by name. Two checkouts that print the same lines wrote the same
bytes. The package is imported from ``src/`` beside ``tools/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from propner import cli  # noqa: E402
from propner.matcher import Sentence  # noqa: E402
from workloads import AB_EPOCHS, QID_CAP, SMOKE, TAG_MAX_LEN, generate  # noqa: E402

MASK_MODES = ("default", "strict-paper")
MODEL_SEEDS = (1, 2)


def _propner(out: Path, run: str, *argv) -> None:
    """Run one command and keep what it prints as ``log/<run>.stdout`` and
    ``log/<run>.stderr`` in ``out``; a command that fails stops the tool."""
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with contextlib.redirect_stdout(streams["stdout"]), contextlib.redirect_stderr(streams["stderr"]):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"propner {argv[0]} exited with {code}:\n" + "".join(s.getvalue() for s in streams.values()))
    for name, text in streams.items():
        (out / "log" / f"{run}.{name}").write_text(text.getvalue(), encoding="utf-8", newline="")


def run_commands(seed: int, work: Path) -> Path:
    """Run every command in ``work``; return the directory of what they wrote."""
    inputs = generate(SMOKE, seed)
    dump, train, test = work / "in" / "dump.jsonl", work / "in" / "train.conll", work / "in" / "test.conll"
    dump.parent.mkdir()
    dump.write_text("\n".join(inputs.dump_lines) + "\n", encoding="utf-8")
    for rows, path in ((inputs.tag_train, train), (inputs.tag_test, test)):
        cli.write_conll([Sentence(sid, tokens, tags) for sid, tokens, tags in rows], path)

    out = work / "out"
    (out / "log").mkdir(parents=True)
    kb = out / "kb"
    _propner(out, "build-kb", "build-kb", "--dump", dump, "--lang", "en", "--out", kb, "--qid-cap", QID_CAP)
    _propner(out, "retrieve", "retrieve", "--kb", kb, "--data", train, "--out", out / "pairs.jsonl")
    _propner(out, "split", "split", "--data", train, "--k", SMOKE.folds, "--seed", seed, "--out", out / "plan.json")
    _propner(out, "coverage", "coverage", "--kb", kb, "--data", train)
    for mode in MASK_MODES:
        augs = {}
        for name, data in (("train", train), ("test", test)):
            augs[name] = out / f"{name}.{mode}.aug.jsonl"
            _propner(out, f"augment.{name}.{mode}", "augment", "--kb", kb, "--data", data, "--out", augs[name],
                     "--max-len", TAG_MAX_LEN, "--mask-mode", mode)
        sidecars = []
        for model_seed in MODEL_SEEDS:
            model, pred = out / f"{mode}.seed{model_seed}.bin", out / f"{mode}.seed{model_seed}.tsv"
            _propner(out, f"train.{mode}.seed{model_seed}", "train", "--aug", augs["train"], "--out", model,
                     "--seed", model_seed, "--epochs", SMOKE.fold_epochs, "--max-len", TAG_MAX_LEN)
            _propner(out, f"predict.{mode}.seed{model_seed}", "predict", "--model", model, "--aug", augs["test"],
                     "--out", pred)
            sidecars.append(f"{pred}.dist.jsonl")
        voted = out / f"{mode}.voted.tsv"
        _propner(out, f"vote.{mode}", "vote", "--preds", *sidecars, "--weights", "0.75,0.25", "--out", voted)
        for report in ("json", "text"):
            _propner(out, f"score.{mode}.{report}", "score", "--gold", test, "--pred", voted, "--report", report)
        _propner(out, f"synthetic-ab.{mode}", "synthetic-ab", "--seed", seed, "--epochs", AB_EPOCHS,
                 "--mask-mode", mode, "--out", out / f"ab.{mode}.json")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs, the split and the A/B")
    seed = parser.parse_args().seed
    with tempfile.TemporaryDirectory() as work:
        out = run_commands(seed, Path(work))
        digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.rglob("*") if path.is_file()}
    for name in sorted(digests):
        print(name, digests[name])


if __name__ == "__main__":
    main()
