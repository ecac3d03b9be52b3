"""Peak memory of the program's own work, in a process that holds nothing else.

    python3 bench/memory.py WORKDIR

Run from the root of a source checkout, after set-up, by
``Pipeline.peak_rss_mb``. WORKDIR holds the dump, the fold models, the test
set and ``memory.json``: the augment corpus and the settings of the stages.
The process runs each stage of a round but the A/B once, with none of the
benchmark's ground truth in memory, and prints its peak resident set in MB
as its last line. The A/B is left out: it builds its own small corpora, and
it would add a second to every run. The exit code is 1 when a ``propner``
command fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    work = Path(argv[0])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from propner import augmenter, cli, kbstore, matcher

    spec = json.loads((work / "memory.json").read_text())
    with open(work / "dump.jsonl", "rb") as handle:
        kb = kbstore.build_knowledge_base(kbstore.parse_dump(handle, kbstore.DumpErrorReport()), "en",
                                          qid_cap=spec["qid_cap"])
    kbstore.save_kb(kb, work / "memory-kb")
    del kb
    kb = kbstore.load_kb(work / "memory-kb")
    index = matcher.build_matcher(kb)
    augs = []
    for sid, tokens in spec["aug_sentences"]:
        sentence = matcher.Sentence(sid, tokens)
        with contextlib.suppress(ValueError):
            augs.append(augmenter.assemble(sentence, matcher.retrieve(kb, index, sentence), spec["max_len"]))
    augmenter.write_jsonl(augs, work / "memory-aug.jsonl")
    augmenter.read_jsonl(work / "memory-aug.jsonl")

    preds = [str(work / f"memory-fold{fold}.tsv") for fold in range(spec["folds"])]
    commands = [["predict", "--model", str(work / f"fold{fold}.bin"), "--aug", str(work / "test.aug.jsonl"),
                 "--out", pred] for fold, pred in enumerate(preds)]
    commands.append(["vote", "--preds", *(f"{pred}.dist.jsonl" for pred in preds), "--weights", spec["weights"],
                     "--out", str(work / "memory-voted.tsv")])
    commands.append(["score", "--gold", str(work / "test.conll"), "--pred", str(work / "memory-voted.tsv")])
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in commands]
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
