"""The stages every workload runs, and the figures each one yields.

A run prepares its inputs (untimed), sets up, warms up, then repeats rounds
until its time is spent. Set-up loads the KB and builds the matcher, then
trains and saves the fold models; the half the profile names is the timed
set-up (``setup_s``) and runs ``SETUP_REPS[half]`` times. A round runs every
stage once: compile the dump, augment the augment corpus, read it back,
predict the test set with each fold model through ``propner predict``, vote
and score through the CLI, and one synthetic A/B. The profile sizes the
inputs so that each workload spends most of a round in the stage it
stresses. A timing figure is a list of samples: one per round, and one per
chunk or fold where the stage has them.

The program is always called through module attributes
(``kbstore.parse_dump``), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from propner import augmenter, cli, encoder, ensemble, evaluator, kbstore, matcher, synthetic

import checks
from workloads import AB_EPOCHS, MAX_LEN, QID_CAP, TAG_MAX_LEN, Inputs, Profile, expected_context, expected_surfaces, normalize

SETUP_REPS = {"kb": 5, "models": 2}
PROBE_REF_S = 0.001
_PROBE_MATRIX = np.full((32, 32), 0.5)
CHUNK_TOKENS = 2000
LONE_PROBES = 5  # probes on each side of a stage that is a single sample
VOTE_RUNS = 3  # vote and score take tens of milliseconds: one sample is too short
AB_GATE = 0.30
RETRIEVAL_SAMPLE = 40


def probe() -> float:
    """Seconds for a fixed mix of the work this program does: dict and str
    operations in the interpreter and small numpy matrix products. The
    median of five short runs, so a burst of a few milliseconds is ignored."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(5_000):
            table[str(i)] = i
        x = _PROBE_MATRIX
        for _ in range(60):
            x = np.tanh(x @ _PROBE_MATRIX * 0.01)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Stopwatch:
    """Wall time of a block, with ``probe`` run ``count`` times right before
    and after it; the probe times go into ``probes``."""

    def __init__(self, probes: list[float], count: int = 1) -> None:
        self.probes = probes
        self.count = count

    def __enter__(self) -> "Stopwatch":
        self.first = len(self.probes)
        self.probes.extend(probe() for _ in range(self.count))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.s = time.perf_counter() - self.start
        self.probes.extend(probe() for _ in range(self.count))

    @property
    def scaled(self) -> float:
        """The block's time at the reference speed, by its own probes."""
        return self.s * PROBE_REF_S / statistics.median(self.probes[self.first :])


class Failures:
    """Operations attempted and failed, plus the messages of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_errors: list[str] = []

    def check(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.check_errors.extend(errors)


def _write_conll(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sid, tokens, tags in rows:
            handle.write(f"# id {sid}\n")
            handle.writelines(f"{token} _ _ {tag}\n" for token, tag in zip(tokens, tags))
            handle.write("\n")


def _dir_bytes(path: Path) -> int:
    return sum(child.stat().st_size for child in path.iterdir())


class Pipeline:
    def __init__(self, profile: Profile, inputs: Inputs, seed: int, workdir: Path, failures: Failures) -> None:
        self.profile = profile
        self.inputs = inputs
        self.seed = seed
        self.work = workdir
        self.failures = failures
        self.dump = workdir / "dump.jsonl"
        self.kb_dir = workdir / "kb"
        self.test_aug = workdir / "test.aug.jsonl"
        self.gold = workdir / "test.conll"
        self.aug_sentences = [matcher.Sentence(sid, tokens) for sid, tokens in inputs.aug_sentences]
        self.train_sentences = [matcher.Sentence(*row) for row in inputs.tag_train]
        self.test_sentences = [matcher.Sentence(*row) for row in inputs.tag_test]
        self.properties: dict = {}
        self.probes: list[float] = []
        self.weights: list[float] = []
        self.checked: set[str] = set()  # stages whose outputs were checked, on their first run

    # -- preparation (untimed) ---------------------------------------------

    def prepare(self) -> None:
        """Write the dump and the gold file, compile the KB once and check it
        against the generator's ground truth."""
        self.dump.write_text("\n".join(self.inputs.dump_lines) + "\n", encoding="utf-8")
        _write_conll(self.inputs.tag_test, self.gold)
        report = kbstore.DumpErrorReport()
        with open(self.dump, "rb") as handle:
            kb = kbstore.build_knowledge_base(kbstore.parse_dump(handle, report), "en", qid_cap=QID_CAP)
        kbstore.save_kb(kb, self.kb_dir)
        self.truth = expected_surfaces(self.inputs.entities)
        self.contexts = {q: expected_context(e, self.inputs.labels) for q, e in self.inputs.entities.items()}
        self.max_words = max(len(surface.split()) for surface in self.truth)
        self.failures.check(checks.check_kb(kb, self.inputs, self.truth, self.seed))
        self.failures.check([] if len(report) == self.inputs.malformed_lines else
                            [f"{len(report)} bad dump lines reported, {self.inputs.malformed_lines} generated"])
        self.failures.check(checks.check_round_trip_kb(kb, kbstore.load_kb(self.kb_dir)))
        self.properties.update(
            entities=len(self.inputs.entities),
            dump_lines=len(self.inputs.dump_lines),
            malformed_lines=self.inputs.malformed_lines,
            **checks.surface_properties(self.inputs),
        )
        rng = random.Random(self.seed)
        sample = rng.sample(self.inputs.aug_sentences, min(200, len(self.inputs.aug_sentences)))
        candidates = ambiguous = 0
        for _, tokens in sample:
            spans = checks.candidate_spans(tokens, self.truth, self.max_words)
            candidates += sum(len(self.truth[normalize(" ".join(tokens[i:j]))]) for i, j in spans)
            pairs = checks.brute_force_pairs(tokens, self.truth, self.contexts, self.max_words)
            ambiguous += len({(i, j) for i, j, _, _ in pairs}) < len(pairs)
        self.properties.update(
            candidates_per_sentence=candidates / len(sample),
            ambiguous_sentence_share=ambiguous / len(sample),
        )

    # -- set-up (one half timed as setup_s) ---------------------------------

    def setup(self, reps: int = 1) -> list[float]:
        """Load the KB and build the matcher, then train, score and save the
        fold models. The half the profile names runs ``reps`` times; returns
        its times, each scaled to the reference speed by its own probes."""
        kb = [self.setup_kb() for _ in range(reps if self.profile.setup == "kb" else 1)]
        models = [self.setup_models() for _ in range(reps if self.profile.setup == "models" else 1)]
        return kb if self.profile.setup == "kb" else models

    def setup_kb(self) -> float:
        """Each repeat starts from the same heap: the previous KB and matcher
        freed and garbage collected."""
        self.kb = self.matcher = None
        gc.collect()
        with Stopwatch(self.probes, LONE_PROBES) as watch:
            self.kb = kbstore.load_kb(self.kb_dir)
            self.matcher = matcher.build_matcher(self.kb)
        return watch.scaled

    def setup_models(self) -> float:
        """One block for the training inputs, then one per fold."""
        gc.collect()
        with Stopwatch(self.probes) as watch:
            train = [augmenter.assemble(s, matcher.retrieve(self.kb, self.matcher, s), TAG_MAX_LEN)
                     for s in self.train_sentences]
            by_id = {aug.sentence_id: aug for aug in train}
            plan = ensemble.kfold_split(self.train_sentences, self.profile.folds, self.seed)
        total = watch.scaled
        self.weights = []
        for fold in range(self.profile.folds):
            with Stopwatch(self.probes) as watch:
                held_out = set(plan.fold_ids(fold))
                config = encoder.TrainConfig(max_len=TAG_MAX_LEN, epochs=self.profile.fold_epochs, seed=self.seed + fold)
                model = encoder.train([aug for sid, aug in by_id.items() if sid not in held_out], config)
                gold = [list(s.gold_tags) for s in self.train_sentences if s.id in held_out]
                pred = [encoder.predict_tags(model, by_id[s.id]) for s in self.train_sentences if s.id in held_out]
                self.weights.append(evaluator.score(gold, pred).micro_f1)
                encoder.save_model(model, self.work / f"fold{fold}.bin")
            total += watch.scaled
        return total

    def prepare_test_set(self) -> None:
        augs = [augmenter.assemble(s, matcher.retrieve(self.kb, self.matcher, s), TAG_MAX_LEN) for s in self.test_sentences]
        augmenter.write_jsonl(augs, self.test_aug)

    @property
    def weights_arg(self) -> str:
        """The fold weights as ``propner vote --weights`` takes them."""
        return ",".join(repr(w) for w in self.weights)

    def warm_up(self) -> None:
        self._cli("predict", "--model", str(self.work / "fold0.bin"), "--aug", str(self.test_aug),
                  "--out", str(self.work / "warm.tsv"))

    # -- the round -------------------------------------------------------------

    def _cli(self, *argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        self.failures.check([] if code == 0 else [f"propner {argv[0]} exited with {code}"])
        return out.getvalue()

    def compile(self, check: bool) -> dict:
        out_dir = self.work / "kb-round"
        report = kbstore.DumpErrorReport()
        with Stopwatch(self.probes, LONE_PROBES) as watch:
            with open(self.dump, "rb") as handle:
                kb = kbstore.build_knowledge_base(kbstore.parse_dump(handle, report), "en", qid_cap=QID_CAP)
            kbstore.save_kb(kb, out_dir)
        self.failures.attempted += 1
        if check:
            same = all((out_dir / f).read_bytes() == (self.kb_dir / f).read_bytes()
                       for f in (kbstore.SURFACES_FILE, kbstore.CONTEXTS_FILE, kbstore.META_FILE))
            self.failures.check([] if same else ["recompiling the dump gave different KB files"])
        return {
            "kb_entities_per_s": [len(self.inputs.dump_lines) / watch.s],
            "layer.bad_lines": len(report),
            "layer.surfaces": len(kb.surface_index),
            "layer.kb_bytes": _dir_bytes(out_dir),
        }

    def _chunks(self) -> list[list]:
        """The augment corpus in pieces of about ``CHUNK_TOKENS`` tokens; each
        piece is one timing sample."""
        count = max(1, round(sum(len(s.tokens) for s in self.aug_sentences) / CHUNK_TOKENS))
        size = -(-len(self.aug_sentences) // count)
        return [self.aug_sentences[i : i + size] for i in range(0, len(self.aug_sentences), size)]

    def augment(self, check: bool) -> dict:
        rates, failed, dropped, size = [], 0, 0, 0
        self.augs = []
        for index, chunk in enumerate(self._chunks()):
            path = self.work / f"aug{index}.jsonl"
            augs, pair_count = [], 0
            with Stopwatch(self.probes) as watch:
                for sentence in chunk:
                    pairs = matcher.retrieve(self.kb, self.matcher, sentence)
                    try:
                        augs.append(augmenter.assemble(sentence, pairs, MAX_LEN))
                    except ValueError:
                        failed += 1
                        continue
                    pair_count += len(pairs)
                augmenter.write_jsonl(augs, path)
            rates.append(len(augs) / watch.s)
            dropped += pair_count - sum(len(a.segments) for a in augs)
            size += path.stat().st_size
            self.augs.extend(augs)
        self.failures.attempted += len(self.aug_sentences)
        self.failures.failed += failed
        if check:
            rng = random.Random(self.seed)
            retrieved = [
                (s.tokens, [(m.start, m.end, m.qid, m.context) for m in matcher.retrieve(self.kb, self.matcher, s)])
                for s in rng.sample(self.aug_sentences, min(RETRIEVAL_SAMPLE, len(self.aug_sentences)))
            ]
            self.failures.check(checks.check_retrieval(retrieved, self.truth, self.contexts, self.max_words))
        return {
            "augment_sentences_per_s": rates,
            "aug_bytes_per_sentence": size / len(self.augs),
            "layer.write_bytes": size,
            "layer.assemble_failed": failed,
            "layer.pairs_dropped": dropped,
            "layer.tokens_per_input": statistics.fmean(len(a.tokens) for a in self.augs),
        }

    def read(self, check: bool) -> dict:
        rates, back = [], []
        for index in range(len(self._chunks())):
            with Stopwatch(self.probes) as watch:
                augs = augmenter.read_jsonl(self.work / f"aug{index}.jsonl")
            rates.append(len(augs) / watch.s)
            back.extend(augs)
        self.failures.attempted += 1
        if check:
            self.failures.check(checks.check_aug_round_trip(self.augs, back))
        return {"aug_read_sentences_per_s": rates}

    def predict(self, check: bool) -> dict:
        n = len(self.test_sentences)
        rates = []
        for fold in range(self.profile.folds):
            with Stopwatch(self.probes) as watch:
                self._cli("predict", "--model", str(self.work / f"fold{fold}.bin"), "--aug", str(self.test_aug),
                          "--out", str(self.work / f"fold{fold}.tsv"))
            rates.append(n / watch.s)
        sidecars = sum((self.work / f"fold{fold}.tsv.dist.jsonl").stat().st_size for fold in range(self.profile.folds))
        return {
            "predict_sentences_per_s": rates,
            "layer.sidecar_bytes_per_sentence": sidecars / (self.profile.folds * n),
        }

    def vote(self, check: bool) -> dict:
        voted = self.work / "voted.tsv"
        sidecars = [str(self.work / f"fold{fold}.tsv.dist.jsonl") for fold in range(self.profile.folds)]
        rates = []
        for _ in range(VOTE_RUNS):
            with Stopwatch(self.probes) as watch:
                self._cli("vote", "--preds", *sidecars, "--weights", self.weights_arg, "--out", str(voted))
                report = json.loads(self._cli("score", "--gold", str(self.gold), "--pred", str(voted), "--report", "json"))
            rates.append(len(self.test_sentences) / watch.s)
        if check:
            self.failures.check(checks.check_voted(voted, self.inputs.tag_test))
        return {"vote_sentences_per_s": rates, "voted_micro_f1": report["micro"]["f1"]}

    def ab(self, check: bool) -> dict:
        config = synthetic.SyntheticConfig(epochs=AB_EPOCHS)
        times = []
        for _ in range(self.profile.ab_runs):
            with Stopwatch(self.probes, LONE_PROBES) as watch:
                report = synthetic.run_synthetic_ab(self.seed, config=config)
            times.append(watch.s)
            self.failures.check([] if report["gap"] >= AB_GATE else [f"A/B gap {report['gap']:.4f} below {AB_GATE}"])
        return {"ab_s": times, "ab_gap": report["gap"]}

    STAGES = ("compile", "augment", "read", "predict", "vote", "ab")

    def peak_rss_mb(self) -> float:
        """Peak resident set of a fresh process (``memory.py``) that runs each
        stage but the A/B once on this run's files and holds none of the
        benchmark's data."""
        spec = {"aug_sentences": self.inputs.aug_sentences, "folds": self.profile.folds,
                "weights": self.weights_arg, "qid_cap": QID_CAP, "max_len": MAX_LEN}
        (self.work / "memory.json").write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("memory.py")), str(self.work)],
                              capture_output=True, text=True, timeout=150)
        self.failures.check([] if proc.returncode == 0 else
                            [f"memory.py exited with {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return float(proc.stdout.split()[-1]) if proc.returncode == 0 else 0.0

    def run_round(self, span=None) -> dict:
        """Run every stage once, collecting garbage first so
        a stage's time does not depend on what ran before it. Timing figures
        are lists of samples, one per chunk, fold or stage run. For each
        figure, ``scale.<figure>`` is how much slower than the reference the
        machine ran during its stage: the median time of the probes taken
        around the stage's blocks over ``PROBE_REF_S``."""
        figures: dict[str, list] = {}
        for stage in self.STAGES:
            gc.collect()
            first_probe = len(self.probes)
            with span(f"bench.{stage}") if span else contextlib.nullcontext():
                result = getattr(self, stage)(check=stage not in self.checked)
            self.checked.add(stage)
            scale = statistics.median(self.probes[first_probe:]) / PROBE_REF_S
            for key, value in result.items():
                figures[key] = value if isinstance(value, list) else [value]
                figures[f"scale.{key}"] = [scale]
        return figures


def mask_bits_share(paths) -> float:
    """Share of the aug-JSONL bytes spent on the ``mask_bits`` field."""
    total = mask = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                total += len(line.encode("utf-8"))
                mask += len(json.dumps(json.loads(line)["mask_bits"]))
    return mask / total


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    head = Path(".git/HEAD")
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            commit = Path(".git", ref[5:]).read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }
