"""Benchmark for the propner pipeline.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 bench/run.py --workload kb-compile --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a checked
round, then three untraced rounds alternating with three traced ones (the
last with a traced set-up), and reports the per-layer metrics, the
benchmark's own share of the traced time and the tracing overhead.
``--smoke`` shrinks every input for the benchmark's own tests.

Workloads (see BENCHMARK.json for why each exists) all run every stage;
their profiles in ``workloads.py`` decide where the time goes. Human-readable
lines go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also writes
its result (metrics, input properties, environment, failed checks) and, when
traced, its spans under ``bench/out/``. The exit code is 1 when an output
check fails or the program cannot be found.
"""

from __future__ import annotations

import os

# One BLAS thread: the model's matrices are tiny, and a steady figure needs a
# fixed thread count. Set before numpy loads; recorded in every result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_ROUNDS = 3
OVERHEAD_ROUNDS = 3  # untraced and traced rounds each, for the tracing overhead

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kb_entities_per_s": "1/s",
    "augment_sentences_per_s": "1/s",
    "aug_read_sentences_per_s": "1/s",
    "aug_bytes_per_sentence": "bytes",
    "ab_s": "s",
    "ab_gap": "F1",
    "predict_sentences_per_s": "1/s",
    "vote_sentences_per_s": "1/s",
    "voted_micro_f1": "F1",
}

MODULES = ("kbstore", "matcher", "augmenter", "encoder", "ensemble", "evaluator", "synthetic", "cli")

PER_LAYER = {
    "kbstore.parse_dump.s": "s",
    "kbstore.parse_dump.bad_lines": "count",
    "kbstore.build_knowledge_base.s": "s",
    "kbstore.build_knowledge_base.surfaces": "count",
    "kbstore.build_knowledge_base.capped_surfaces": "count",
    "kbstore.save_kb.s": "s",
    "kbstore.save_kb.bytes": "bytes",
    "kbstore.load_kb.s": "s",
    "matcher.build_matcher.s": "s",
    "matcher.find_candidates.s": "s",
    "matcher.find_candidates.candidates_per_sentence": "count",
    "matcher.resolve_overlaps.s": "s",
    "matcher.resolve_overlaps.kept_ratio": "ratio",
    "matcher.retrieve.s": "s",
    "augmenter.assemble.s": "s",
    "augmenter.assemble.failed": "count",
    "augmenter.assemble.pairs_dropped": "count",
    "augmenter.assemble.tokens_per_input": "count",
    "augmenter.write_jsonl.s": "s",
    "augmenter.write_jsonl.mb_per_s": "MB/s",
    "augmenter.write_jsonl.mask_bits_share": "ratio",
    "augmenter.read_jsonl.s": "s",
    "encoder.train.s": "s",
    "encoder.train.steps": "count",
    "encoder.train.ms_per_step": "ms",
    "encoder.forward.ms_per_input": "ms",
    "encoder.forward.calls_per_input": "count",
    "encoder.predict.ms_per_input": "ms",
    "encoder.load_model.s": "s",
    "encoder.save_model.s": "s",
    "encoder.unk_rate": "ratio",
    "ensemble.weighted_vote.s": "s",
    "ensemble.weighted_vote.tokens": "count",
    "evaluator.score.s": "s",
    "cli.read_conll.s": "s",
    "cli.main.predict.s": "s",
    "cli.main.vote.s": "s",
    "cli.main.score.s": "s",
    "cli.predict.sidecar_bytes_per_sentence": "bytes",
    "synthetic.run_synthetic_ab.self_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    "bench.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_share": "ratio",
}


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure that is
    where propner comes from."""
    src = Path.cwd() / "src"
    if not (src / "propner" / "__init__.py").is_file():
        raise SystemExit(f"error: no propner package under {src}; run from the root of a propner checkout")
    sys.path.insert(0, str(src))
    import propner

    if Path(propner.__file__).resolve().parent != (src / "propner").resolve():
        raise SystemExit(f"error: propner was imported from {propner.__file__}, not from {src}")


def _reduce(rounds: list[dict]) -> dict:
    """One value per figure: the median of its samples over all rounds, each
    timing first scaled to the reference speed by its stage's probes."""
    pooled: dict[str, list] = {}
    for figures in rounds:
        for key, samples in figures.items():
            unit = END_TO_END.get(key)
            scale = figures.get(f"scale.{key}", [1.0])[0]
            factor = scale if unit == "1/s" else 1 / scale if unit == "s" else 1
            pooled.setdefault(key, []).extend(value * factor for value in samples)
    return {key: statistics.median(samples) for key, samples in pooled.items()}


def measure(pipe, seconds: float, reps: int) -> tuple[dict, dict]:
    setups = pipe.setup(reps)
    pipe.prepare_test_set()
    pipe.warm_up()
    start = time.perf_counter()
    rounds = [pipe.run_round()]
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(pipe.run_round())
    round_s = time.perf_counter() - start
    figures = _reduce(rounds)
    metrics = {name: figures[name] for name in END_TO_END if name in figures}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = pipe.peak_rss_mb()
    return metrics, {"rounds": len(rounds), "round_s": round_s, "setup_runs_s": setups,
                     "figures": figures, "rounds_figures": rounds}


def _counting_hook(tracer):
    """Counters taken from call arguments and results at the traced boundaries."""

    def hook(name, fn):
        if name == "encoder.forward":

            def forward(model, aug):
                tracer.count("forward.tokens", len(aug.tokens))
                tracer.count("forward.unk", sum(token not in model.vocab for token in aug.tokens))
                return fn(model, aug)

            return forward
        if name == "encoder.train":

            def train(dataset, config):
                tracer.count("train.steps", config.epochs * len(dataset))
                return fn(dataset, config)

            return train
        if name == "ensemble.weighted_vote":

            def weighted_vote(preds, hard=False):
                result = fn(preds, hard)
                tracer.count("vote.tokens", sum(len(tags) for tags in result))
                return result

            return weighted_vote
        return None

    return hook


def _timed_round(pipe, span=None) -> tuple[float, dict]:
    """One round's wall time, scaled to the reference speed by the probes
    taken during it, and its figures."""
    import pipeline

    first = len(pipe.probes)
    start = time.perf_counter()
    figures = pipe.run_round(span)
    elapsed = time.perf_counter() - start
    return elapsed * pipeline.PROBE_REF_S / statistics.median(pipe.probes[first:]), figures


def traced(pipe, seed: int, workload: str) -> tuple[dict, dict]:
    """Untraced and traced rounds alternate, so drift in machine speed
    biases neither side; only the last traced round, with its set-up, makes
    the per-layer metrics."""
    import tracing

    pipe.setup()
    pipe.prepare_test_set()
    pipe.warm_up()
    pipe.run_round()  # runs the output checks, which later rounds skip
    untraced, traced_s = [], []
    for index in range(OVERHEAD_ROUNDS):
        untraced.append(_timed_round(pipe)[0])
        tracer = tracing.Tracer(f"{workload}-{seed}")
        tracer.install(_counting_hook(tracer))
        try:
            if index < OVERHEAD_ROUNDS - 1:
                traced_s.append(_timed_round(pipe, tracer.span)[0])
                continue
            with tracer.span("bench.run") as root:
                with tracer.span("bench.setup"):
                    pipe.setup()
                with tracer.span("bench.round"):
                    seconds, figures = _timed_round(pipe, tracer.span)
                    traced_s.append(seconds)
        finally:
            tracer.uninstall()
    tracer.write(BENCH_DIR / "out" / f"{workload}-seed{seed}.spans.jsonl")
    metrics = layer_metrics(tracer, _reduce([figures]), pipe)
    metrics["trace.total_s"] = root[tracing.BUSY]
    metrics["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(untraced) - 1
    return metrics, {"untraced_rounds_scaled_s": untraced, "traced_rounds_scaled_s": traced_s}


def layer_metrics(tracer, figures: dict, pipe) -> dict:
    import pipeline
    from tracing import BUSY, ITEMS, NAME, PARENT

    spans = tracer.spans
    own = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[BUSY]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s

    def under(index: int, ancestor: str) -> bool:
        while index is not None:
            if spans[index][NAME] == ancestor:
                return True
            index = spans[index][PARENT]
        return False

    def stage_sum(name: str, stage: str, field: int) -> float:
        """Items (or calls, for ``field=None``) of ``name`` spans inside ``stage``."""
        return sum(1 if field is None else s[field] for i, s in enumerate(spans) if s[NAME] == name and under(i, stage))

    # Per-sentence ratios come from the augment stage, whose sentences the
    # workload profile sizes; D5's forward count from the CLI predict path.
    predict_forwards = stage_sum("encoder.forward", "cli.main.predict", None)
    predict_inputs = stage_sum("augmenter.read_jsonl", "cli.main.predict", ITEMS)
    candidates = stage_sum("matcher.find_candidates", "bench.augment", ITEMS)
    sentences = stage_sum("matcher.find_candidates", "bench.augment", None)
    kept = stage_sum("matcher.resolve_overlaps", "bench.augment", ITEMS)
    counters = tracer.counters

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "kbstore.parse_dump.s": total.get("kbstore.parse_dump", 0.0),
        "kbstore.parse_dump.bad_lines": figures["layer.bad_lines"],
        "kbstore.build_knowledge_base.s": total.get("kbstore.build_knowledge_base", 0.0),
        "kbstore.build_knowledge_base.surfaces": figures["layer.surfaces"],
        "kbstore.build_knowledge_base.capped_surfaces": pipe.properties["capped_surfaces"],
        "kbstore.save_kb.s": total.get("kbstore.save_kb", 0.0),
        "kbstore.save_kb.bytes": figures["layer.kb_bytes"],
        "kbstore.load_kb.s": total.get("kbstore.load_kb", 0.0),
        "matcher.build_matcher.s": total.get("matcher.build_matcher", 0.0),
        "matcher.find_candidates.s": total.get("matcher.find_candidates", 0.0),
        "matcher.find_candidates.candidates_per_sentence": per(candidates, sentences),
        "matcher.resolve_overlaps.s": total.get("matcher.resolve_overlaps", 0.0),
        "matcher.resolve_overlaps.kept_ratio": per(kept, candidates),
        "matcher.retrieve.s": total.get("matcher.retrieve", 0.0),
        "augmenter.assemble.s": total.get("augmenter.assemble", 0.0),
        "augmenter.assemble.failed": figures["layer.assemble_failed"],
        "augmenter.assemble.pairs_dropped": figures["layer.pairs_dropped"],
        "augmenter.assemble.tokens_per_input": figures["layer.tokens_per_input"],
        "augmenter.write_jsonl.s": total.get("augmenter.write_jsonl", 0.0),
        "augmenter.write_jsonl.mb_per_s": per(figures["layer.write_bytes"] / 1e6,
                                              stage_sum("augmenter.write_jsonl", "bench.augment", BUSY)),
        "augmenter.write_jsonl.mask_bits_share": pipeline.mask_bits_share(sorted(pipe.work.glob("aug*.jsonl"))),
        "augmenter.read_jsonl.s": total.get("augmenter.read_jsonl", 0.0),
        "encoder.train.s": total.get("encoder.train", 0.0),
        "encoder.train.steps": counters.get("train.steps", 0),
        "encoder.train.ms_per_step": per(1000 * total.get("encoder.train", 0.0), counters.get("train.steps", 0)),
        "encoder.forward.ms_per_input": per(1000 * total.get("encoder.forward", 0.0), calls.get("encoder.forward", 0)),
        "encoder.forward.calls_per_input": per(predict_forwards, predict_inputs),
        "encoder.predict.ms_per_input": per(1000 * total.get("encoder.predict", 0.0), calls.get("encoder.predict", 0)),
        "encoder.load_model.s": total.get("encoder.load_model", 0.0),
        "encoder.save_model.s": total.get("encoder.save_model", 0.0),
        "encoder.unk_rate": per(counters.get("forward.unk", 0), counters.get("forward.tokens", 0)),
        "ensemble.weighted_vote.s": total.get("ensemble.weighted_vote", 0.0),
        "ensemble.weighted_vote.tokens": counters.get("vote.tokens", 0),
        "evaluator.score.s": total.get("evaluator.score", 0.0),
        "cli.read_conll.s": total.get("cli.read_conll", 0.0),
        "cli.main.predict.s": total.get("cli.main.predict", 0.0),
        "cli.main.vote.s": total.get("cli.main.vote", 0.0),
        "cli.main.score.s": total.get("cli.main.score", 0.0),
        "cli.predict.sidecar_bytes_per_sentence": figures["layer.sidecar_bytes_per_sentence"],
        "synthetic.run_synthetic_ab.self_s": self_by_name.get("synthetic.run_synthetic_ab", 0.0),
    }
    for module in MODULES + ("bench",):
        metrics[f"{module}.self_s"] = sum(v for name, v in self_by_name.items() if name.split(".")[0] == module)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    load_program()
    import pipeline
    import workloads

    if args.workload not in workloads.PROFILES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.PROFILES)}")
    profile = workloads.SMOKE if args.smoke else workloads.PROFILES[args.workload]

    out_dir = BENCH_DIR / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures = pipeline.Failures()
    began = time.perf_counter()
    try:
        inputs = workloads.generate(profile, args.seed)
        pipe = pipeline.Pipeline(profile, inputs, args.seed, work, failures)
        pipe.prepare()
        prepared_s = time.perf_counter() - began
        if args.trace:
            metrics, detail = traced(pipe, args.seed, args.workload)
            units = PER_LAYER
        else:
            metrics, detail = measure(pipe, args.seconds, 1 if args.smoke else pipeline.SETUP_REPS[profile.setup])
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not failures.check_errors
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "metrics": metrics,
        "properties": pipe.properties,
        "environment": pipeline.environment(args.seed),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failed_ratio": failures.failed / failures.attempted,
        "check_errors": failures.check_errors,
        "detail": {**detail, "prepare_s": prepared_s, "total_s": time.perf_counter() - began},
    }
    trace_tag = f"trace{args.trace}" + ("-smoke" if args.smoke else "")
    (out_dir / f"{args.workload}-seed{args.seed}-{trace_tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:.6g} {unit}")
    print(f"{'failed_ratio':48s} {result['failed_ratio']:.6g} ({failures.failed} of {failures.attempted})")
    for key, value in pipe.properties.items():
        print(f"property {key} = {value}")
    for error in failures.check_errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
