"""The names the benchmark reads and its tracer rebinds still exist with the
shapes it relies on. A renamed function would otherwise break only a
benchmark run (``bench/run.py``), which the test suite does not start."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from propner import augmenter, cli, encoder, ensemble, kbstore
from propner.matcher import Sentence

from conftest import table_dump_lines


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracing().TARGETS


@pytest.mark.parametrize("module,name", TARGETS)
def test_target_is_a_function(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"propner.{module}"), name))


def _bench_references() -> list[tuple[str, str, str]]:
    """(file, module, name) of each ``propner`` module attribute that a
    ``bench/*.py`` file reads: ``<alias>.<name>`` where ``<alias>`` is bound
    by ``import propner`` or ``from propner import <module>``, and each name
    of a ``from propner.<module> import``."""
    refs = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name for a in node.names if a.name == "propner"})
            elif isinstance(node, ast.ImportFrom) and node.module == "propner":
                modules.update({a.asname or a.name: f"propner.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("propner."):
                refs += [(path.name, node.module, a.name) for a in node.names]
        refs += [
            (path.name, modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    return refs


def test_every_name_the_bench_reads_exists():
    refs = _bench_references()
    assert refs, "no propner references found under bench/"
    missing = sorted({f"{file}: {module}.{name}" for file, module, name in refs
                      if not hasattr(importlib.import_module(module), name)})
    assert missing == []


def test_parse_dump_is_a_generator_function():
    # The tracer times a generator function by its resumptions.
    assert inspect.isgeneratorfunction(kbstore.parse_dump)


@pytest.mark.parametrize("fn,args", [
    (encoder.forward, ("model", "aug")),
    (encoder.train, ("dataset", "config")),
    (ensemble.weighted_vote, ("preds", False)),
])
def test_counting_hooks_call_positionally(fn, args):
    inspect.signature(fn).bind(*args)


def test_dump_error_report_takes_parse_dump_errors():
    report = kbstore.DumpErrorReport()
    records = list(kbstore.parse_dump([*table_dump_lines(), "not json"], report))
    assert records and len(report) == 1


def test_predict_path_the_bench_counts(tmp_path, monkeypatch):
    """``propner predict`` writes ``<out>.dist.jsonl`` and runs the forward
    pass twice per input, once through each of the module attributes
    ``cli.predict_tags`` and ``cli.predict``: the bench reads that file and
    asserts that count."""
    sentences = [Sentence(f"s{i}", ["a", "b", "c"][: i + 1], ["B-X", "I-X", "O"][: i + 1]) for i in range(3)]
    aug = tmp_path / "aug.jsonl"
    augmenter.write_jsonl([augmenter.assemble(sentence, [], 16) for sentence in sentences], aug)
    model = tmp_path / "model.bin"
    config = encoder.TrainConfig(d_model=8, n_heads=2, n_layers=1, ff_dim=8, max_len=16, epochs=1, seed=1)
    encoder.save_model(encoder.train(augmenter.read_jsonl(aug), config), model)

    calls = {"forward": 0, "predict_tags": 0, "predict": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(encoder, "forward", counting("forward", encoder.forward))
    for name in ("predict_tags", "predict"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    out = tmp_path / "pred.tsv"
    assert cli.main(["predict", "--model", str(model), "--aug", str(aug), "--out", str(out)]) == 0
    assert (tmp_path / "pred.tsv.dist.jsonl").is_file()
    assert calls == {"forward": 2 * len(sentences), "predict_tags": len(sentences), "predict": len(sentences)}
