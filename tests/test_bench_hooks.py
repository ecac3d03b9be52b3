"""The names the benchmark's tracer rebinds still exist with the shapes it
relies on. A renamed function would otherwise break only a traced benchmark
run (``bench/run.py --trace``), which the test suite does not start."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from propner import encoder, ensemble, kbstore

from conftest import table_dump_lines


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracing().TARGETS


@pytest.mark.parametrize("module,name", TARGETS)
def test_target_is_a_function(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"propner.{module}"), name))


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
