"""Span tracing from outside the program.

``Tracer.install`` rebinds, in every loaded ``propner`` module, each
attribute that refers to a traced function, so a caller that looks the
name up at call time (``propner.synthetic.train``, ``propner.cli.predict_tags``,
``propner.encoder.forward`` inside ``predict``) goes through a recording
wrapper. ``uninstall`` puts the originals back. Nothing under ``src/`` is
edited; with tracing off nothing is rebound.

A span is (name, start, end, parent, run id, busy seconds, items). For a
generator function the span opens at the first resume and its busy time is
the time spent inside ``next``, so a consumer's self time excludes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# (defining module, function) pairs that are traced, one span per call.
TARGETS = (
    ("kbstore", "parse_dump"),
    ("kbstore", "build_knowledge_base"),
    ("kbstore", "save_kb"),
    ("kbstore", "load_kb"),
    ("matcher", "build_matcher"),
    ("matcher", "find_candidates"),
    ("matcher", "resolve_overlaps"),
    ("matcher", "retrieve"),
    ("augmenter", "assemble"),
    ("augmenter", "write_jsonl"),
    ("augmenter", "read_jsonl"),
    ("encoder", "train"),
    ("encoder", "forward"),
    ("encoder", "predict"),
    ("encoder", "predict_tags"),
    ("encoder", "load_model"),
    ("encoder", "save_model"),
    ("ensemble", "kfold_split"),
    ("ensemble", "weighted_vote"),
    ("evaluator", "score"),
    ("synthetic", "run_synthetic_ab"),
    ("cli", "main"),
    ("cli", "read_conll"),
)

NAME, START, END, PARENT, RUN, BUSY, ITEMS = range(7)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.run_id, 0.0, 0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[BUSY] += span[END] - span[START]
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                index = None
                while True:
                    begin = time.perf_counter()
                    if index is None:
                        index = len(tracer.spans)
                        parent = tracer.stack[-1] if tracer.stack else None
                        tracer.spans.append([name, begin, begin, parent, tracer.run_id, 0.0, 0])
                    tracer.stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                        span = tracer.spans[index]
                        span[END] = time.perf_counter()
                        span[BUSY] += span[END] - begin
                    span[ITEMS] += 1
                    yield item

            return generator_wrapper

        if name == "cli.main":

            @functools.wraps(fn)
            def main_wrapper(argv=None):
                with tracer.span(f"cli.main.{argv[0] if argv else 'none'}"):
                    return fn(argv)

            return main_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    span[ITEMS] = len(result)
                return result

        return wrapper

    def install(self, hook) -> None:
        """Rebind every traced function in every loaded propner module.

        ``hook(name, fn)`` may return a replacement for the original before
        it is wrapped, used for counters computed from call arguments."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "propner" or key.startswith("propner.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"propner.{module_name}"], attr)
            name = f"{module_name}.{attr}"
            wrapped = self.wrap(name, hook(name, original) or original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Busy time of each span minus the busy time of its children."""
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[BUSY]
        return own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run", "busy", "items")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
