"""Run pytest and print each executable line of ``src/`` that never ran.

    python3 tools/line_coverage.py [--src DIR] [pytest arguments]

A line is executable if the compiled code of its module maps an instruction
to it. A ``sys.settrace`` tracer, set before pytest starts so that module
bodies are traced as they are imported, records the lines that ran in
files under DIR (default: ``src`` beside ``tools``). The lines that did not
run are printed after pytest's own output, one ``path:line`` a line, and
the exit code is pytest's. Lines that run only in a forked child or under
``__main__`` are not seen. Standard library only.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest


def executable_lines(path: Path) -> set[int]:
    lines = set()
    codes = [compile(path.read_bytes(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if argv[:1] == ["--src"]:
        src, argv = Path(argv[1]).resolve(), argv[2:]
    prefix = f"{src}{os.sep}"
    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # a code file name -> its line tracer, or None outside DIR

    def line_tracer(seen: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.abspath(filename)
            tracers[filename] = line_tracer(ran.setdefault(path, set())) if path.startswith(prefix) else None
        return tracers[filename]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(src.rglob("*.py")):
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(src.parent)}:{line}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
