"""The files the program reads and writes, and errors that name them.

A defect of an input file is reported as one ``InputError`` that names the
file and, where the file has lines, the line: ``path:line: message``.
``read_lines`` splits a text file into lines for every reader but the
dump's, which streams; ``parse_lines`` parses them one by one, and
``located`` serves readers that parse a file, or a header, as a whole.
A text file is UTF-8 without a byte order mark, and a string read from
JSON must be one that UTF-8 can encode (``check_utf8``).

Every text file the program writes goes through ``write_text``, and a
write that fails names its file (``naming``), as ``open`` does.
"""

from __future__ import annotations

import codecs
from contextlib import contextmanager
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


class InputError(ValueError):
    """A defect of an input file: ``path:line: message``, or
    ``path: message`` when the defect has no line."""

    def __init__(self, path, line: int | None, message: str) -> None:
        super().__init__(f"{path}: {message}" if line is None else f"{path}:{line}: {message}")


class located:
    """Context that turns a KeyError, TypeError or ValueError raised in it
    into an InputError at ``path`` and ``line``, and a RecursionError too,
    which ``json.loads`` raises on JSON nested deeper than the recursion
    limit. A reader moves ``line`` on as it advances."""

    def __init__(self, path, line: int | None = None) -> None:
        self.path, self.line = path, line

    def __enter__(self) -> located:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, (KeyError, TypeError, ValueError, RecursionError)) and not isinstance(exc, InputError):
            message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise InputError(self.path, self.line, message) from None


def refuse_bom(path, head: bytes) -> None:
    """Refuse the file at ``path`` if its first bytes, ``head``, are a UTF-8
    byte order mark, which would otherwise be read as part of line 1."""
    if head.startswith(codecs.BOM_UTF8):
        raise InputError(path, 1, "starts with a UTF-8 byte order mark")


def check_utf8(text: str) -> str:
    """``text`` if UTF-8 can encode it. A JSON escape of a lone surrogate,
    such as ``"\\ud800"``, decodes to a string that it cannot, so a reader
    of JSON refuses such a string before any writer meets it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{exc.object[exc.start]!r} is a lone surrogate, which UTF-8 cannot encode") from None
    return text


def read_lines(path) -> list[str]:
    """The lines of the text file at ``path``. A line ends at ``\\n``, and an
    ``\\r`` before it is dropped; the rest is kept whole, because whitespace
    around it can be data: a trailing tab ends an empty last column.

    The file is decoded as UTF-8 whole, which is much faster than line by
    line. An undecodable byte raises an InputError at its line, whose
    message gives the byte's offset in the file. A leading byte order mark
    is refused (``refuse_bom``)."""
    with open(path, "rb") as handle:
        data = handle.read()
    refuse_bom(path, data)
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise InputError(path, data.count(b"\n", 0, exc.start) + 1, str(exc)) from None
    if not lines[-1]:
        lines.pop()  # the empty rest after the last newline
    if b"\r" in data:
        lines = [line.removesuffix("\r") for line in lines]
    return lines


def parse_lines(path, parse: Callable[[str], T | None]) -> list[T]:
    """The results other than None of ``parse`` called on each line of
    ``path`` (see ``read_lines``), then on one empty line past the end,
    which closes a record that ends at a blank line. A defect found there
    is reported at the file's last line, where the record ends, or at line
    1 of an empty file."""
    results = []
    with located(path, 1) as where:
        for where.line, line in enumerate(read_lines(path), start=1):
            results.append(parse(line))
        results.append(parse(""))
    return [result for result in results if result is not None]


@contextmanager
def naming(path):
    """Context that gives an OSError raised in it that names no file, as a
    failed write or close does, the name ``path``: its message then reads
    like ``open``'s own, ``[Errno 28] No space left on device: 'path'``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def write_text(path, parts: Iterable[str]) -> None:
    """Write the strings ``parts`` to the text file at ``path`` as they are:
    UTF-8, with no newline translation. Each part ends its own lines."""
    with naming(path), open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(parts)
