"""Located errors for the files the program reads.

A defect of an input file is reported as one ``InputError`` that names the
file and, where the file has lines, the line: ``path:line: message``.
``parse_lines`` reads the line-oriented formats; ``located`` serves readers
that parse a file, or a header, as a whole.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, TypeVar

T = TypeVar("T")


class InputError(ValueError):
    """A defect of an input file: ``path:line: message``, or
    ``path: message`` when the defect has no line."""

    def __init__(self, path, line: int | None, message: str) -> None:
        super().__init__(f"{path}: {message}" if line is None else f"{path}:{line}: {message}")


class located:
    """Context that turns a KeyError, TypeError or ValueError raised in it
    into an InputError at ``path`` and ``line``. A reader moves ``line`` on
    as it advances."""

    def __init__(self, path, line: int | None = None) -> None:
        self.path, self.line = path, line

    def __enter__(self) -> located:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, (KeyError, TypeError, ValueError)) and not isinstance(exc, InputError):
            message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise InputError(self.path, self.line, message) from None


def parse_lines(path, parse: Callable[[str], T | None]) -> list[T]:
    """The results other than None of ``parse`` called on each line of
    ``path``, then on one empty line past the end, which closes a record
    that ends at a blank line.

    A line ends at ``\\n``, and an ``\\r`` before it is dropped. The rest is
    decoded as UTF-8 and passed on whole, because whitespace around it can
    be data: a trailing tab ends an empty last column.
    """
    results = []
    with open(path, "rb") as handle, located(path) as where:
        for where.line, raw in enumerate(chain(handle, [b""]), start=1):
            result = parse(raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8"))
            if result is not None:
                results.append(result)
    return results
