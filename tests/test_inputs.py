import errno
import json
import os
import re
from pathlib import Path

import pytest

from propner.inputs import InputError, located, naming, parse_lines, write_text


def test_only_the_line_ending_is_dropped(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\r\nb\rc\n\td\t\ne")
    assert parse_lines(path, lambda line: line) == ["a", "b\rc", "\td\t", "e", ""]


@pytest.mark.parametrize("data,message", [
    (b'{"n": 1}\n\n{"n": 2}\nx\n', "4: Expecting value"),
    (b'{"n": 1}\n\xff\n', "2: 'utf-8' codec can't decode byte 0xff"),
    # the file is decoded before any line is parsed, and the offset is in the file
    (b'x\n\xff\n', "2: 'utf-8' codec can't decode byte 0xff in position 2"),
    (b'{"n": 1}\n{}\n', "2: missing key 'n'"),
    (b'{"n": 1}\n[]\n', "2: list indices must be integers"),
])
def test_error_names_file_and_line(tmp_path, data, message):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(data)
    with pytest.raises(InputError, match=re.escape(f"{path}:{message}")):
        parse_lines(path, lambda line: json.loads(line)["n"] if line else None)


def test_located_without_a_line():
    with pytest.raises(InputError, match=re.escape("meta.json: missing key 'language'")):
        with located("meta.json"):
            {}["language"]


@pytest.mark.parametrize("parts,data", [
    (["a\r\n", "é ü\n", "tail"], b"a\r\n\xc3\xa9 \xc3\xbc\ntail"),
    ([], b""),
])
def test_write_text_writes_its_parts_verbatim(tmp_path, parts, data):
    path = tmp_path / "out.txt"
    write_text(path, iter(parts))
    assert path.read_bytes() == data


def test_naming_names_an_os_error_that_names_no_file():
    with pytest.raises(OSError, match=re.escape("[Errno 28] No space left on device: 'out.txt'")):
        with naming(Path("out.txt")):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    with pytest.raises(OSError, match=re.escape("[Errno 2] No such file or directory: 'other.txt'")):
        with naming("out.txt"):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "other.txt")
