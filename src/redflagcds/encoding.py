"""Reading input files: the character-encoding fallback chain, JSON nested too deep, and
the JSON Lines format."""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterator

logger = logging.getLogger(__name__)


class BadRecord(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


def read_case_id(lineno: int, value, key: str) -> str:
    """A record's case id: a string, or an integer (not a bool) read as its text; any other
    value is a BadRecord naming the line and the key."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    raise BadRecord(lineno, f"{key} is not a string or an integer")


def read_text_fallback(path) -> str:
    """Read a file as UTF-8, stripping a leading BOM, else as Latin-1, which is total
    over bytes, so this never fails to decode."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        logger.info("read %s as Latin-1: not UTF-8", path)
        return data.decode("latin-1")


def parse_json(text):
    """`json.loads`, but JSON nested past the recursion limit raises the JSONDecodeError of
    any other invalid JSON, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deep", "", 0) from None


def read_jsonl(path, required=()) -> Iterator[tuple[int, dict]]:
    r"""Yield (line number, record) for each non-blank line of a JSON Lines file.

    A record ends at "\n" only, so U+0085, U+2028 and U+2029, which JSON allows
    raw inside strings, stay in their record; a "\r" before the "\n" is JSON
    whitespace. Each record must be a JSON object holding every key in
    `required`; anything else is a BadRecord naming its line.
    """
    for lineno, line in enumerate(read_text_fallback(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = parse_json(line)
        except json.JSONDecodeError as exc:
            raise BadRecord(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise BadRecord(lineno, "record is not an object")
        for key in required:
            if key not in record:
                raise BadRecord(lineno, f"missing field {key!r}")
        yield lineno, record
