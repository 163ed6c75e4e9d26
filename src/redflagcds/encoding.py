"""Reading input files: the character-encoding fallback chain and the JSON Lines format."""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterator

logger = logging.getLogger(__name__)

UTF8 = "UTF8"
UTF8_BOM = "UTF8_BOM"
LATIN1 = "LATIN1"


class BadRecord(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


def decode_fallback(data: bytes) -> tuple[str, str]:
    """Decode bytes, returning (text, decoder_used).

    Order: UTF-8 strict, UTF-8 with BOM stripped, Latin-1. Latin-1 is total
    over bytes, so this never fails.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("latin-1"), LATIN1
    if text.startswith("\ufeff"):
        return text[1:], UTF8_BOM
    return text, UTF8


def read_text_fallback(path) -> str:
    """Read a file through the encoding fallback chain."""
    data = Path(path).read_bytes()
    text, decoder = decode_fallback(data)
    if decoder != UTF8:
        logger.info("read %s with fallback decoder %s", path, decoder)
    return text


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
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRecord(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise BadRecord(lineno, "record is not an object")
        for key in required:
            if key not in record:
                raise BadRecord(lineno, f"missing field {key!r}")
        yield lineno, record
