"""How input files are read: a JSON document is rejected whole with DataError
if it is not UTF-8, not JSON or nested too deeply; a line or record file opened
by :func:`open_lines` skips each :func:`undecodable` or unparsable line, row or
parse block with one warning (:data:`SKIPPED`, FILE:LINE) on its reader's logger.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from typing import IO, Iterable, Iterator

SKIPPED = "%s:%d skipped: %s"  # logger.warning(SKIPPED, path, lineno, reason)
NOT_UTF8 = "not valid UTF-8"
# the code points that errors="surrogateescape" maps bytes that are not UTF-8 to
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


class DataError(Exception):
    """A fatal problem with input data (missing file, corrupt payload,
    mismatched key sets). The command line maps this to exit code 2."""


def read_json(path, what: str):
    """The JSON document at `path`; DataError names `what`, e.g. "taxonomy"."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: invalid {what} JSON: {exc}") from exc


def read_string_lists(path, what: str) -> dict[str, list[str]]:
    """The JSON object at `path`, which must map each name to a list of strings."""
    obj = read_json(path, what)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what} must map each name to a list of strings")
    for name, items in obj.items():
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise DataError(f"{path}: {what} entry {name!r} must be a list of strings")
    return obj


def open_lines(path, newline: str | None = None) -> IO[str]:
    """`path` as UTF-8 text in which a byte that is not UTF-8 spoils its line, not the read."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline=newline)


def undecodable(text: str) -> bool:
    """Whether `text`, read by :func:`open_lines`, held a byte that is not UTF-8."""
    return not text.isascii() and _ESCAPED_BYTE_RE.search(text) is not None


def iter_lines(path, logger: logging.Logger) -> Iterator[tuple[int, str]]:
    """(line number, line) per non-blank line of `path`; an undecodable line
    is skipped with a warning on `logger`."""
    with open_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if undecodable(line):
                logger.warning(SKIPPED, path, lineno, NOT_UTF8)
                continue
            yield lineno, line


def iter_jsonl(path, logger: logging.Logger) -> Iterator[tuple[int, dict]]:
    """(line number, object) per JSON object line of `path`; each other
    non-blank line is skipped with a warning on `logger`."""
    for lineno, line in iter_lines(path, logger):
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            logger.warning(SKIPPED, path, lineno, f"invalid JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            logger.warning(SKIPPED, path, lineno, "record is not an object")
            continue
        yield lineno, obj


def iter_csv(path, columns: Iterable[str], logger: logging.Logger) -> Iterator[tuple[int, dict]]:
    """(line number, row as a dict) per CSV row of `path`; an undecodable row
    is skipped with a warning on `logger`. DataError if the header lacks a column."""
    with open_lines(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{path}: CSV header is missing columns {sorted(missing)}")
        for row in reader:  # line_num: the row's last line in the file
            cells = [v for v in row.values() if isinstance(v, str)] + row.get(None, [])
            if any(map(undecodable, cells)):
                logger.warning(SKIPPED, path, reader.line_num, NOT_UTF8)
                continue
            yield reader.line_num, row
