"""How input files are read: a JSON document is rejected whole with DataError
if it is not UTF-8, not JSON or nested too deeply; a line or record file opened
by :func:`open_lines` skips each :func:`undecodable` or unparsable line, row or
parse block with one warning (:data:`SKIPPED`, FILE:LINE) on its reader's logger.
A CSV row that the csv module rejects is skipped like an undecodable one; a
leading UTF-8 byte order mark is not read as data."""

from __future__ import annotations

import csv
import json
import logging
import re
from itertools import chain, zip_longest
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
        with open(path, encoding="utf-8-sig") as fh:
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
    return open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline)


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


def iter_rows(path, logger: logging.Logger) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) per CSV row of `path` that is not blank; a row that
    is undecodable or that the csv module rejects is skipped with a warning."""
    with open_lines(path, newline="") as fh:
        record: list[str] = []  # the lines of the row being read
        reader = csv.reader(record.append(line) or line for line in fh)
        lineno = 0  # the last line read, where the row ends
        while True:
            record.clear()
            try:
                cells = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                # read the rejected row to its end, lest its rest be read as rows
                lineno += _csv_record_lines(chain(record, fh))
                logger.warning(SKIPPED, path, lineno, f"invalid CSV: {exc}")
                continue
            lineno += len(record)
            if any(map(undecodable, cells)):
                logger.warning(SKIPPED, path, lineno, NOT_UTF8)
            elif len(cells) > 1 or cells and cells[0].strip():  # not blank
                yield lineno, cells


def _csv_record_lines(lines: Iterator[str]) -> int:
    """How many of `lines` the CSV record that starts the first one spans:
    a line break inside a quoted field does not end it. Lines are read only
    to the record's end, and no field is too long to scan."""
    count = 0
    quoted = False
    for count, line in enumerate(lines, start=1):
        i = 0  # where a field starts, or, when quoted, where its text goes on
        while True:
            if quoted:
                i = line.find('"', i) + 1
                if not i:
                    break  # the line break is part of the field
                if line.startswith('"', i):  # a doubled quote is a quote
                    i += 1
                    continue
                quoted = False  # the field's text after its closing quote is plain
            elif line.startswith('"', i):
                quoted = True
                i += 1
                continue
            i = line.find(",", i) + 1
            if not i:
                break
        if not quoted:
            break
    return count


def iter_csv(path, columns: Iterable[str], logger: logging.Logger) -> Iterator[tuple[int, dict]]:
    """(line number, row as a dict keyed by the header, the first row) per other
    row of `path`, paired as by zip_longest. DataError if the header lacks a column."""
    rows = iter_rows(path, logger)
    _, header = next(rows, (0, []))
    missing = set(columns) - set(header)
    if missing:
        raise DataError(f"{path}: CSV header is missing columns {sorted(missing)}")
    for lineno, cells in rows:
        yield lineno, dict(zip_longest(header, cells))
