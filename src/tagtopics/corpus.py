"""Tweet corpus loading, hashtag extraction, category assignment, trends.

Corpus files come as JSON Lines (one object per line with keys id, created_at,
text) or RFC 4180 CSV with a header naming the same columns, in UTF-8.
Records that cannot be parsed, or hold bytes that are not UTF-8, are skipped
with a logged diagnostic; a missing file is fatal.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Mapping

from .errors import DataError

logger = logging.getLogger(__name__)

_HASHTAG_RE = re.compile(r"#(\w+)")
# files are read with errors="surrogateescape", which maps each byte that is
# not UTF-8 to one of these code points
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")
_NOT_UTF8 = "not valid UTF-8"

UNCATEGORIZED = "(uncategorized)"


@dataclass(frozen=True)
class Tweet:
    id: str
    timestamp: datetime  # timezone-aware, UTC
    text: str
    hashtags: tuple[str, ...]  # casefolded, first-occurrence order, deduplicated


@dataclass(frozen=True)
class Category:
    """One taxonomy entry. `hashtags` is the casefolded match set; the raw
    spellings are kept because camel-case boundaries matter downstream."""

    name: str
    hashtags: frozenset[str]
    raw_hashtags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CategoryTaxonomy:
    categories: tuple[Category, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.categories]
        if len(names) != len(set(names)):
            raise DataError("taxonomy category names must be unique")

    def names(self) -> list[str]:
        return [c.name for c in self.categories]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "CategoryTaxonomy":
        cats = []
        for name, tags in mapping.items():
            raw = tuple(str(t) for t in tags)
            folded = frozenset(t.lstrip("#").casefold() for t in raw if t.lstrip("#"))
            if not folded:
                logger.warning("category %r has no hashtags and matches nothing", name)
            cats.append(Category(name=str(name), hashtags=folded, raw_hashtags=raw))
        return cls(categories=tuple(cats))


@dataclass(frozen=True)
class TrendSeries:
    category: str
    points: tuple[tuple[date, int], ...]  # consecutive days, zero-filled


def extract_hashtags(text: str) -> list[str]:
    """All #tag occurrences in order, casefolded, duplicates retained. A tag
    body is a maximal run of word characters after '#'."""
    return [m.group(1).casefold() for m in _HASHTAG_RE.finditer(text) if m.group(1)]


def _parse_timestamp(value: str) -> datetime:
    s = value.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError as exc:  # the UTC instant falls outside years 1-9999
        raise ValueError(f"timestamp out of range: {value!r}") from exc


def _make_tweet(rec_id, created_at, text) -> Tweet:
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError("id must be a non-empty string")
    if not isinstance(created_at, str):
        raise ValueError("created_at must be a string timestamp")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    ts = _parse_timestamp(created_at)
    tags = tuple(dict.fromkeys(extract_hashtags(text)))
    return Tweet(id=rec_id, timestamp=ts, text=text, hashtags=tags)


def _undecodable(text: str) -> bool:
    return not text.isascii() and _ESCAPED_BYTE_RE.search(text) is not None


def _iter_jsonl(path):
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if _undecodable(line):
                yield lineno, None, _NOT_UTF8
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
                yield lineno, None, f"invalid JSON: {exc}"
                continue
            if not isinstance(obj, dict):
                yield lineno, None, "record is not an object"
                continue
            yield lineno, obj, None


def _iter_csv(path):
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"id", "created_at", "text"} - set(reader.fieldnames or ())
        if missing:
            raise DataError(
                f"{path}: CSV header is missing columns {sorted(missing)}"
            )
        for lineno, row in enumerate(reader, start=2):
            cells = [v for v in row.values() if isinstance(v, str)] + row.get(None, [])
            if any(map(_undecodable, cells)):
                yield lineno, None, _NOT_UTF8
                continue
            yield lineno, row, None


def load_corpus(path, fmt: str = "jsonl") -> list[Tweet]:
    """Load tweets in file order. Malformed records, bad timestamps and
    duplicate ids are skipped with one diagnostic each; the first record wins
    a duplicate id."""
    if fmt == "jsonl":
        records = _iter_jsonl(path)
    elif fmt == "csv":
        records = _iter_csv(path)
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")

    tweets: list[Tweet] = []
    seen: set[str] = set()
    for lineno, obj, err in records:
        if err is not None:
            logger.warning("%s:%d skipped: %s", path, lineno, err)
            continue
        try:
            tweet = _make_tweet(obj.get("id"), obj.get("created_at"), obj.get("text"))
        except ValueError as exc:
            logger.warning("%s:%d skipped: %s", path, lineno, exc)
            continue
        if tweet.id in seen:
            logger.warning("%s:%d skipped: duplicate id %r", path, lineno, tweet.id)
            continue
        seen.add(tweet.id)
        tweets.append(tweet)
    return tweets


def load_taxonomy(path) -> CategoryTaxonomy:
    """Read a JSON object mapping category name to a hashtag list; insertion
    order in the file is the taxonomy order."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid taxonomy JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: taxonomy must be an object of name -> tag list")
    for name, tags in obj.items():
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise DataError(f"{path}: category {name!r} must map to a list of strings")
    return CategoryTaxonomy.from_mapping(obj)


def assign_categories(tweet: Tweet, taxonomy: CategoryTaxonomy) -> set[str]:
    """Names of every category sharing a hashtag with the tweet."""
    tags = set(tweet.hashtags)
    return {c.name for c in taxonomy.categories if tags & c.hashtags}


def category_membership(
    corpus: Iterable[Tweet], taxonomy: CategoryTaxonomy
) -> dict[str, set[str]]:
    """tweet id -> set of matching category names, for every tweet that
    matches at least one category."""
    out: dict[str, set[str]] = {}
    for tweet in corpus:
        cats = assign_categories(tweet, taxonomy)
        if cats:
            out[tweet.id] = cats
    return out


def trend_series(
    corpus: Iterable[Tweet],
    taxonomy: CategoryTaxonomy,
    include_uncategorized: bool = True,
) -> list[TrendSeries]:
    """Daily tweet counts per category (UTC days), zero-filled over the
    corpus-wide date span. A tweet in several categories counts once in each;
    tweets matching nothing go to the trailing "(uncategorized)" series."""
    tweets = list(corpus)
    names = taxonomy.names()
    counts: dict[str, Counter] = {name: Counter() for name in names}
    if include_uncategorized:
        counts[UNCATEGORIZED] = Counter()
    days: list[date] = []
    for tweet in tweets:
        day = tweet.timestamp.date()
        days.append(day)
        cats = assign_categories(tweet, taxonomy)
        if not cats and include_uncategorized:
            counts[UNCATEGORIZED][day] += 1
        for cat in cats:
            counts[cat][day] += 1
    if not days:
        return [TrendSeries(category=name, points=()) for name in counts]
    first, last = min(days), max(days)
    span = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    return [
        TrendSeries(category=name, points=tuple((d, counts[name][d]) for d in span))
        for name in counts
    ]


def top_hashtags(corpus: Iterable[Tweet], n: int = 20) -> list[tuple[str, int]]:
    """Hashtags ranked by the number of tweets containing them (a tag repeated
    inside one tweet counts once); ties break lexicographically."""
    if n < 0:
        raise ValueError("n must be non-negative")
    totals: Counter = Counter()
    for tweet in corpus:
        totals.update(tweet.hashtags)
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
