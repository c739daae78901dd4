"""Tweet corpus loading, hashtag extraction, category assignment, trends.

Corpus files come as JSON Lines (one object per line with keys id, created_at,
text) or RFC 4180 CSV with a header naming the same columns, in UTF-8. Bad
records are skipped as :mod:`tagtopics.errors` says; a missing file is fatal.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Mapping, Sequence

from .errors import SKIPPED, DataError, iter_csv, iter_jsonl, read_string_lists

logger = logging.getLogger(__name__)

_HASHTAG_RE = re.compile(r"#(\w+)")
# the one timestamp grammar, which datetime.fromisoformat reads alike on every
# supported Python: YYYY-MM-DD, optionally followed by T, t or a space and
# HH[:MM[:SS[.fff|.ffffff]]], and that by Z, z or +-HH:MM[:SS[.ffffff]]
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\d(?:[Tt ]\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
                           r"(?:[Zz]|[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?", re.ASCII)

UNCATEGORIZED = "(uncategorized)"
MAX_TREND_DAYS = 36_525  # 100 years; checked before the zero-filled span is built


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
    if "#" not in text:
        return []
    # (\w+) never matches empty, so every body is a tag
    return [tag.casefold() for tag in _HASHTAG_RE.findall(text)]


def _parse_timestamp(value: str) -> datetime:
    s = value.strip()
    if not _TIMESTAMP_RE.fullmatch(s):
        raise ValueError(f"not an extended ISO 8601 timestamp: {value!r}")
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


def load_corpus(path, fmt: str = "jsonl") -> list[Tweet]:
    """Load tweets in file order. Malformed records, bad timestamps and
    duplicate ids are skipped with one diagnostic each; the first record wins
    a duplicate id."""
    if fmt == "jsonl":
        records = iter_jsonl(path, logger)
    elif fmt == "csv":
        records = iter_csv(path, ("id", "created_at", "text"), logger)
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")

    tweets: list[Tweet] = []
    seen: set[str] = set()
    for lineno, obj in records:
        try:
            tweet = _make_tweet(obj.get("id"), obj.get("created_at"), obj.get("text"))
        except ValueError as exc:
            logger.warning(SKIPPED, path, lineno, exc)
            continue
        if tweet.id in seen:
            logger.warning(SKIPPED, path, lineno, f"duplicate id {tweet.id!r}")
            continue
        seen.add(tweet.id)
        tweets.append(tweet)
    return tweets


def load_taxonomy(path) -> CategoryTaxonomy:
    """Read a JSON object mapping category name to a hashtag list; insertion
    order in the file is the taxonomy order."""
    return CategoryTaxonomy.from_mapping(read_string_lists(path, "taxonomy"))


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


def category_order(
    membership: Mapping[str, Iterable[str]], categories: Sequence[str] | None = None
) -> list[str]:
    """`categories` (taxonomy order), then the other categories named in
    `membership`, sorted; all of them sorted if `categories` is None."""
    seen: set[str] = set()
    for cats in membership.values():
        seen.update(cats)
    if categories is None:
        return sorted(seen)
    return list(categories) + sorted(seen - set(categories))


def trend_series(corpus: Iterable[Tweet], taxonomy: CategoryTaxonomy) -> list[TrendSeries]:
    """Daily tweet counts per category (UTC days), zero-filled over the
    corpus-wide date span. A tweet in several categories counts once in each;
    tweets matching nothing go to the trailing "(uncategorized)" series. A
    span of more than MAX_TREND_DAYS days raises DataError naming its ends."""
    tweets = list(corpus)
    names = taxonomy.names()
    counts: dict[str, Counter] = {name: Counter() for name in names}
    counts[UNCATEGORIZED] = Counter()
    days: list[date] = []
    for tweet in tweets:
        day = tweet.timestamp.date()
        days.append(day)
        cats = assign_categories(tweet, taxonomy)
        if not cats:
            counts[UNCATEGORIZED][day] += 1
        for cat in cats:
            counts[cat][day] += 1
    if not days:
        return [TrendSeries(category=name, points=()) for name in counts]
    first, last = min(days), max(days)
    if (length := (last - first).days + 1) > MAX_TREND_DAYS:
        raise DataError(f"tweets from {first} to {last} span {length} days, "
                        f"over the {MAX_TREND_DAYS}-day trend limit")
    span = [first + timedelta(days=i) for i in range(length)]
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
