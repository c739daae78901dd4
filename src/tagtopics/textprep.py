"""Tweet text normalization and category-echo filtering.

The normalization pipeline runs in a fixed order: strip URLs, @-mentions and
'#' characters (the tag body stays in the text as a word), casefold, split on
non-alphabetic characters, drop tokens shorter than two characters, drop
stopwords, then optionally Porter-stem. With stemming off the pipeline is
idempotent; the stemmer itself is not idempotent on its own output, so the
stemmed pipeline only guarantees determinism.

Text facts are computed once per process: :func:`porter.stem` is memoized,
and the banned set of the echo filter is built once per (taxonomy,
exclusions) pair and reused for every tweet. Both are pure functions of
frozen, hashable inputs, so a cached result equals a fresh one.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import porter
from .errors import iter_lines

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_MENTION_RE = re.compile(r"(?<!\w)@\w+")
_LETTER_RUN_RE = re.compile(r"[^\W\d_]+")
# camel-case and letter/digit boundaries: StayHome -> Stay, Home; covid19 -> covid, 19
_TAG_COMPONENT_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z][a-z]+|[A-Z]+|[a-z]+|\d+")

MIN_TOKEN_LEN = 2


@dataclass(frozen=True)
class NormalizationConfig:
    """Controls for :func:`normalize`. The stopword set is matched after
    casefolding and before stemming, so entries are plain lowercase words."""

    stopwords: frozenset[str] = frozenset()
    stem: bool = True


@dataclass(frozen=True)
class TokenizedDoc:
    """A tweet reduced to its normalized token sequence."""

    tweet_id: str
    tokens: tuple[str, ...]


def normalize(text: str, config: NormalizationConfig) -> list[str]:
    """Normalize raw tweet text to a token list. Token order is preserved;
    output tokens are lowercase, alphabetic, and at least two characters."""
    return _tokens(text, config, frozenset())


def _tokens(text: str, config: NormalizationConfig, banned: frozenset[str]) -> list[str]:
    """:func:`normalize`, dropping `banned` echo terms before the stem step: one stem per word."""
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = text.replace("#", "")
    text = text.casefold()
    tokens = [t for t in _LETTER_RUN_RE.findall(text) if len(t) >= MIN_TOKEN_LEN]
    tokens = [t for t in tokens if t not in config.stopwords]
    if banned:
        tokens = _drop_echo(tokens, banned)
    if config.stem:
        tokens = [porter.stem(t) for t in tokens]
    return tokens


def tokenize_tweets(tweets: Iterable, config: NormalizationConfig, taxonomy,
                    exclusions: Iterable[str] = ()) -> list[TokenizedDoc]:
    """The one path from tweets to model and lexicon tokens: one
    :class:`TokenizedDoc` of :func:`echo_free_tokens` per tweet, in order, so
    no analysis reads the hashtags that define its groups."""
    banned = _echo_terms(taxonomy, frozenset(exclusions))
    return [TokenizedDoc(t.id, tuple(_tokens(t.text, config, banned))) for t in tweets]


def echo_free_tokens(text: str, config: NormalizationConfig, taxonomy,
                     exclusions: Iterable[str] = ()) -> list[str]:
    """:func:`normalize` minus category-echo terms (:func:`filter_category_echo`)."""
    return _tokens(text, config, _echo_terms(taxonomy, frozenset(exclusions)))


def split_tag(tag: str) -> list[str]:
    """Split a hashtag body at camel-case and letter/digit boundaries."""
    return _TAG_COMPONENT_RE.findall(tag)


@functools.cache
def _echo_terms(taxonomy, exclusions: Iterable[str]) -> frozenset[str]:
    """The stemmed and unstemmed echo terms; `exclusions` must be hashable."""
    terms: list[str] = []
    for category in taxonomy.categories:
        raw = category.raw_hashtags or tuple(sorted(category.hashtags))
        for tag in raw:
            body = tag.lstrip("#")
            terms.append(body)
            terms.extend(split_tag(body))
    for entry in exclusions:
        terms.append(entry)
        terms.extend(entry.split())
    out: set[str] = set()
    for term in terms:
        t = term.casefold().strip()
        if not t:
            continue
        out.add(t)
        out.add(porter.stem(t))
    return frozenset(out)


def filter_category_echo(
    tokens: Iterable[str],
    taxonomy,
    exclusions: Iterable[str] = (),
) -> list[str]:
    """Drop tokens that merely echo the category definitions: taxonomy
    hashtags, their camel-case / digit-boundary components, and caller-supplied
    exclusion terms (whitespace-split). A token is dropped when either it or
    its stem appears in the stemmed term set, so raw and pre-stemmed token
    streams both filter correctly. The banned set is built once per
    (taxonomy, exclusions) pair and reused by later calls."""
    return _drop_echo(tokens, _echo_terms(taxonomy, frozenset(exclusions)))


def _drop_echo(tokens: Iterable[str], banned: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in banned and porter.stem(t) not in banned]


def load_wordlist(path) -> frozenset[str]:
    """Read one casefolded word per line; blank lines and '#' comments skipped."""
    words: set[str] = set()
    for _, line in iter_lines(path, logger):
        w = line.strip()
        if not w.startswith("#"):
            words.add(w.casefold())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    return load_wordlist(Path(__file__).with_name("data") / "stopwords.txt")
