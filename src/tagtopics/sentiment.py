"""Five-class sentiment labeling and per-category aggregation.

Labels come either from an external score file or from a small valence
lexicon: the mean valence m of a tweet's lexicon hits is thresholded into
strongly positive (m >= t_strong), positive (t_weak <= m < t_strong),
neutral (|m| < t_weak), negative, strongly negative; a tweet with no hits
is neutral. Category profiles drop the neutral class and renormalize the
four remaining counts to percentages that sum to exactly 100 (kept as
Fractions until rendering).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import category_order
from .errors import SKIPPED, iter_jsonl, iter_rows

logger = logging.getLogger(__name__)


class SentimentLabel(str, Enum):
    STRONGLY_POSITIVE = "strongly_positive"
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"
    STRONGLY_NEGATIVE = "strongly_negative"


NON_NEUTRAL = (
    SentimentLabel.STRONGLY_POSITIVE,
    SentimentLabel.POSITIVE,
    SentimentLabel.NEGATIVE,
    SentimentLabel.STRONGLY_NEGATIVE,
)

_LABEL_BY_VALUE = {label.value: label for label in SentimentLabel}
_THRESHOLDS = (0.5, 0.05)  # t_strong, t_weak


@dataclass(frozen=True)
class SentimentDistribution:
    """Non-neutral percentage shares for one category. Shares are exact
    Fractions summing to 100, all zero when the category had no non-neutral
    tweets (then insufficient_data is set)."""

    category: str
    shares: Mapping[SentimentLabel, Fraction]
    insufficient_data: bool


def score_lexicon(tokens: Iterable[str], lexicon: Mapping[str, float]) -> SentimentLabel:
    """Label a token sequence by mean valence of its lexicon hits, with
    t_strong 0.5 and t_weak 0.05."""
    t_strong, t_weak = _THRESHOLDS
    hits = [lexicon[t] for t in tokens if t in lexicon]
    m = sum(hits) / len(hits) if hits else 0.0
    if m >= t_strong:
        return SentimentLabel.STRONGLY_POSITIVE
    if m >= t_weak:
        return SentimentLabel.POSITIVE
    if m > -t_weak:
        return SentimentLabel.NEUTRAL
    if m > -t_strong:
        return SentimentLabel.NEGATIVE
    return SentimentLabel.STRONGLY_NEGATIVE


def ingest_scores(path) -> dict[str, SentimentLabel]:
    """Read a JSON Lines score file with keys id and label. Unknown labels and
    malformed lines are skipped with a diagnostic; on duplicate ids the last
    record wins (with a warning)."""
    out: dict[str, SentimentLabel] = {}
    for lineno, obj in iter_jsonl(path, logger):
        rec_id = obj.get("id")
        label = obj.get("label")
        if not isinstance(rec_id, str) or not rec_id:
            logger.warning(SKIPPED, path, lineno, "missing id")
            continue
        if not isinstance(label, str) or label not in _LABEL_BY_VALUE:
            logger.warning(SKIPPED, path, lineno, f"unknown label {label!r}")
            continue
        if rec_id in out:
            logger.warning("%s:%d duplicate id %r, keeping the later record",
                           path, lineno, rec_id)
        out[rec_id] = _LABEL_BY_VALUE[label]
    return out


def category_distribution(
    labels: Mapping[str, SentimentLabel],
    membership: Mapping[str, Iterable[str]],
    categories: Sequence[str] | None = None,
) -> list[SentimentDistribution]:
    """Aggregate tweet labels into per-category non-neutral shares.

    `membership` maps tweet id to the categories it belongs to; a tweet in
    several categories counts once in each. Tweets without a label are
    ignored. Output order is :func:`corpus.category_order`.
    """
    order = category_order(membership, categories)
    counts: dict[str, dict[SentimentLabel, int]] = {
        name: {label: 0 for label in NON_NEUTRAL} for name in order
    }
    for tweet_id, cats in membership.items():
        label = labels.get(tweet_id)
        if label is None or label is SentimentLabel.NEUTRAL:
            continue
        for cat in cats:
            counts[cat][label] += 1

    out: list[SentimentDistribution] = []
    for name in order:
        c = counts[name]
        total = sum(c.values())
        shares = {label: Fraction(100 * c[label], total or 1) for label in NON_NEUTRAL}
        out.append(SentimentDistribution(name, shares, insufficient_data=not total))
    return out


def load_valence_lexicon(path) -> dict[str, float]:
    """Read a token,valence CSV. A first row whose second column does not
    parse as a number is treated as a header; other bad rows are skipped with
    a diagnostic. Valences outside [-1, 1] are rejected."""
    out: dict[str, float] = {}
    for lineno, row in iter_rows(path, logger):
        if len(row) < 2:
            logger.warning(SKIPPED, path, lineno, "need token,valence")
            continue
        token = row[0].strip().casefold()
        try:
            valence = float(row[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            logger.warning(SKIPPED, path, lineno, f"bad valence {row[1]!r}")
            continue
        if not token:
            logger.warning(SKIPPED, path, lineno, "empty token")
            continue
        if not -1.0 <= valence <= 1.0:
            logger.warning(SKIPPED, path, lineno, f"valence {row[1]!r} outside [-1, 1]")
            continue
        out[token] = valence
    return out


def default_valence_lexicon() -> dict[str, float]:
    """The small general-purpose valence lexicon shipped with the package."""
    return load_valence_lexicon(Path(__file__).with_name("data") / "valence.csv")
