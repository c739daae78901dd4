"""Per-category lexical statistics.

A group's lexicon is built from its normalized documents: unigram counts
and adjacent-bigram counts. On top of that sit the three analyses: words
common to several groups, words distinctive to one group, and bigram
collocations scored by Pearson's chi-square on the group's own bigram table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .textprep import TokenizedDoc


@dataclass
class GroupLexicon:
    category: str
    unigram_counts: Counter
    bigram_counts: Counter


@dataclass(frozen=True)
class CollocationStat:
    bigram: tuple[str, str]
    chi2: float
    observed: tuple[tuple[int, int], tuple[int, int]]  # [[o11,o12],[o21,o22]]


def build_lexicon(docs: Iterable[TokenizedDoc], category: str = "") -> GroupLexicon:
    """Count unigrams and adjacent bigrams over the group's documents.
    Bigrams never cross document boundaries."""
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for doc in docs:
        tokens = doc.tokens
        unigrams.update(tokens)
        bigrams.update(zip(tokens, tokens[1:]))
    return GroupLexicon(category=category, unigram_counts=unigrams, bigram_counts=bigrams)


def common_words(
    lexicons: Sequence[GroupLexicon], min_groups: int = 2, n: int = 10
) -> list[tuple[str, int, int]]:
    """Tokens appearing in at least `min_groups` lexicons, as
    (token, group_count, total_frequency) ranked by group count then total
    frequency, ties broken lexicographically."""
    if min_groups < 2:
        raise ValueError("min_groups must be at least 2")
    group_count: Counter = Counter()
    total_freq: Counter = Counter()
    for lex in lexicons:
        for token, count in lex.unigram_counts.items():
            group_count[token] += 1
            total_freq[token] += count
    rows = [
        (token, group_count[token], total_freq[token])
        for token in group_count
        if group_count[token] >= min_groups
    ]
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return rows[:n]


def distinctive_words(
    lexicon: GroupLexicon, common: Iterable[str], n: int = 10
) -> list[tuple[str, int]]:
    """The group's most frequent tokens after removing the common set, as
    (token, count) ranked by count, ties lexicographic."""
    banned = set(common)
    rows = [
        (token, count)
        for token, count in lexicon.unigram_counts.items()
        if token not in banned
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:n]


def chi2_2x2(o11: int, o12: int, o21: int, o22: int) -> float:
    """Pearson's chi-square for a 2x2 table via the closed form
    N * (o11*o22 - o12*o21)^2 / (r1 * r2 * c1 * c2). A zero margin makes the
    statistic 0 by convention."""
    if min(o11, o12, o21, o22) < 0:
        raise ValueError("observed counts must be non-negative")
    n = o11 + o12 + o21 + o22
    r1, r2 = o11 + o12, o21 + o22
    c1, c2 = o11 + o21, o12 + o22
    if n == 0 or 0 in (r1, r2, c1, c2):
        return 0.0
    det = o11 * o22 - o12 * o21
    return n * det * det / (r1 * r2 * c1 * c2)


def bigram_collocations(
    lexicon: GroupLexicon, min_count: int = 5, n: int = 10
) -> list[CollocationStat]:
    """Rank the group's bigrams with count >= min_count by chi-square against
    independence of first and second position, computed over the group's own
    bigram positions. Ties break on the bigram itself."""
    big_n = 0
    first: Counter = Counter()
    second: Counter = Counter()
    for (a, b), count in lexicon.bigram_counts.items():
        big_n += count
        first[a] += count
        second[b] += count
    stats: list[CollocationStat] = []
    for (a, b), count in lexicon.bigram_counts.items():
        if count < min_count:
            continue
        o11 = count
        o12 = first[a] - count
        o21 = second[b] - count
        o22 = big_n - o11 - o12 - o21
        cells = (o11, o12, o21, o22)
        if min(cells) < 0 or sum(cells) != big_n:
            raise AssertionError(f"inconsistent contingency table for {(a, b)!r}")
        stats.append(
            CollocationStat(
                bigram=(a, b),
                chi2=chi2_2x2(o11, o12, o21, o22),
                observed=((o11, o12), (o21, o22)),
            )
        )
    stats.sort(key=lambda s: (-s.chi2, s.bigram))
    return stats[:n]
