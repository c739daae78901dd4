"""Lexical statistics: group lexicons, common/distinctive words and
chi-square collocations."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tagtopics.lexstats import (
    CollocationStat,
    bigram_collocations,
    build_lexicon,
    chi2_2x2,
    common_words,
    distinctive_words,
)
from tagtopics.textprep import TokenizedDoc


def doc(i, *tokens):
    return TokenizedDoc(f"d{i}", tuple(tokens))


def chi2_oracle(o11, o12, o21, o22):
    """Independent route: sum over cells of (O - E)^2 / E with expected
    counts from the margins, in exact rational arithmetic."""
    n = o11 + o12 + o21 + o22
    r = (o11 + o12, o21 + o22)
    c = (o11 + o21, o12 + o22)
    if n == 0 or 0 in r or 0 in c:
        return Fraction(0)
    total = Fraction(0)
    observed = ((o11, o12), (o21, o22))
    for i in range(2):
        for j in range(2):
            e = Fraction(r[i] * c[j], n)
            total += (observed[i][j] - e) ** 2 / e
    return total


class TestBuildLexicon:
    def test_counts_and_totals(self):
        lex = build_lexicon([doc(1, "a", "b", "a"), doc(2, "b")], category="g")
        assert lex.category == "g"
        assert lex.unigram_counts == Counter({"a": 2, "b": 2})
        assert lex.bigram_counts == Counter({("a", "b"): 1, ("b", "a"): 1})
        assert sum(lex.unigram_counts.values()) == 4
        assert sum(lex.bigram_counts.values()) == 2

    def test_bigrams_do_not_cross_documents(self):
        lex = build_lexicon([doc(1, "a"), doc(2, "b")])
        assert lex.bigram_counts == Counter()
        assert sum(lex.bigram_counts.values()) == 0

    def test_empty(self):
        lex = build_lexicon([])
        assert sum(lex.unigram_counts.values()) == 0
        assert lex.unigram_counts == Counter()


LEX_A = build_lexicon([doc(1, *["apple"] * 5, *["pear"] * 2, "plum")], "A")
LEX_B = build_lexicon([doc(2, *["apple"] * 3, *["plum"] * 4, *["cherry"] * 9)], "B")
LEX_C = build_lexicon([doc(3, "pear", *["grape"] * 2)], "C")


class TestCommonDistinctive:
    def test_common_ranking(self):
        rows = common_words([LEX_A, LEX_B, LEX_C], min_groups=2, n=10)
        assert rows == [("apple", 2, 8), ("plum", 2, 5), ("pear", 2, 3)]

    def test_common_truncates(self):
        rows = common_words([LEX_A, LEX_B, LEX_C], min_groups=2, n=2)
        assert [r[0] for r in rows] == ["apple", "plum"]

    def test_min_groups_validation(self):
        with pytest.raises(ValueError):
            common_words([LEX_A, LEX_B], min_groups=1)

    def test_group_count_beats_frequency(self):
        a = build_lexicon([doc(1, *["x"] * 100, "shared")], "a")
        b = build_lexicon([doc(2, "shared")], "b")
        c = build_lexicon([doc(3, "shared")], "c")
        rows = common_words([a, b, c], min_groups=2, n=1)
        assert rows[0][0] == "shared"  # in 3 groups, beats x's 100 occurrences

    def test_distinctive_excludes_common_and_ranks(self):
        common = [t for t, _, _ in common_words([LEX_A, LEX_B, LEX_C], 2, 10)]
        rows = distinctive_words(LEX_B, common, n=10)
        assert rows == [("cherry", 9)]

    def test_distinctive_tie_breaks_lexicographically(self):
        lex = build_lexicon([doc(1, "beta", "alpha", "beta", "alpha")])
        assert distinctive_words(lex, [], n=2) == [("alpha", 2), ("beta", 2)]

    def test_disjointness_property(self):
        rng = np.random.default_rng(17)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(50):
            lexicons = []
            for g in range(3):
                words = rng.choice(vocab, size=rng.integers(5, 40))
                lexicons.append(build_lexicon([doc(g, *words)], f"g{g}"))
            common = [t for t, _, _ in common_words(lexicons, 2, 10)]
            for lex in lexicons:
                distinct = {t for t, _ in distinctive_words(lex, common, 10)}
                assert distinct.isdisjoint(common)


class TestChi2:
    def test_fixed_table(self):
        expected = 1210 / 441  # 10 * 11^2 / (3 * 7 * 3 * 7)
        assert abs(chi2_2x2(2, 1, 1, 6) - expected) <= 1e-12

    def test_zero_and_degenerate_margins(self):
        assert chi2_2x2(0, 0, 0, 0) == 0.0
        assert chi2_2x2(5, 3, 0, 0) == 0.0  # empty second row
        assert chi2_2x2(5, 0, 3, 0) == 0.0  # empty second column

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_2x2(-1, 0, 0, 0)

    def test_matches_expected_count_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            o = [int(x) for x in rng.integers(0, 51, size=4)]
            got = chi2_2x2(*o)
            want = float(chi2_oracle(*o))
            assert abs(got - want) <= 1e-9

    def test_independence_gives_zero(self):
        # perfectly proportional table
        assert chi2_2x2(2, 4, 3, 6) == 0.0


class TestCollocations:
    def test_hand_computed_ranking(self):
        lex = build_lexicon([doc(1, "a", "b", "a", "b", "c")])
        stats = bigram_collocations(lex, min_count=1, n=10)
        assert [s.bigram for s in stats] == [("a", "b"), ("b", "a"), ("b", "c")]
        assert stats[0].observed == ((2, 0), (0, 2))
        assert abs(stats[0].chi2 - 4.0) <= 1e-12
        assert abs(stats[1].chi2 - 4 / 3) <= 1e-12

    def test_min_count_filters(self):
        lex = build_lexicon([doc(1, "a", "b", "a", "b", "c")])
        stats = bigram_collocations(lex, min_count=2, n=10)
        assert [s.bigram for s in stats] == [("a", "b")]

    def test_observed_cells_sum_to_positions(self):
        rng = np.random.default_rng(5)
        vocab = list("abcdef")
        docs = [
            doc(i, *rng.choice(vocab, size=rng.integers(2, 30))) for i in range(8)
        ]
        lex = build_lexicon(docs)
        for stat in bigram_collocations(lex, min_count=1, n=50):
            cells = [c for row in stat.observed for c in row]
            assert min(cells) >= 0
            assert sum(cells) == sum(lex.bigram_counts.values())

    def test_single_bigram_type_degenerates_to_zero(self):
        lex = build_lexicon([doc(1, "x", "y")])
        (stat,) = bigram_collocations(lex, min_count=1, n=5)
        assert stat.chi2 == 0.0

    def test_no_bigrams(self):
        lex = build_lexicon([doc(1, "solo")])
        assert bigram_collocations(lex, min_count=1) == []
