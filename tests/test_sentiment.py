"""Sentiment labeling thresholds, score-file ingestion, and per-category
non-neutral share aggregation."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tagtopics.corpus import category_membership, load_corpus, load_taxonomy
from tagtopics.sentiment import (
    NON_NEUTRAL,
    SentimentLabel,
    category_distribution,
    default_valence_lexicon,
    ingest_scores,
    load_valence_lexicon,
    score_lexicon,
)

DATA = Path(__file__).parent / "data"

SP = SentimentLabel.STRONGLY_POSITIVE
P = SentimentLabel.POSITIVE
NEU = SentimentLabel.NEUTRAL
N = SentimentLabel.NEGATIVE
SN = SentimentLabel.STRONGLY_NEGATIVE


class TestScoreLexicon:
    # single-token sequences make the mean equal the token's valence, so the
    # boundary behavior of the comparison chain is visible directly
    @pytest.mark.parametrize(
        "valence,expected",
        [
            (1.0, SP),
            (0.5, SP),  # m == t_strong is strongly positive
            (0.4999, P),
            (0.05, P),  # m == t_weak is positive
            (0.0499, NEU),
            (0.0, NEU),
            (-0.0499, NEU),
            (-0.05, N),  # m == -t_weak is negative
            (-0.4999, N),
            (-0.5, SN),  # m == -t_strong is strongly negative
            (-1.0, SN),
        ],
    )
    def test_boundaries(self, valence, expected):
        assert score_lexicon(["w"], {"w": valence}) is expected

    def test_mean_over_hits(self):
        lex = {"a": 0.9, "b": 0.1}
        assert score_lexicon(["a", "b"], lex) is SP  # mean exactly 0.5
        assert score_lexicon(["a", "b", "c"], lex) is SP  # non-hits ignored

    def test_no_hits_is_neutral(self):
        assert score_lexicon(["x", "y"], {"w": 1.0}) is NEU
        assert score_lexicon([], {"w": 1.0}) is NEU

    def test_repeated_hits_weighted(self):
        lex = {"good": 0.6, "bad": -0.6}
        assert score_lexicon(["good", "bad", "bad"], lex) is N

    def test_negation_antisymmetry(self):
        # flipping every valence mirrors the label; exact because float
        # negation is exact and both means divide by the same length
        mirror = {SP: SN, P: N, NEU: NEU, N: P, SN: SP}
        rng = np.random.default_rng(31)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(300):
            lex = {w: float(v) for w, v in zip(vocab, rng.uniform(-1, 1, 10))}
            neg = {w: -v for w, v in lex.items()}
            tokens = list(rng.choice(vocab, size=rng.integers(1, 8)))
            assert score_lexicon(tokens, neg) is mirror[score_lexicon(tokens, lex)]


class TestIngestScores:
    def test_fixture(self):
        labels = ingest_scores(DATA / "scores.jsonl")
        assert len(labels) == 12
        assert labels["t01"] is SP
        assert labels["t05"] is NEU
        assert labels["t08"] is SN
        assert labels["t12"] is P

    def test_bad_records_skipped(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"id": "a", "label": "positive"}\n'
            "not json\n"
            '{"id": "b", "label": "meh"}\n'
            '{"label": "negative"}\n'
            "[1, 2]\n"
            "\n"
            '{"id": "c", "label": "negative"}\n',
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.sentiment"):
            labels = ingest_scores(path)
        assert labels == {"a": P, "c": N}
        assert len(caplog.records) == 4  # bad json, bad label, no id, non-object

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"id": "a", "label": "positive"}\n'
            '{"id": "a", "label": "strongly_negative"}\n',
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.sentiment"):
            labels = ingest_scores(path)
        assert labels == {"a": SN}
        assert any("duplicate" in r.message for r in caplog.records)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_scores(tmp_path / "nope.jsonl")


def fixture_membership():
    tweets = load_corpus(DATA / "corpus.jsonl")
    taxonomy = load_taxonomy(DATA / "taxonomy.json")
    return category_membership(tweets, taxonomy)


class TestCategoryDistribution:
    def test_fixture_shares(self):
        labels = ingest_scores(DATA / "scores.jsonl")
        dists = category_distribution(
            labels, fixture_membership(), ["Music", "Sports", "Weather"]
        )
        assert [d.category for d in dists] == ["Music", "Sports", "Weather"]
        music, sports, weather = dists

        # Music: t01 SP, t02 P, t09 P (t05 neutral drops out)
        assert music.shares[SP] == Fraction(100, 3)
        assert music.shares[P] == Fraction(200, 3)
        assert music.shares[N] == 0 and music.shares[SN] == 0
        # Sports: t03 P, t06 P, t12 P, t07 N
        assert sports.shares[P] == Fraction(75)
        assert sports.shares[N] == Fraction(25)
        # Weather: t04 N, t07 N, t08 SN (t05, t10 neutral)
        assert weather.shares[N] == Fraction(200, 3)
        assert weather.shares[SN] == Fraction(100, 3)

        for d in dists:
            assert not d.insufficient_data
            assert sum(d.shares.values()) == 100

    def test_multi_category_tweet_counts_in_each(self):
        labels = {"x": N}
        membership = {"x": ["A", "B"]}
        dists = category_distribution(labels, membership)
        assert all(d.shares[N] == 100 for d in dists)

    def test_insufficient_data(self):
        labels = {"x": NEU}
        dists = category_distribution(labels, {"x": ["A"]})
        (only,) = dists
        assert only.insufficient_data
        assert set(only.shares.values()) == {Fraction(0)}

    def test_unlabeled_tweets_ignored(self):
        dists = category_distribution({"x": P}, {"x": ["A"], "y": ["A"]})
        assert dists[0].shares[P] == 100

    def test_order_extras_sorted_after_given(self):
        labels = {"1": P, "2": N, "3": SP}
        membership = {"1": ["zeta"], "2": ["alpha"], "3": ["mid"]}
        dists = category_distribution(labels, membership, ["mid"])
        assert [d.category for d in dists] == ["mid", "alpha", "zeta"]
        dists = category_distribution(labels, membership)
        assert [d.category for d in dists] == ["alpha", "mid", "zeta"]

    def test_shares_sum_exactly_100_property(self):
        rng = np.random.default_rng(41)
        all_labels = list(SentimentLabel)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            labels = {f"t{i}": all_labels[rng.integers(5)] for i in range(n)}
            membership = {
                f"t{i}": [f"c{j}" for j in range(rng.integers(0, 4))] for i in range(n)
            }
            for dist in category_distribution(labels, membership):
                total = sum(dist.shares.values())
                if dist.insufficient_data:
                    assert total == 0
                else:
                    assert total == 100
                    assert isinstance(total, Fraction)


class TestValenceLexicon:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("token,valence\ngood,0.5\n", encoding="utf-8")
        assert load_valence_lexicon(path) == {"good": 0.5}

    def test_headerless_first_row_kept(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("good,0.5\nbad,-0.5\n", encoding="utf-8")
        assert load_valence_lexicon(path) == {"good": 0.5, "bad": -0.5}

    def test_bad_rows_skipped(self, tmp_path, caplog):
        path = tmp_path / "v.csv"
        path.write_text(
            "token,valence\n"
            "good,0.5\n"
            "huge,1.5\n"
            "tiny,-2\n"
            "orphan\n"
            ",0.3\n"
            "later,abc\n"
            "fine,-0.25\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.sentiment"):
            lex = load_valence_lexicon(path)
        assert lex == {"good": 0.5, "fine": -0.25}
        assert len(caplog.records) == 5

    def test_tokens_casefolded(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("Good,0.5\n", encoding="utf-8")
        assert load_valence_lexicon(path) == {"good": 0.5}

    def test_default_lexicon(self):
        lex = default_valence_lexicon()
        assert len(lex) > 100
        assert lex["love"] == 0.9
        assert lex["awful"] == -0.85
        assert all(-1.0 <= v <= 1.0 for v in lex.values())
        # and its values drive the labeler end to end
        assert score_lexicon(["love", "it"], lex) is SP
        assert score_lexicon(["awful", "day"], lex) is SN
