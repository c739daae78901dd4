"""Corpus loading, hashtag extraction, category assignment, trend series."""

import ast
import codecs
import json
import logging
import re
import tempfile
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tagtopics import cli, corpus, sentiment
from tagtopics.corpus import (
    MAX_TREND_DAYS,
    CategoryTaxonomy,
    Tweet,
    UNCATEGORIZED,
    assign_categories,
    category_membership,
    extract_hashtags,
    load_corpus,
    load_taxonomy,
    top_hashtags,
    trend_series,
)
from tagtopics.errors import DataError, iter_rows
from tagtopics.sentiment import ingest_scores, load_valence_lexicon
from tagtopics.syntax import load_parses
from tagtopics.textprep import load_wordlist

DATA = Path(__file__).parent / "data"
PACKAGE_DATA = Path(corpus.__file__).parent / "data"


def reference_hashtags(text: str) -> list[str]:
    """Character-by-character scanner used as an independent oracle: '#'
    starts a tag; the body is the maximal following run of word characters;
    empty bodies are not tags."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "#":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j > i + 1:
                out.append(text[i + 1:j].casefold())
            i = j
        else:
            i += 1
    return out


SCANNER_CASES = [
    "",
    "no tags here",
    "#one",
    "#One #two #ONE",
    "leading text #tag trailing",
    "#tag! punctuation",
    "##double",
    "# lone hash",
    "#",
    "end#middle",
    "#under_score and #digits123",
    "#tag,#tag2;#tag3",
    "email x@y.com #real",
    "#MixedCase#Chained",
    "(#parens) [#brackets]",
    "#trailing#",
    "#a #b #c",
    "repeat #same #same #same",
    "#123 numeric body",
    "#tag-with-dash",
]


class TestExtractHashtags:
    @pytest.mark.parametrize("text", SCANNER_CASES)
    def test_matches_reference_scanner(self, text):
        assert extract_hashtags(text) == reference_hashtags(text)

    def test_casefolds_and_keeps_duplicates(self):
        assert extract_hashtags("#Wave #wave #WAVE") == ["wave", "wave", "wave"]

    def test_order_preserved(self):
        assert extract_hashtags("#b #a #c") == ["b", "a", "c"]


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


# one timestamp grammar on every supported Python: each stamp with the UTC
# instant it denotes, and stamps skipped though some Python's fromisoformat
# reads them (the first five on 3.11, not on 3.10)
TIMESTAMPS_LOADED = [
    ("2020-03-01", utc(2020, 3, 1)),
    ("2020-03-01T12", utc(2020, 3, 1, 12)),
    ("2020-03-01T12:30", utc(2020, 3, 1, 12, 30)),
    ("2020-03-01T12:30:45", utc(2020, 3, 1, 12, 30, 45)),
    ("2020-03-01 12:30:45", utc(2020, 3, 1, 12, 30, 45)),
    ("2020-03-01t12:30:45z", utc(2020, 3, 1, 12, 30, 45)),
    ("2020-03-01T12:30:45Z", utc(2020, 3, 1, 12, 30, 45)),
    (" 2020-03-01T12:30:45Z\t", utc(2020, 3, 1, 12, 30, 45)),
    ("2020-03-01T12:30:45.123", utc(2020, 3, 1, 12, 30, 45, 123000)),
    ("2020-03-01T12:30:45.123456Z", utc(2020, 3, 1, 12, 30, 45, 123456)),
    ("2020-03-01T12+01:00", utc(2020, 3, 1, 11)),
    ("2020-03-01T12:30-04:00", utc(2020, 3, 1, 16, 30)),
    ("2020-03-01T12:30:45+05:30", utc(2020, 3, 1, 7, 0, 45)),
    ("2020-03-01T12:30:45-00:00", utc(2020, 3, 1, 12, 30, 45)),
    ("2020-03-01T12:30:45+01:00:30", utc(2020, 3, 1, 11, 30, 15)),
    ("2020-03-01T12:30:45+01:00:30.500000", utc(2020, 3, 1, 11, 30, 14, 500000)),
    ("2020-03-01T00:30:00+01:00", utc(2020, 2, 29, 23, 30)),
    ("2021-06-01T18:00:00+02:00", utc(2021, 6, 1, 16)),  # as in tests/data
]
TIMESTAMPS_SKIPPED = [
    "20200301T120000", "2020-03-01 12:00:00+0000", "2020-03-01T12:00:00.1+00:00",
    "2020-03-01T12:00+0100", "2020-W10-1",
    "2020-03-01T12:00:00.1", "2020-03-01T12:00:00.12345", "2020-03-01T12:00:00,5",
    "2020-03-01T12:00:00+01", "2020-03-01T12:00:00+01:00:30.123", "2020-03-01x12:00",
    "2020-03-01+01:00", "2020-03-01Z", "2020-03-01T1:00", "2020-3-01", "+2020-03-01",
    "\u0662\u0660\u0662\u0660-03-01", "2020-03-01T24:00:00", "2020-13-01",
    "2020-03-01T12:00:00+24:00", "sometime yesterday", "",
]


class TestLoadCorpus:
    @pytest.mark.parametrize("stamp, instant", TIMESTAMPS_LOADED)
    def test_timestamp_grammar_loads(self, tmp_path, stamp, instant):
        p = tmp_path / "stamps.jsonl"
        p.write_text(json.dumps({"id": "a", "created_at": stamp, "text": "x"}) + "\n",
                     encoding="utf-8")
        (tweet,) = load_corpus(p)
        assert tweet.timestamp == instant
        assert tweet.timestamp.utcoffset() == timedelta(0)

    @pytest.mark.parametrize("stamp", TIMESTAMPS_SKIPPED)
    def test_timestamp_outside_grammar_skipped(self, tmp_path, caplog, stamp):
        p = tmp_path / "stamps.jsonl"
        p.write_text(
            json.dumps({"id": "b", "created_at": "2021-06-01T05:00:00Z", "text": "x"}) + "\n"
            + json.dumps({"id": "a", "created_at": stamp, "text": "x"}) + "\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            assert [t.id for t in load_corpus(p)] == ["b"]
        (record,) = caplog.records
        assert "stamps.jsonl:2 skipped: " in record.getMessage()

    def test_jsonl_fixture(self):
        tweets = load_corpus(DATA / "corpus.jsonl")
        assert len(tweets) == 12
        assert tweets[0].id == "t01"
        assert tweets[0].hashtags == ("livemusic", "concertnight")
        assert tweets[0].timestamp == datetime(2021, 6, 1, 9, tzinfo=timezone.utc)

    def test_offset_timestamps_convert_to_utc(self):
        tweets = {t.id: t for t in load_corpus(DATA / "corpus.jsonl")}
        assert tweets["t03"].timestamp == datetime(2021, 6, 1, 16, tzinfo=timezone.utc)

    def test_duplicate_tags_within_tweet_deduplicated(self):
        tweets = {t.id: t for t in load_corpus(DATA / "corpus.jsonl")}
        assert tweets["t10"].hashtags == ("heatwave",)

    def test_csv_equals_jsonl(self):
        assert load_corpus(DATA / "corpus.csv", fmt="csv") == load_corpus(
            DATA / "corpus.jsonl", fmt="jsonl"
        )

    def test_bad_records_skipped_with_diagnostics(self, caplog):
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            tweets = load_corpus(DATA / "corpus_bad.jsonl")
        assert [t.id for t in tweets] == ["t01", "t99"]
        assert len(caplog.records) == 5
        text = "\n".join(r.getMessage() for r in caplog.records)
        assert "invalid JSON" in text
        assert "duplicate id" in text

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_corpus(DATA / "corpus.jsonl", fmt="parquet")

    def test_csv_missing_column_is_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,text\nx,hello\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(p, fmt="csv")

    def test_naive_timestamp_treated_as_utc(self, tmp_path):
        p = tmp_path / "naive.jsonl"
        p.write_text(
            '{"id": "n1", "created_at": "2021-06-01T05:00:00", "text": "x"}\n',
            encoding="utf-8",
        )
        (tweet,) = load_corpus(p)
        assert tweet.timestamp == datetime(2021, 6, 1, 5, tzinfo=timezone.utc)


LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)))
OFFSETS = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                        max_value=timedelta(hours=23, minutes=59))
# the first and last day of the datetime range, where an offset can push
# the UTC instant out of it, as often as all the days between
DATETIMES = (st.datetimes(max_value=datetime(1, 1, 2)) | st.datetimes()
             | st.datetimes(min_value=datetime(9999, 12, 31)))
TIMESTAMPS = st.one_of(
    st.builds(lambda dt, offset: dt.replace(tzinfo=timezone(offset)).isoformat(),
              DATETIMES, OFFSETS),
    DATETIMES.map(datetime.isoformat),
    LINE_TEXT,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LINE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LINE_TEXT, inner, max_size=3),
    max_leaves=6,
)
RECORDS = st.fixed_dictionaries({}, optional={
    "id": LINE_TEXT | JSON_VALUES,
    "created_at": TIMESTAMPS | JSON_VALUES,
    "text": LINE_TEXT | JSON_VALUES,
})
LINES = RECORDS.map(json.dumps) | JSON_VALUES.map(json.dumps) | LINE_TEXT
# no line breaks: text mode ends a line at \n, \r or \r\n
LINE_BYTES = st.binary().map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))
# a valid line with arbitrary bytes spliced in, or arbitrary bytes alone
BYTE_LINES = LINE_BYTES | st.builds(
    lambda line, at, junk: line[:at] + junk + line[at:],
    LINES.map(lambda s: s.encode("utf-8")), st.integers(0, 200), LINE_BYTES,
)
# CSV cells with quotes, commas, line breaks, NUL, bytes that are not UTF-8
# (written through the surrogates that errors="surrogateescape" maps them to)
# and, rarely, more characters than the csv module's field size limit
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",))
                    | st.sampled_from('",\r\n\x00')
                    | st.integers(0x80, 0xFF).map(lambda b: chr(0xDC00 + b)), max_size=20)
HUGE_CELLS = st.builds(lambda head, tail: head + "x" * 131_073 + tail, CELL_TEXT, CELL_TEXT)
CSV_ROWS = st.lists(st.tuples(CELL_TEXT | HUGE_CELLS, st.booleans()), min_size=1, max_size=4)
# over the limit too, but in commas or in quotes, which a row's end depends on
PUNCTUATED_HUGE_CELLS = st.builds(lambda head, fill, tail: head + fill + tail, CELL_TEXT,
                                  st.sampled_from(["," * 131_073, 'a"' * 65_537]), CELL_TEXT)


def csv_row(cells: list[tuple[str, bool]]) -> str:
    """One CSV row; a cell is quoted when drawn so or when it must be."""
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if quote or any(c in cell for c in '",\r\n')
        else cell
        for cell, quote in cells
    )


class TestCorpusLines:
    @pytest.mark.parametrize("stamp", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+14:00"])
    def test_out_of_range_timestamp_skipped(self, tmp_path, caplog, stamp):
        p = tmp_path / "edge.jsonl"
        p.write_text(
            json.dumps({"id": "a", "created_at": stamp, "text": "#StayHome"}) + "\n"
            + json.dumps({"id": "b", "created_at": "2021-06-01T05:00:00Z", "text": "x"}) + "\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            assert [t.id for t in load_corpus(p)] == ["b"]
        (record,) = caplog.records
        assert "edge.jsonl:1 skipped: timestamp out of range" in record.getMessage()

    def test_csv_warning_names_the_file_line(self, tmp_path, caplog):
        p = tmp_path / "gap.csv"
        p.write_text("id,created_at,text\n\nt1,2021-06-01T09:00:00Z,hi\nt2,noon,x\n",
                     encoding="utf-8")
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            assert [t.id for t in load_corpus(p, fmt="csv")] == ["t1"]
        (record,) = caplog.records
        assert "gap.csv:4 skipped" in record.getMessage()

    @pytest.mark.parametrize("field", [
        pytest.param("," * 140_000, id="commas"),
        pytest.param('a""b' * 70_000, id="quote-pairs"),
    ])
    def test_csv_field_over_the_size_limit_skips_its_whole_row(self, tmp_path, caplog, field):
        # the rejected row runs on to line 3, where its quoted field closes
        p = tmp_path / "huge.csv"
        p.write_text(f'id,x\n1,"{field}\nt2,x"\nt3,ok\n', encoding="utf-8")
        logger = logging.getLogger(__name__)
        with caplog.at_level("WARNING", logger=logger.name):
            rows = list(iter_rows(p, logger))
        assert rows == [(1, ["id", "x"]), (4, ["t3", "ok"])]
        (record,) = caplog.records
        assert record.getMessage().startswith(f"{p}:3 skipped: invalid CSV")

    def test_deeply_nested_line_skipped(self, tmp_path, caplog):
        p = tmp_path / "deep.jsonl"
        p.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            assert load_corpus(p) == []
        (record,) = caplog.records
        assert "invalid JSON" in record.getMessage()

    @settings(max_examples=300, deadline=None)
    @given(line=LINES.map(lambda s: s.encode("utf-8")) | BYTE_LINES)
    def test_any_line_loads_or_is_skipped_with_one_warning(self, line):
        # blank lines are passed over silently
        assume(line.decode("utf-8", "surrogateescape").strip())
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(corpus.logger, "warning") as warning:
            path = Path(tmp) / "one.jsonl"
            path.write_bytes(line + b"\n")
            tweets = load_corpus(path)
        assert len(tweets) + warning.call_count == 1

    # every reader of a line or record file; line `bad` gets a Latin-1 byte
    # for its last "e", which spoils the record on lines first..last
    @pytest.mark.parametrize("load, source, bad, first, last", [
        pytest.param(load_corpus, DATA / "corpus.jsonl", 2, 2, 2, id="jsonl"),
        pytest.param(partial(load_corpus, fmt="csv"), DATA / "corpus.csv", 3, 3, 3, id="csv"),
        pytest.param(ingest_scores, DATA / "scores.jsonl", 2, 2, 2, id="scores"),
        pytest.param(load_valence_lexicon, PACKAGE_DATA / "valence.csv", 3, 3, 3, id="lexicon"),
        pytest.param(load_wordlist, DATA / "stopwords_small.txt", 6, 6, 6, id="wordlist"),
        pytest.param(load_parses, DATA / "parses.conllu", 3, 1, 5, id="parses"),
    ])
    def test_non_utf8_line_skipped_others_load(self, tmp_path, caplog, load, source, bad,
                                               first, last):
        lines = source.read_bytes().splitlines(keepends=True)
        spoiled = tmp_path / f"latin1{source.suffix}"
        head, _, tail = lines[bad - 1].rpartition(b"e")
        spoiled.write_bytes(b"".join(lines[:bad - 1] + [head + b"\xe9" + tail] + lines[bad:]))
        without = tmp_path / f"without{source.suffix}"
        without.write_bytes(b"".join(lines[:first - 1] + lines[last:]))
        with caplog.at_level("WARNING"):
            loaded = load(spoiled)
        (record,) = caplog.records
        assert f"latin1{source.suffix}:{first} " in record.getMessage()
        assert record.getMessage().endswith("skipped: not valid UTF-8")
        assert record.name == getattr(load, "func", load).__module__
        caplog.clear()
        assert loaded == load(without)
        assert not caplog.records


    @pytest.mark.parametrize("load, source", [
        pytest.param(load_corpus, DATA / "corpus.jsonl", id="jsonl"),
        pytest.param(partial(load_corpus, fmt="csv"), DATA / "corpus.csv", id="csv"),
        pytest.param(load_taxonomy, DATA / "taxonomy.json", id="taxonomy"),
        pytest.param(load_valence_lexicon, PACKAGE_DATA / "valence.csv", id="lexicon"),
        pytest.param(load_parses, DATA / "parses.conllu", id="parses"),
    ])
    def test_leading_bom_is_not_data(self, tmp_path, caplog, load, source):
        with_bom = tmp_path / source.name
        with_bom.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        with caplog.at_level("WARNING"):
            assert load(with_bom) == load(source)
        assert not caplog.records

    @pytest.mark.parametrize("load, header, module", [
        pytest.param(partial(load_corpus, fmt="csv"), "id,created_at,text", corpus,
                     id="corpus"),
        pytest.param(load_valence_lexicon, "token,valence", sentiment, id="lexicon"),
        pytest.param(cli._read_assignments, "id,category", cli, id="predictions"),
    ])
    @settings(max_examples=150, deadline=None)
    @given(cells=CSV_ROWS, newline=st.sampled_from(["\n", "\r\n"]))
    def test_any_csv_row_loads_or_is_skipped_with_one_warning(self, load, header, module,
                                                              cells, newline):
        # a blank row is passed over silently
        assume(len(cells) > 1 or cells[0][0].strip())
        text = header + newline + csv_row(cells) + newline
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(module.logger, "warning") as warning:
            path = Path(tmp) / "one.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            loaded = load(path)
        assert len(loaded) + warning.call_count == 1

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(CSV_ROWS | st.lists(st.tuples(PUNCTUATED_HUGE_CELLS, st.booleans()),
                                             min_size=1, max_size=2),
                         min_size=1, max_size=4),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_each_csv_row_is_read_or_skipped_at_the_line_it_ends(self, rows, newline):
        # a rejected row is read to its end, so the rows after it keep
        # their own line numbers
        text, line, ends = "h" + newline, 1, []
        for cells in rows:
            row = csv_row(cells) + newline
            text += row
            line += len(re.findall("\r\n|\r|\n", row))
            if len(cells) > 1 or cells[0][0].strip():  # a blank row is passed over
                ends.append(line)
        logger = mock.Mock()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            read = [lineno for lineno, _ in iter_rows(path, logger)]
        skipped = [c.args[2] for c in logger.warning.call_args_list]
        assert read[0] == 1  # the header
        assert sorted(read[1:] + skipped) == ends


def test_only_errors_module_parses_csv_or_json():
    """One module reads every CSV and JSON input, so one rule says what a
    malformed record does."""
    parsers = {("csv", "reader"), ("csv", "DictReader"), ("json", "load"), ("json", "loads")}
    found = []
    for path in sorted(Path(corpus.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}.{n}" for m, n in names if (m, n) in parsers]
    assert found == []


class TestTaxonomy:
    def test_fixture_order_and_casefolding(self):
        tax = load_taxonomy(DATA / "taxonomy.json")
        assert tax.names() == ["Music", "Sports", "Weather"]
        assert tax.categories[2].hashtags == {"heatwave", "stormwatch", "rainyday"}
        assert tax.categories[2].raw_hashtags == ("#heatwave", "#StormWatch", "#rainyday")

    def test_duplicate_names_rejected(self):
        from tagtopics.corpus import Category

        CategoryTaxonomy.from_mapping({"A": ["#x"]})  # unique name is fine
        with pytest.raises(DataError):
            CategoryTaxonomy(
                categories=(
                    Category("A", frozenset({"x"})),
                    Category("A", frozenset({"y"})),
                )
            )

    def test_bad_taxonomy_payloads(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DataError):
            load_taxonomy(p)
        p.write_text('{"A": "notalist"}', encoding="utf-8")
        with pytest.raises(DataError):
            load_taxonomy(p)


def _tweet(id, day, hour, text):
    return Tweet(
        id=id,
        timestamp=datetime(2021, 6, day, hour, tzinfo=timezone.utc),
        text=text,
        hashtags=tuple(dict.fromkeys(extract_hashtags(text))),
    )


class TestAssignment:
    def setup_method(self):
        self.tax = load_taxonomy(DATA / "taxonomy.json")
        self.tweets = load_corpus(DATA / "corpus.jsonl")

    def test_single_and_multi_membership(self):
        by_id = {t.id: t for t in self.tweets}
        assert assign_categories(by_id["t02"], self.tax) == {"Music"}
        assert assign_categories(by_id["t05"], self.tax) == {"Music", "Weather"}
        assert assign_categories(by_id["t11"], self.tax) == set()

    def test_membership_map_drops_unmatched(self):
        membership = category_membership(self.tweets, self.tax)
        assert "t11" not in membership
        assert len(membership) == 11
        assert membership["t07"] == {"Sports", "Weather"}

    def test_category_totals_at_least_matched_tweets(self):
        membership = category_membership(self.tweets, self.tax)
        total = sum(len(v) for v in membership.values())
        assert total == 13  # t05 and t07 count twice
        assert total >= len(membership)


class TestTrendSeries:
    def setup_method(self):
        self.tax = load_taxonomy(DATA / "taxonomy.json")
        self.tweets = load_corpus(DATA / "corpus.jsonl")

    def test_fixture_series(self):
        series = {s.category: s.points for s in trend_series(self.tweets, self.tax)}
        days = [date(2021, 6, d) for d in (1, 2, 3, 4)]
        assert series["Music"] == tuple(zip(days, (2, 1, 1, 0)))
        assert series["Sports"] == tuple(zip(days, (1, 1, 1, 1)))
        assert series["Weather"] == tuple(zip(days, (0, 2, 2, 1)))
        assert series[UNCATEGORIZED] == tuple(zip(days, (0, 0, 0, 1)))

    def test_series_order_follows_taxonomy(self):
        names = [s.category for s in trend_series(self.tweets, self.tax)]
        assert names == ["Music", "Sports", "Weather", UNCATEGORIZED]

    def test_zero_fill_spans_gap_days(self):
        tweets = [
            _tweet("a", 1, 10, "#livemusic"),
            _tweet("b", 4, 10, "#livemusic"),
        ]
        series = {s.category: s.points for s in trend_series(tweets, self.tax)}
        counts = [c for _, c in series["Music"]]
        assert counts == [1, 0, 0, 1]

    def test_empty_corpus_yields_empty_series(self):
        for s in trend_series([], self.tax):
            assert s.points == ()

    def test_span_of_max_trend_days_accepted_and_longer_refused(self):
        first = _tweet("a", 1, 10, "#livemusic")
        last = replace(first, id="b", timestamp=first.timestamp + timedelta(MAX_TREND_DAYS - 1))
        series = {s.category: s.points for s in trend_series([first, last], self.tax)}
        assert [len(points) for points in series.values()] == [MAX_TREND_DAYS] * 4
        assert series["Music"][-1] == (last.timestamp.date(), 1)
        # one day more is refused, naming both ends, before the span is built
        later = replace(last, timestamp=last.timestamp + timedelta(1))
        with pytest.raises(DataError, match=f"from 2021-06-01 to {later.timestamp.date()} "
                                            f"span {MAX_TREND_DAYS + 1} days"):
            trend_series([first, later], self.tax)

    def test_multi_category_tweet_counts_in_each_series(self):
        rng = np.random.default_rng(3)
        tags = ["#livemusic", "#matchday", "#heatwave"]
        tweets = []
        for i in range(60):
            chosen = rng.choice(tags, size=rng.integers(0, 4), replace=False)
            tweets.append(_tweet(f"r{i}", int(rng.integers(1, 5)), 6, " ".join(chosen)))
        series = trend_series(tweets, self.tax)
        series_total = sum(c for s in series if s.category != UNCATEGORIZED
                           for _, c in s.points)
        membership = category_membership(tweets, self.tax)
        assert series_total == sum(len(v) for v in membership.values())
        uncategorized = sum(
            c for s in series if s.category == UNCATEGORIZED for _, c in s.points
        )
        assert uncategorized == len(tweets) - len(membership)


class TestTopHashtags:
    def test_fixture_ranking_with_ties(self):
        tweets = load_corpus(DATA / "corpus.jsonl")
        top = top_hashtags(tweets, n=4)
        assert top == [
            ("livemusic", 3),
            ("heatwave", 2),
            ("matchday", 2),
            ("stormwatch", 2),
        ]

    def test_repeated_tag_in_one_tweet_counts_once(self):
        tweets = [_tweet("a", 1, 1, "#echo #echo #echo")]
        assert top_hashtags(tweets) == [("echo", 1)]

    def test_n_bounds(self):
        tweets = load_corpus(DATA / "corpus.jsonl")
        assert len(top_hashtags(tweets, n=2)) == 2
        assert top_hashtags(tweets, n=0) == []
        with pytest.raises(ValueError):
            top_hashtags(tweets, n=-1)
