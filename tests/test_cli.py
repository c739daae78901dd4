"""End-to-end command-line runs on the small fixture corpus: artifact
contents, exit codes, config layering, and determinism."""

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tagtopics import cli, porter, textprep
from tagtopics.topics import MAX_TOPICS

DATA = Path(__file__).parent / "data"

BASE = [
    "--corpus", str(DATA / "corpus.jsonl"),
    "--taxonomy", str(DATA / "taxonomy.json"),
]


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def run_limited(*argv, **env):
    """tagtopics argv in a child process with 1 GiB of address space, set
    in the child only, and env added to its environment."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from tagtopics import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, encoding="utf-8", env=env, timeout=120)


class TestTrends:
    def test_exact_series(self, tmp_path):
        assert run("trends", *BASE, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "trends.csv")
        assert rows[0] == ["category", "date", "count"]
        assert rows[1:5] == [
            ["Music", "2021-06-01", "2"],
            ["Music", "2021-06-02", "1"],
            ["Music", "2021-06-03", "1"],
            ["Music", "2021-06-04", "0"],
        ]
        assert rows[5][0] == "Sports" and rows[9][0] == "Weather"
        assert rows[-1] == ["(uncategorized)", "2021-06-04", "1"]
        assert len(rows) == 17  # header + 4 categories x 4 days

    def test_csv_format_matches_jsonl(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("trends", *BASE, "--out", str(a)) == 0
        assert run(
            "trends",
            "--corpus", str(DATA / "corpus.csv"), "--format", "csv",
            "--taxonomy", str(DATA / "taxonomy.json"), "--out", str(b),
        ) == 0
        assert (a / "trends.csv").read_bytes() == (b / "trends.csv").read_bytes()


class TestWords:
    def test_structure_and_ranks(self, tmp_path):
        # the fixture taxonomy, then its Music category alone: a word is
        # common to two categories at least, so one category has none
        single = tmp_path / "music.json"
        taxonomy = json.loads((DATA / "taxonomy.json").read_text(encoding="utf-8"))
        single.write_text(json.dumps({"Music": taxonomy["Music"]}), encoding="utf-8")
        for path, names in ((DATA / "taxonomy.json", set(taxonomy)), (single, {"Music"})):
            out = tmp_path / path.stem
            assert run("words", "--corpus", str(DATA / "corpus.jsonl"),
                       "--taxonomy", str(path), "--out", str(out)) == 0
            rows = read_csv(out / "words.csv")
            assert rows[0] == ["category", "rank", "term", "count", "score"]
            body = rows[1:]
            assert body, "fixture corpus yields at least one word row"
            common_terms = {r[2] for r in body if r[0] == "(common)"}
            assert bool(common_terms) == (len(names) > 1), path
            ranks: dict[str, list[int]] = {}
            for category, rank, term, count, score in body:
                assert category in {"(common)", *names}
                ranks.setdefault(category, []).append(int(rank))
                if category != "(common)":
                    assert count == score  # distinctive rows score by raw count
                    assert term not in common_terms
            for category, seen in ranks.items():
                assert seen == list(range(1, len(seen) + 1)), category

    def test_top_n_truncates(self, tmp_path):
        assert run("words", *BASE, "--top-n", "1", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "words.csv")[1:]
        for category in {r[0] for r in rows}:
            assert sum(1 for r in rows if r[0] == category) <= 1


class TestTextWorkDoneOnce:
    def test_words_builds_echo_set_once_and_stems_each_word_once(
        self, tmp_path, monkeypatch, capsys
    ):
        # cold caches, so a word stemmed by an earlier test is stemmed here too
        textprep._echo_terms.cache_clear()
        textprep._word_memo.cache_clear()
        stem = porter.stem
        calls = []

        def recording(word):
            calls.append(word)
            return stem(word)

        monkeypatch.setattr(porter, "stem", recording)
        assert run("words", *BASE, "--out", str(tmp_path)) == 0
        capsys.readouterr()
        assert textprep._echo_terms.cache_info().misses == 1
        assert calls and len(calls) == len(set(calls))


class TestBigrams:
    def test_default_min_count_filters_tiny_corpus(self, tmp_path):
        assert run("bigrams", *BASE, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "bigrams.csv")
        assert rows[0] == ["category", "rank", "term", "count", "score"]
        assert rows[1:] == []  # nothing repeats five times in 12 tweets

    def test_min_count_one_produces_rows(self, tmp_path):
        assert run("bigrams", *BASE, "--min-count", "1", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "bigrams.csv")[1:]
        assert rows
        for r in rows:
            assert r[0] in {"Music", "Sports", "Weather"}
            assert " " in r[2]
            float(r[4])  # score column holds a parseable float


class TestSentiment:
    def test_score_file_shares(self, tmp_path):
        assert run(
            "sentiment", *BASE,
            "--scores", str(DATA / "scores.jsonl"), "--out", str(tmp_path),
        ) == 0
        rows = read_csv(tmp_path / "sentiment.csv")
        assert rows[0] == ["category", "label", "percentage"]
        assert rows[1:] == [
            ["Music", "strongly_positive", "33.333333"],
            ["Music", "positive", "66.666667"],
            ["Music", "negative", "0.000000"],
            ["Music", "strongly_negative", "0.000000"],
            ["Sports", "strongly_positive", "0.000000"],
            ["Sports", "positive", "75.000000"],
            ["Sports", "negative", "25.000000"],
            ["Sports", "strongly_negative", "0.000000"],
            ["Weather", "strongly_positive", "0.000000"],
            ["Weather", "positive", "0.000000"],
            ["Weather", "negative", "66.666667"],
            ["Weather", "strongly_negative", "33.333333"],
        ]

    def test_lexicon_path(self, tmp_path):
        assert run("sentiment", *BASE, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "sentiment.csv")[1:]
        assert len(rows) == 12  # 3 categories x 4 non-neutral labels


PARSES = ["--parses", str(DATA / "parses.conllu")]


class TestVerbs:
    def test_exact_profiles(self, tmp_path):
        assert run("verbs", *BASE, *PARSES, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "verbs.csv")
        assert rows[0] == ["category", "rank", "term", "count", "score"]
        assert [r[:4] for r in rows[1:]] == [
            ["Music", "1", "buy", "1"],
            ["Music", "2", "deal", "1"],
            ["Music", "3", "read", "1"],
            ["Music", "4", "visit", "1"],
            ["Sports", "1", "bark", "1"],
            ["Sports", "2", "close", "1"],
            ["Sports", "3", "sing", "1"],
            ["Weather", "1", "buy", "2"],
            ["Weather", "2", "bark", "1"],
            ["Weather", "3", "read", "1"],
            ["Weather", "4", "run", "1"],
        ]
        # verbs in one of three groups score ln 3, in two score ln(3/2)
        scores = {(r[0], r[2]): float(r[4]) for r in rows[1:]}
        assert scores[("Music", "deal")] == pytest.approx(math.log(3))
        assert scores[("Music", "buy")] == pytest.approx(math.log(1.5))
        assert scores[("Weather", "buy")] == pytest.approx(2 * math.log(1.5))


class TestPairs:
    def test_default_verbs_from_distinctive(self, tmp_path):
        assert run("pairs", *BASE, *PARSES, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "pairs.csv")
        assert rows[0] == ["category", "verb", "noun", "count"]
        assert rows[1:] == [
            ["Music", "buy", "paper", "1"],
            ["Music", "buy", "people", "1"],
            ["Music", "buy", "store", "1"],
            ["Music", "deal", "anxiety", "1"],
            ["Music", "read", "book", "1"],
            ["Music", "read", "student", "1"],
            ["Music", "visit", "alice", "1"],
            ["Music", "visit", "paris", "1"],
            ["Sports", "bark", "dog", "1"],
            ["Sports", "bark", "mailman", "1"],
            ["Sports", "close", "school", "1"],
            ["Sports", "close", "teacher", "1"],
            ["Weather", "buy", "paper", "2"],
            ["Weather", "buy", "people", "1"],
            ["Weather", "buy", "store", "1"],
            ["Weather", "bark", "dog", "1"],
            ["Weather", "bark", "mailman", "1"],
            ["Weather", "run", "paper", "1"],
        ]

    def test_explicit_verbs(self, tmp_path):
        assert run(
            "pairs", *BASE, *PARSES, "--verb", "read", "--out", str(tmp_path)
        ) == 0
        rows = read_csv(tmp_path / "pairs.csv")[1:]
        assert rows == [
            ["Music", "read", "book", "1"],
            ["Music", "read", "student", "1"],
        ]

    @pytest.mark.parametrize("verbs, once", [
        (["buy", "buy"], ["buy"]),
        (["Buy", "buy"], ["buy"]),
        (["read", "buy", "READ"], ["read", "buy"]),
    ])
    def test_repeated_verb_listed_once(self, tmp_path, verbs, once):
        # each lemma's rows appear once per category, in first-seen order
        written = {}
        for name, lemmas in (("repeated", verbs), ("once", once)):
            flags = [arg for lemma in lemmas for arg in ("--verb", lemma)]
            assert run("pairs", *BASE, *PARSES, *flags, "--out", str(tmp_path / name)) == 0
            written[name] = read_csv(tmp_path / name / "pairs.csv")
        assert written["repeated"] == written["once"]
        assert len(written["once"]) > 1

    def test_ud_scheme_disables_two_hop(self, tmp_path):
        assert run(
            "pairs", *BASE, *PARSES,
            "--verb", "deal", "--rel-scheme", "ud", "--out", str(tmp_path),
        ) == 0
        assert read_csv(tmp_path / "pairs.csv")[1:] == []

    def test_subtree_widens(self, tmp_path):
        assert run(
            "pairs", *BASE, *PARSES,
            "--verb", "buy", "--subtree", "--out", str(tmp_path),
        ) == 0
        rows = read_csv(tmp_path / "pairs.csv")[1:]
        # subtree mode finds the same nouns here (flat trees), Music once
        assert ["Music", "buy", "paper", "1"] in rows


class TestTreeOrder:
    @pytest.mark.parametrize("flags", [[], ["--rel-scheme", "ud", "--subtree"]])
    def test_reversed_parse_blocks_write_the_same_bytes(self, tmp_path, flags):
        # verbs.csv and pairs.csv rank counts on total keys, so the order
        # the trees are read in reaches no byte of either
        blocks = (DATA / "parses.conllu").read_text(encoding="utf-8").strip().split("\n\n")
        reversed_parses = tmp_path / "reversed.conllu"
        reversed_parses.write_text("\n\n".join(blocks[::-1]) + "\n", encoding="utf-8")
        written = {}
        for name, parses in (("file", DATA / "parses.conllu"), ("reversed", reversed_parses)):
            out = tmp_path / name
            assert run("verbs", *BASE, "--parses", str(parses), "--out", str(out)) == 0
            assert run("pairs", *BASE, "--parses", str(parses), *flags,
                       "--out", str(out)) == 0
            written[name] = [(out / f).read_bytes() for f in ("verbs.csv", "pairs.csv")]
        assert len(blocks) == 10
        assert written["reversed"] == written["file"]


class TestTopicsPipeline:
    def test_train_classify_eval_report(self, tmp_path, capsys):
        out = str(tmp_path)
        seed = ["--seed-file", str(DATA / "seeds.json")]
        assert run("topics-train", *BASE, *seed, "--iters", "20", "--out", out) == 0
        assert (tmp_path / "model.json").exists()

        assert run("topics-classify", "--out", out) == 0
        rows = read_csv(tmp_path / "assignments.csv")
        assert rows[0] == ["id", "category"]
        ids = [r[0] for r in rows[1:]]
        assert len(ids) == 12 and ids[0] == "t01"
        valid = {"Music", "Sports", "Weather", "unassigned"}
        assert {r[1] for r in rows[1:]} <= valid

        assert run("topics-eval", *BASE, "--out", out) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["policy"] == "rarest"
        assert report["evaluated"] == 11  # t11 has no category, so no gold label
        assert report["predictions_only"] == 1
        assert report["gold_only"] == 0
        assert 0.0 <= report["accuracy"] <= 1.0
        assert set(report["macro"]) == {"precision", "recall", "f1"}

        assert run("report", "--out", out) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["model.json"]["documents"] == 12
        assert summary["model.json"]["topics"] == 5  # 3 seeded + 2 unseeded
        assert summary["assignments.csv"]["rows"] == 12
        assert summary["report.json"]["evaluated"] == 11
        capsys.readouterr()  # swallow the summary lines

    def test_train_deterministic(self, tmp_path):
        seed = ["--seed-file", str(DATA / "seeds.json")]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "topics-train", *BASE, *seed, "--iters", "5", "--out", str(out)
            ) == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()

    def test_model_reads_no_echo_term(self, tmp_path, capsys):
        # the hashtags define the gold labels, so the model must not read
        # them; the uncategorized tweet still trains
        seed = ["--seed-file", str(DATA / "seeds.json")]
        assert run("topics-train", *BASE, *seed, "--iters", "2", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        echo = textprep._echo_terms(cli.corpus_mod.load_taxonomy(DATA / "taxonomy.json"),
                                    frozenset())
        assert model["vocabulary"] and not set(model["vocabulary"]) & echo
        assert "t11" in model["doc_ids"]

    def test_echo_seed_words_dropped_with_warning(self, tmp_path, caplog, capsys):
        seed = ["--seed-file", str(DATA / "seeds.json")]
        with caplog.at_level("WARNING", logger="tagtopics.cli"):
            assert run("topics-train", *BASE, *seed, "--iters", "0",
                       "--out", str(tmp_path)) == 0
        capsys.readouterr()
        warned = {r.args[0] for r in caplog.records
                  if "normalizes to nothing (a category-echo term)" in r.getMessage()}
        assert warned == {"album", "storm"}
        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        seeds = {model["vocabulary"][w] for ids in model["seed_word_ids"] for w in ids}
        assert seeds and not seeds & {"album", "storm"}

    def test_train_without_taxonomy_exits_2(self, tmp_path, capsys):
        assert run("topics-train", "--corpus", str(DATA / "corpus.jsonl"),
                   "--seed-file", str(DATA / "seeds.json"), "--iters", "0",
                   "--out", str(tmp_path)) == 2
        assert "--taxonomy" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_eval_with_explicit_predictions(self, tmp_path):
        pred = tmp_path / "pred.csv"
        with open(pred, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "category"])
            writer.writerow(["t02", "Music"])
            writer.writerow(["t03", "Music"])
        assert run(
            "topics-eval", *BASE,
            "--predictions", str(pred), "--out", str(tmp_path),
        ) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["evaluated"] == 2
        assert report["accuracy"] == 0.5  # t02 right, t03 is Sports

    def test_eval_skips_missing_and_duplicate_ids(self, tmp_path, caplog):
        # a row with no id and a second row for t02 change nothing: the first
        # row for an id wins, as in the corpus loader
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        for out, rows in ((clean, [["t02", "Music"], ["t03", "Music"]]),
                          (dirty, [["t02", "Music"], ["", "Music"], ["t03", "Music"],
                                   ["t02", "bogus"]])):
            out.mkdir()
            with open(out / "pred.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["id", "category"])
                writer.writerows(rows)
            caplog.clear()
            with caplog.at_level("WARNING", logger="tagtopics.cli"):
                assert run("topics-eval", *BASE, "--predictions", str(out / "pred.csv"),
                           "--out", str(out)) == 0
        assert (dirty / "report.json").read_bytes() == (clean / "report.json").read_bytes()
        path = dirty / "pred.csv"
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:3 skipped: missing id",
            f"{path}:5 skipped: duplicate id 't02'",
        ]

    def test_eval_skips_an_empty_category(self, tmp_path, caplog):
        # an empty category cell is skipped as an absent one is, so no
        # empty label reaches the report
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        for out, rows in ((clean, [["t01", "Music"]]), (dirty, [["t01", "Music"], ["t03", ""]])):
            out.mkdir()
            with open(out / "pred.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["id", "category"])
                writer.writerows(rows)
            caplog.clear()
            with caplog.at_level("WARNING", logger="tagtopics.cli"):
                assert run("topics-eval", *BASE, "--predictions", str(out / "pred.csv"),
                           "--out", str(out)) == 0
        assert (dirty / "report.json").read_bytes() == (clean / "report.json").read_bytes()
        assert [r.getMessage() for r in caplog.records] == [
            f"{dirty / 'pred.csv'}:3 skipped: no category"]

    def test_gold_policy_flag(self, tmp_path):
        # t05 belongs to Music and Weather, t04 to Weather alone; the
        # exclude_multi policy drops t05 from the gold labels while the
        # other policies keep it (as Music: first in taxonomy order and
        # also the smaller category)
        pred = tmp_path / "pred.csv"
        with open(pred, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "category"])
            writer.writerow(["t05", "Music"])
            writer.writerow(["t04", "Weather"])
        for policy, evaluated in (("priority", 2), ("rarest", 2), ("exclude_multi", 1)):
            assert run(
                "topics-eval", *BASE, "--gold-policy", policy,
                "--predictions", str(pred), "--out", str(tmp_path),
            ) == 0
            report = json.loads(
                (tmp_path / "report.json").read_text(encoding="utf-8")
            )
            assert report["evaluated"] == evaluated, policy
            assert report["accuracy"] == 1.0, policy

    def test_eval_disjoint_ids_is_data_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("id,category\nzz,Music\n", encoding="utf-8")
        code = run(
            "topics-eval", *BASE,
            "--predictions", str(pred), "--out", str(tmp_path),
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_1_writes_nothing(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run("trends", "--bogus-flag", "--out", str(out))
        assert exc.value.code == 1
        assert not out.exists()

    def test_bad_choice_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("trends", "--format", "xml")
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 1

    def test_missing_required_input_exits_2(self, tmp_path, capsys):
        assert run("trends", "--out", str(tmp_path)) == 2
        assert "missing required input" in capsys.readouterr().err

    def test_missing_corpus_file_exits_2(self, tmp_path, capsys):
        assert run(
            "trends",
            "--corpus", str(tmp_path / "ghost.jsonl"),
            "--taxonomy", str(DATA / "taxonomy.json"),
            "--out", str(tmp_path),
        ) == 2
        capsys.readouterr()

    def test_wide_date_span_exits_2_under_a_memory_limit(self, tmp_path):
        # two valid tweets 9,998 years apart: their zero-filled trend span
        # would take 3.65 M days x 4 series; it is refused by name before it
        # is built, also in a child with 1 GiB of address space, where
        # building it ended in a MemoryError traceback
        corpus = tmp_path / "span.jsonl"
        corpus.write_text(
            '{"id": "a", "created_at": "0001-01-02T00:00:00Z", "text": "#heatwave"}\n'
            '{"id": "b", "created_at": "9999-12-30T00:00:00Z", "text": "#heatwave"}\n',
            encoding="utf-8")
        result = run_limited("trends", "--corpus", str(corpus),
                             "--taxonomy", str(DATA / "taxonomy.json"),
                             "--out", str(tmp_path / "out"))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "from 0001-01-02 to 9999-12-30" in result.stderr

    def test_non_utf8_corpus_line_skipped(self, tmp_path, caplog, capsys):
        corpus = tmp_path / "latin1.jsonl"
        lines = (DATA / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"New album", b"Nouvel caf\xe9 album")
        corpus.write_bytes(b"".join(lines))
        with caplog.at_level("WARNING", logger="tagtopics.corpus"):
            assert run("trends", "--corpus", str(corpus),
                       "--taxonomy", str(DATA / "taxonomy.json"), "--out", str(tmp_path)) == 0
        capsys.readouterr()
        (record,) = caplog.records
        assert "latin1.jsonl:2 skipped: not valid UTF-8" in record.getMessage()
        # t02 was the only Music tweet of 2021-06-01 besides t01
        assert ["Music", "2021-06-01", "1"] in read_csv(tmp_path / "trends.csv")

    def test_classify_with_bad_topic_id_exits_2(self, tmp_path, capsys):
        out = str(tmp_path)
        seed = ["--seed-file", str(DATA / "seeds.json")]
        assert run("topics-train", *BASE, *seed, "--iters", "2", "--out", out) == 0
        path = tmp_path / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["z"][0] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run("topics-classify", "--out", out) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "topic id" in err
        assert "Traceback" not in err
        assert not (tmp_path / "assignments.csv").exists()

    @pytest.mark.parametrize("flag", ["--beta", "--mu"])
    def test_overflowing_prior_total_exits_2(self, tmp_path, capsys, flag):
        # V * beta, or mu times the seeds of a topic, is past the largest float
        out = tmp_path / "out"
        code = run("topics-train", *BASE, "--seed-file", str(DATA / "seeds.json"),
                   flag, "1e308", "--iters", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2, err
        assert "tagtopics: data error: prior total V * beta + mu" in err
        assert "overflows: beta " in err and ", mu " in err and ", V " in err
        assert "Traceback" not in err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("corpus", ["fixture", "two_tweets"])
    @pytest.mark.parametrize("alpha, beta, mu, iters, code", [
        ("0.01", "1e-4", "0.5", "2", 0),
        ("1e100", "1e100", "0.5", "2", 0),
        ("1e-150", "1e-150", "0", "2", 0),
        # every weight would overflow to inf and every token draw the last topic
        ("1e200", "1e200", "0.5", "2", 2),
        ("1e200", "1e200", "0.5", "0", 2),
        # a weight may underflow to 0: on two_tweets the one-token
        # document's weight total would be 0
        ("1e-200", "1e-200", "0", "2", 2),
        ("1e-200", "1e-200", "0", "0", 2),
    ])
    def test_priors_are_checked_before_the_first_draw(self, tmp_path, capsys, corpus, alpha,
                                                      beta, mu, iters, code):
        # priors whose sampling weights may be 0 or inf exit 2 naming them,
        # at any sweep count, and write no model
        path = DATA / "corpus.jsonl"
        if corpus == "two_tweets":
            path = tmp_path / "two.jsonl"
            path.write_text(
                '{"id": "a", "created_at": "2021-06-01T09:00:00Z", "text": "toilet"}\n'
                '{"id": "b", "created_at": "2021-06-01T10:00:00Z", '
                '"text": "Great set at the festival tonight #livemusic"}\n', encoding="utf-8")
        out = tmp_path / "out"
        got = run("topics-train", "--corpus", str(path), "--taxonomy", str(DATA / "taxonomy.json"),
                  "--seed-file", str(DATA / "seeds.json"), "--alpha", alpha, "--beta", beta,
                  "--mu", mu, "--iters", iters, "--out", str(out))
        err = capsys.readouterr().err
        assert got == code, err
        assert "Traceback" not in err
        assert (out / "model.json").exists() == (code == 0)
        if code:
            assert f"under- or overflows: beta {float(beta):g}, mu {float(mu):g}, " in err
            assert f", alpha {float(alpha):g} (sampling weight bounds " in err

    def test_most_topics_train_on_the_fallback_under_a_memory_limit(self, tmp_path):
        # the fallback sweep's generated source grows as K squared; at the
        # topic cap it builds, with no compiler and 1 GiB of address space,
        # where --unseeded 900 ended in a MemoryError traceback
        result = run_limited("topics-train", *BASE, "--seed-file", str(DATA / "seeds.json"),
                             "--unseeded", str(MAX_TOPICS - 3), "--iters", "2",
                             "--out", str(tmp_path / "out"),
                             PATH="", XDG_CACHE_HOME=str(tmp_path / "cache"))
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "falling back to the pure-Python kernel" in result.stderr
        assert f"{MAX_TOPICS} topics" in result.stdout

    @pytest.mark.parametrize("seeds, flags", [
        ({"Music": [], "Sports": ["innings"]}, []),  # an empty seed list
        ({}, ["--unseeded", "0"]),  # no topic at all
        ({"Music": ["concert"]}, ["--unseeded", "1000000"]),  # far too many topics
    ])
    def test_bad_seed_spec_exits_2_naming_the_seeds_file(self, tmp_path, capsys, seeds,
                                                         flags):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(seeds), encoding="utf-8")
        out = tmp_path / "out"
        code = run("topics-train", *BASE, "--seed-file", str(path), *flags,
                   "--iters", "0", "--out", str(out))
        assert code == 2
        assert f"tagtopics: data error: {path}: " in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("topics-classify", "rng_seed", -1, "rng_seed must be non-negative"),
        ("report", "num_unseeded", 10 ** 12, f"topics, over {MAX_TOPICS}"),
        # only the JSON integer 3 is a version this loader reads
        *(("topics-classify", "version", version, f"unsupported model version {version!r}")
          for version in (3.0, True, "3", 2, 1, 2.0, 1.0)),
    ])
    def test_model_field_out_of_range_exits_2(self, tmp_path, capsys, command, key, value,
                                              message):
        out = str(tmp_path)
        seed = ["--seed-file", str(DATA / "seeds.json")]
        assert run("topics-train", *BASE, *seed, "--iters", "2", "--out", out) == 0
        path = tmp_path / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(command, "--out", out) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err

    def test_report_without_artifacts_exits_2(self, tmp_path, capsys):
        assert run("report", "--out", str(tmp_path / "empty")) == 2
        assert "no artifacts" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("topics-train", "--alpha", "0"),
        ("topics-train", "--beta", "-1"),
        ("topics-train", "--mu", "-1"),
        ("topics-train", "--iters", "-1"),
        ("topics-train", "--unseeded", "-1"),
        ("words", "--min-groups", "1"),
        ("topics-train", "--rng-seed", "-1"),
        ("words", "--top-n", "-1"),
        ("bigrams", "--min-count", "-1"),
        ("topics-train", "--alpha", "nan"),
        ("topics-train", "--beta", "inf"),
    ])
    def test_out_of_range_value_exits_1_before_reading(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        def unread(*args, **kwargs):
            raise AssertionError("input read before the options were checked")

        monkeypatch.setattr(cli.corpus_mod, "load_corpus", unread)
        out = tmp_path / "never"
        code = run(
            command, *BASE, "--seed-file", str(DATA / "seeds.json"),
            flag, value, "--out", str(out),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"tagtopics: error: {flag} " in err
        assert "Traceback" not in err
        assert not out.exists()


def latin1(name: str, word: bytes) -> bytes:
    """Fixture `name` with a Latin-1 byte, which is not UTF-8, after the
    first `word`."""
    data = (DATA / name).read_bytes()
    assert word in data
    return data.replace(word, word + b"\xe9", 1)


DEEP = b"[" * 100_000
HUGE = b"x" * 200_000  # longer than the csv module's field size limit


class TestMalformedInputFiles:
    """Every input file is read by one rule: a JSON document that does not
    decode or parse is rejected whole, a line file skips the bad record."""

    def run_with(self, tmp_path, command, target, content):
        """Run `command` on the fixture inputs, with `content` as the file a
        flag names or, for a name without dashes, in the output directory."""
        out = tmp_path / "out"
        out.mkdir()
        path = tmp_path / "input" if target.startswith("--") else out / target
        path.write_bytes(content)
        argv = [*command.split(), *BASE, "--seed-file", str(DATA / "seeds.json"),
                "--iters", "2", "--out", str(out)]
        return run(*argv, *([target, str(path)] if target.startswith("--") else [])), path

    @pytest.mark.parametrize("command, target, content, code", [
        pytest.param("trends", "--taxonomy", latin1("taxonomy.json", b"#heatwave"), 2,
                     id="taxonomy-bytes"),
        pytest.param("trends", "--taxonomy", DEEP, 2, id="taxonomy-deep"),
        pytest.param("topics-train", "--seed-file", latin1("seeds.json", b"storm"), 2,
                     id="seeds-bytes"),
        pytest.param("trends", "--config", b'{"out": "caf\xe9"}', 1, id="config-bytes"),
        pytest.param("trends", "--config", DEEP, 1, id="config-deep"),
        pytest.param("topics-classify", "model.json", b'{"vocabulary": ["caf\xe9"]}', 2,
                     id="model-bytes"),
        pytest.param("topics-classify", "model.json", DEEP, 2, id="model-deep"),
        pytest.param("report", "report.json", b'{"accuracy": 0.5, "macro"', 2,
                     id="report-truncated"),
        pytest.param("report", "report.json", b"[1]", 2, id="report-not-object"),
        pytest.param("report", "report.json", b'{"macro": [1]}', 2, id="report-macro-list"),
    ])
    def test_bad_document_rejected_whole(self, tmp_path, capsys, command, target, content,
                                         code):
        exit_code, path = self.run_with(tmp_path, command, target, content)
        assert exit_code == code
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("tagtopics:")]
        assert str(path) in line
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, target, content, where", [
        pytest.param("sentiment", "--scores", latin1("scores.jsonl", b'"t03'), "3 skipped",
                     id="scores-bytes"),
        pytest.param("sentiment", "--scores", (DATA / "scores.jsonl").read_bytes() + DEEP,
                     "13 skipped", id="scores-deep"),
        pytest.param("sentiment", "--scores", b'{"id": "t01", "label": []}\n', "1 skipped",
                     id="scores-list-label"),
        pytest.param("sentiment", "--lexicon", b"token,valence\ngreat,0.8\ncaf\xe9,0.5\n",
                     "3 skipped", id="lexicon-bytes"),
        pytest.param("words", "--stopwords", latin1("stopwords_small.txt", b"\nthe"),
                     "6 skipped", id="stopwords-bytes"),
        pytest.param("words", "--exclusions", latin1("exclusions.txt", b"downtown"),
                     "2 skipped", id="exclusions-bytes"),
        pytest.param("verbs", "--parses", latin1("parses.conllu", b"\tdeal"),
                     "1 block skipped", id="parses-bytes"),
        pytest.param("topics-eval", "--predictions",
                     b"id,category\nt01,Music\nt02,Mus\xe9ic\nt03,Sports\n", "3 skipped",
                     id="predictions-bytes"),
        pytest.param("topics-eval", "--predictions", b"id,category\nt01,Music\nt02\n",
                     "3 skipped", id="predictions-short-row"),
        pytest.param("trends --format csv", "--corpus",
                     b"id,created_at,text\nt1,2021-06-01T09:00:00Z,#heatwave\n"
                     b"t2,2021-06-01T09:00:00Z," + HUGE + b"\n", "3 skipped",
                     id="corpus-csv-huge-field"),
        pytest.param("sentiment", "--lexicon", b"token,valence\ngreat,0.8\nbig," + HUGE + b"\n",
                     "3 skipped", id="lexicon-huge-field"),
        pytest.param("topics-eval", "--predictions",
                     b"id,category\nt01,Music\nt02," + HUGE + b"\nt03,Sports\n", "3 skipped",
                     id="predictions-huge-field"),
        # the rejected row ends on line 4; its second line is not read as a row
        pytest.param("topics-eval", "--predictions",
                     b'id,category\nt01,Music\nt02,"' + HUGE + b'\nt04,Music"\nt03,Sports\n',
                     "4 skipped", id="predictions-huge-multiline-field"),
    ])
    def test_bad_record_skipped_with_one_warning(self, tmp_path, capsys, caplog, command,
                                                 target, content, where):
        with caplog.at_level("WARNING"):
            code, path = self.run_with(tmp_path, command, target, content)
        assert code == 0
        assert "tagtopics:" not in capsys.readouterr().err
        (record,) = caplog.records
        assert f"{path}:{where}: " in record.getMessage()


class TestConfigFile:
    def write_config(self, tmp_path, **overrides):
        payload = {
            "corpus": str(DATA / "corpus.jsonl"),
            "taxonomy": str(DATA / "taxonomy.json"),
            **overrides,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_config_supplies_inputs(self, tmp_path):
        config = self.write_config(tmp_path, out=str(tmp_path / "cfg-out"))
        assert run("trends", "--config", str(config)) == 0
        assert (tmp_path / "cfg-out" / "trends.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        config = self.write_config(tmp_path, out=str(tmp_path / "from-config"))
        flag_out = tmp_path / "from-flag"
        assert run("trends", "--config", str(config), "--out", str(flag_out)) == 0
        assert (flag_out / "trends.csv").exists()
        assert not (tmp_path / "from-config").exists()

    def test_config_top_n_applies(self, tmp_path):
        config = self.write_config(tmp_path, top_n=1, out=str(tmp_path / "o"))
        assert run("words", "--config", str(config)) == 0
        rows = read_csv(tmp_path / "o" / "words.csv")[1:]
        for category in {r[0] for r in rows}:
            assert sum(1 for r in rows if r[0] == category) <= 1

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = self.write_config(tmp_path, bogus=1)
        assert run("trends", "--config", str(config)) == 1
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_invalid_config_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run("trends", "--config", str(path)) == 1
        capsys.readouterr()

    def test_non_object_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]", encoding="utf-8")
        assert run("trends", "--config", str(path)) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, key, value", [
        ("words", "top_n", "3"),
        ("trends", "format", "xml"),
        ("topics-eval", "gold_policy", "bogus"),
        ("words", "stem", "no"),  # a truthy string, not a bool
        ("words", "top_n", True),  # bool is an int subclass
        ("topics-train", "alpha", math.nan),  # json.load reads NaN
        pytest.param("topics-train", "alpha", 2**1024, id="topics-train-alpha-int-beyond-float"),
        ("words", "min_groups", 1),
        ("words", "top_n", None),
        ("trends", "corpus", 7),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "never"
        config = self.write_config(
            tmp_path, seed_file=str(DATA / "seeds.json"), out=str(out), **{key: value}
        )
        assert run(command, "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("tagtopics: error: ")
        assert f"config key {key}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_int_is_a_valid_float(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, seed_file=str(DATA / "seeds.json"), alpha=1, iters=2,
            out=str(tmp_path / "o"),
        )
        assert run("topics-train", "--config", str(config)) == 0
        model = json.loads((tmp_path / "o" / "model.json").read_text(encoding="utf-8"))
        assert model["alpha"] == 1
        assert run("topics-train", *BASE, "--seed-file", str(DATA / "seeds.json"),
                   "--alpha", "1", "--iters", "2", "--out", str(tmp_path / "flags")) == 0
        assert (tmp_path / "o" / "model.json").read_bytes() == \
            (tmp_path / "flags" / "model.json").read_bytes()
        capsys.readouterr()


class TestPairsConfig:
    def pairs_bytes(self, out, *argv, **config):
        path = out.with_suffix(".json")
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run(
            "pairs", *BASE, *PARSES, "--config", str(path), *argv, "--out", str(out)
        ) == 0
        return (out / "pairs.csv").read_bytes()

    def test_config_keys_match_flags(self, tmp_path, capsys):
        from_config = self.pairs_bytes(
            tmp_path / "config", verbs=["read"], rel_scheme="ud", subtree=True
        )
        from_flags = self.pairs_bytes(
            tmp_path / "flags", "--verb", "read", "--rel-scheme", "ud", "--subtree"
        )
        assert from_config == from_flags
        assert from_config.decode().splitlines()[1:] == [
            "Music,read,book,1",
            "Music,read,student,1",
        ]
        capsys.readouterr()

    def test_no_subtree_overrides_config(self, tmp_path, capsys):
        # under the UD scheme the whole-subtree mode finds more nouns here
        wide = self.pairs_bytes(tmp_path / "wide", rel_scheme="ud", subtree=True)
        narrow = self.pairs_bytes(tmp_path / "narrow", rel_scheme="ud")
        overridden = self.pairs_bytes(
            tmp_path / "overridden", "--no-subtree", rel_scheme="ud", subtree=True
        )
        assert wide != narrow
        assert overridden == narrow
        capsys.readouterr()

    def test_verbs_must_be_a_list(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"verbs": "read"}), encoding="utf-8")
        assert run(
            "pairs", *BASE, *PARSES, "--config", str(path), "--out", str(tmp_path / "o")
        ) == 1
        err = capsys.readouterr().err
        assert "--verb (config key verbs) must be a list of str" in err
        assert not (tmp_path / "o").exists()


COMMANDS = (
    "trends", "words", "bigrams", "sentiment", "verbs", "pairs",
    "topics-train", "topics-classify", "topics-eval", "report",
)
# every option string each subcommand accepted before flags were generated
# from RunConfig; pairs also took --verb, --rel-scheme and --subtree
EARLIER_OPTIONS = {
    "-h", "--help", "--config", "--corpus", "--format", "--taxonomy",
    "--stopwords", "--exclusions", "--lexicon", "--parses", "--scores",
    "--seed-file", "--predictions", "--out", "--stem", "--no-stem", "--alpha",
    "--beta", "--mu", "--iters", "--unseeded", "--rng-seed", "--top-n",
    "--min-count", "--min-groups", "--gold-policy",
}
PAIRS_OPTIONS = {"--verb", "--rel-scheme", "--subtree"}
SWITCHES = {"--stem", "--no-stem", "--subtree", "--no-subtree"}
SAMPLE_VALUES = {"--format": "csv", "--gold-policy": "priority", "--rel-scheme": "ud"}


def subcommand_options(parser, command):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {s for action in sub.choices[command]._actions for s in action.option_strings}


class TestCliSurface:
    def test_commands(self):
        assert tuple(cli.COMMANDS) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_earlier_option_accepted(self, command):
        parser = cli.build_parser()
        earlier = EARLIER_OPTIONS | (PAIRS_OPTIONS if command == "pairs" else set())
        options = subcommand_options(parser, command)
        assert earlier <= options
        assert options - earlier <= PAIRS_OPTIONS | {"--no-subtree"}
        for option in sorted(earlier - {"-h", "--help"}):
            value = [] if option in SWITCHES else [SAMPLE_VALUES.get(option, "1")]
            parser.parse_args([command, option, *value])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_shows_every_field(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for field in dataclasses.fields(cli.RunConfig):
            assert field.metadata["help"] in text, field.name


class TestRunConfig:
    def test_round_trip(self):
        cfg = cli.RunConfig()
        assert cli.RunConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.RunConfig.from_dict({"nope": 1})

    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.rng_seed == 12345
        assert cfg.iters == 2000
        assert cfg.alpha == 0.01 and cfg.beta == 0.0001 and cfg.mu == 0.5
        assert cfg.unseeded == 2
        assert cfg.stem is True
        assert cfg.gold_policy == "rarest"

    def test_pairs_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.verbs is None and cfg.rel_scheme == "default"
        assert cfg.subtree is False

    def test_constructor_checks_values(self):
        with pytest.raises(cli.UsageError, match="--top-n"):
            cli.RunConfig(top_n=-1)
        with pytest.raises(cli.UsageError, match="--verb"):
            cli.RunConfig(verbs=["read", 3])
        assert cli.RunConfig(alpha=1).alpha == 1


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("words", *BASE, "--out", str(out)) == 0
            assert run(
                "sentiment", *BASE,
                "--scores", str(DATA / "scores.jsonl"), "--out", str(out),
            ) == 0
            outputs.append(out)
        a, b = outputs
        for artifact in ("words.csv", "sentiment.csv"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
