"""Dependency-parse ingestion, round-trip serialization, verb->noun
extraction, and per-group distinctive verbs."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagtopics.syntax import (
    DependencyTree,
    ParseNode,
    RelationConfig,
    distinctive_verbs,
    load_parses,
    serialize_parses,
    verb_noun_pairs,
)

DATA = Path(__file__).parent / "data"


def tree(tweet_id, *rows):
    """rows: (form, lemma, pos, head, rel), index assigned by position."""
    nodes = tuple(
        ParseNode(index=i, form=f, lemma=l, pos=p, head=h, rel=r)
        for i, (f, l, p, h, r) in enumerate(rows, start=1)
    )
    return DependencyTree(tweet_id=tweet_id, nodes=nodes)


class TestLoadParses:
    def test_fixture_loads_all_blocks(self):
        trees = load_parses(DATA / "parses.conllu")
        assert [t.tweet_id for t in trees] == [f"t{i:02d}" for i in range(1, 11)]
        t01 = trees[0]
        assert t01.nodes[0] == ParseNode(1, "We", "we", "PRON", 2, "nsubj")
        assert t01.nodes[1].head == 0 and t01.nodes[1].rel == "root"
        assert len(trees[4].nodes) == 5

    def test_children_index(self):
        trees = load_parses(DATA / "parses.conllu")
        kids = trees[0].children()
        assert [n.form for n in kids[2]] == ["We", "with"]
        assert [n.form for n in kids[3]] == ["anxiety"]
        assert [n.form for n in kids[0]] == ["deal"]

    def test_bad_blocks_skipped_with_diagnostics(self, caplog):
        with caplog.at_level("WARNING", logger="tagtopics.syntax"):
            trees = load_parses(DATA / "parses_bad.conllu")
        assert [t.tweet_id for t in trees] == ["ok"]
        messages = [r.message for r in caplog.records]
        assert len(messages) == 5
        joined = "\n".join(messages)
        assert "missing tweet_id comment" in joined
        assert "multiple roots" in joined
        assert "cycle" in joined
        assert "expected 6 columns" in joined
        assert "its own head" in joined

    def test_comment_only_block_passed_over(self, tmp_path, caplog):
        path = tmp_path / "notes.conllu"
        path.write_text(
            "# sent_id = 1\n# text = we deal\n\n"
            "# tweet_id = x\n1\tdeal\tdeal\tVERB\t0\troot\n\n"
            "# note\n1\tgo\tgo\tVERB\t0\troot\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="tagtopics.syntax"):
            trees = load_parses(path)
        assert [t.tweet_id for t in trees] == ["x"]
        (record,) = caplog.records
        assert record.getMessage().endswith(
            "notes.conllu:7 block skipped: missing tweet_id comment")

    def test_inline_rejections(self, tmp_path, caplog):
        # each block with the reason it is skipped for; an ID or HEAD that
        # int() reads but that would serialize spelled otherwise counts as
        # non-integer
        cases = [
            ("no root", "# tweet_id = x\n1\ta\ta\tNOUN\t2\tdep\n2\tb\tb\tNOUN\t1\tdep\n"),
            ("head 9 out of range", "# tweet_id = x\n1\ta\ta\tNOUN\t9\tdep\n"),
            ("not sequential", "# tweet_id = x\n3\ta\ta\tNOUN\t0\troot\n"),
            ("non-integer", "# tweet_id = x\none\ta\ta\tNOUN\t0\troot\n"),
            ("non-integer", "# tweet_id = x\n+1\ta\ta\tNOUN\t0\troot\n"),
            ("non-integer", "# tweet_id = x\n1\ta\ta\tNOUN\t0\troot\n0_2\tb\tb\tNOUN\t1\tdep\n"),
            ("non-integer", "# tweet_id = x\n1\ta\ta\tNOUN\t0\troot\n2\tb\tb\tNOUN\t01\tdep\n"),
            ("non-integer", "# tweet_id = x\n\u0661\ta\ta\tNOUN\t0\troot\n"),
        ]
        for reason, text in cases:
            path = tmp_path / "p.conllu"
            path.write_text(text, encoding="utf-8")
            caplog.clear()
            with caplog.at_level("WARNING", logger="tagtopics.syntax"):
                assert load_parses(path) == [], text
            assert len(caplog.records) == 1, text
            assert reason in caplog.records[0].getMessage(), text

    def test_multi_sentence_tweet(self, tmp_path):
        path = tmp_path / "p.conllu"
        path.write_text(
            "# tweet_id = t1\n1\tGo\tgo\tVERB\t0\troot\n\n"
            "# tweet_id = t1\n1\tStop\tstop\tVERB\t0\troot\n",
            encoding="utf-8",
        )
        trees = load_parses(path)
        assert [t.tweet_id for t in trees] == ["t1", "t1"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_parses(tmp_path / "absent.conllu")


class TestSerialize:
    def test_round_trip_is_byte_identical(self):
        original = (DATA / "parses.conllu").read_text(encoding="utf-8")
        assert serialize_parses(load_parses(DATA / "parses.conllu")) == original

    def test_serialize_then_load_is_identity(self, tmp_path):
        trees = load_parses(DATA / "parses.conllu")
        path = tmp_path / "again.conllu"
        path.write_text(serialize_parses(trees), encoding="utf-8")
        assert load_parses(path) == trees

    def test_block_shape(self):
        t = tree("x", ("Hi", "hi", "INTJ", 0, "root"))
        assert serialize_parses([t]) == "# tweet_id = x\n1\tHi\thi\tINTJ\t0\troot\n\n"


# no line breaks, tabs or characters that strip() removes, which the
# block format cannot carry inside a field
FIELD_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"))


@st.composite
def valid_trees(draw):
    """A tree with one root and no cycle: in a random order, each node after
    the first hangs under a node drawn before it."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))]
    field = st.text(FIELD_CHARS, max_size=6)
    return DependencyTree(
        tweet_id=draw(st.text(FIELD_CHARS, min_size=1, max_size=8)),
        nodes=tuple(
            ParseNode(index=i, form=draw(field), lemma=draw(field), pos=draw(field),
                      head=heads[i], rel=draw(field))
            for i in range(1, n + 1)
        ),
    )


class TestSerializeProperty:
    @settings(max_examples=200, deadline=None)
    @given(trees=st.lists(valid_trees(), max_size=4))
    def test_load_inverts_serialize(self, trees):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trees.conllu"
            path.write_text(serialize_parses(trees), encoding="utf-8")
            assert load_parses(path) == trees


FIXTURE_TABLES = {
    "deal": (("anxiety", 1),),
    "read": (("book", 1), ("student", 1)),
    "close": (("school", 1), ("teacher", 1)),
    "buy": (("paper", 2), ("people", 1), ("store", 1)),
    "sing": (),
    "bark": (("dog", 1), ("mailman", 1)),
    "visit": (("alice", 1), ("paris", 1)),
    "run": (("paper", 1),),
}


class TestVerbNounPairs:
    @pytest.mark.parametrize("verb,expected", sorted(FIXTURE_TABLES.items()))
    def test_fixture_tables(self, verb, expected):
        trees = load_parses(DATA / "parses.conllu")
        table = verb_noun_pairs(trees, verb)
        assert table.verb == verb
        assert table.nouns == expected

    def test_pronoun_subjects_excluded(self):
        # t01's subject is a pronoun; only the prepositional object survives
        trees = load_parses(DATA / "parses.conllu")
        assert verb_noun_pairs(trees, "deal").nouns == (("anxiety", 1),)
        assert verb_noun_pairs(trees, "sing").nouns == ()

    def test_particle_not_treated_as_preposition(self):
        trees = load_parses(DATA / "parses.conllu")
        # t10: "runs out" attaches out as prt, which opens no two-hop path
        assert verb_noun_pairs(trees, "run").nouns == (("paper", 1),)

    def test_verb_lemma_casefolded(self):
        trees = load_parses(DATA / "parses.conllu")
        assert verb_noun_pairs(trees, "BUY").nouns == FIXTURE_TABLES["buy"]

    def test_non_verb_lemma_matches_nothing(self):
        # "paper" occurs as NOUN only; the POS gate keeps it out
        trees = load_parses(DATA / "parses.conllu")
        assert verb_noun_pairs(trees, "paper").nouns == ()

    def test_ud_preset_disables_two_hop(self):
        trees = load_parses(DATA / "parses.conllu")
        ud = RelationConfig.universal_dependencies()
        assert verb_noun_pairs(trees, "deal", ud).nouns == ()
        # nsubj is shared between schemes, dobj is not
        assert verb_noun_pairs(trees, "read", ud).nouns == (("student", 1),)

    def test_ud_preset_takes_oblique_directly(self):
        ud_tree = tree(
            "u1",
            ("She", "she", "PRON", 2, "nsubj"),
            ("relies", "rely", "VERB", 0, "root"),
            ("on", "on", "ADP", 4, "case"),
            ("data", "data", "NOUN", 2, "obl"),
        )
        ud = RelationConfig.universal_dependencies()
        assert verb_noun_pairs([ud_tree], "rely", ud).nouns == (("data", 1),)
        assert verb_noun_pairs([ud_tree], "rely").nouns == ()

    def test_whole_subtree_mode(self):
        deep = tree(
            "d1",
            ("Managers", "manager", "NOUN", 2, "nsubj"),
            ("report", "report", "VERB", 0, "root"),
            ("problems", "problem", "NOUN", 2, "dobj"),
            ("with", "with", "ADP", 3, "prep"),
            ("supply", "supply", "NOUN", 4, "pobj"),
            ("of", "of", "ADP", 5, "prep"),
            ("paper", "paper", "NOUN", 6, "pobj"),
        )
        narrow = verb_noun_pairs([deep], "report")
        assert narrow.nouns == (("manager", 1), ("problem", 1))
        wide = verb_noun_pairs([deep], "report", RelationConfig(whole_subtree=True))
        assert wide.nouns == (
            ("manager", 1), ("paper", 1), ("problem", 1), ("supply", 1)
        )

    def test_counts_aggregate_across_trees(self):
        trees = load_parses(DATA / "parses.conllu")
        assert verb_noun_pairs(trees, "buy").nouns[0] == ("paper", 2)


class TestDistinctiveVerbs:
    def split_fixture(self):
        trees = {t.tweet_id: t for t in load_parses(DATA / "parses.conllu")}
        return trees

    def test_verb_in_every_group_is_dropped(self):
        t = self.split_fixture()
        groups = {"A": [t["t02"], t["t03"]], "B": [t["t08"], t["t06"]]}
        profiles = distinctive_verbs(groups)
        by_name = {p.category: p.verbs for p in profiles}
        # "read" appears in both groups and is annihilated
        assert [v[0] for v in by_name["A"]] == ["close"]
        assert [v[0] for v in by_name["B"]] == ["sing"]
        (lemma, count, score) = by_name["A"][0]
        assert count == 1
        assert abs(score - math.log(2)) <= 1e-12

    def test_single_group_keeps_everything(self):
        t = self.split_fixture()
        (profile,) = distinctive_verbs({"only": [t["t04"], t["t05"]]})
        assert profile.verbs == (("buy", 2, pytest.approx(2 * math.log(2))),)

    def test_ranking_count_desc_then_lemma(self):
        t = self.split_fixture()
        groups = {
            "A": [t["t04"], t["t05"], t["t01"], t["t07"]],  # buy x2, deal, bark
            "B": [t["t09"]],  # visit
        }
        by_name = {p.category: p.verbs for p in distinctive_verbs(groups)}
        assert [v[:2] for v in by_name["A"]] == [("buy", 2), ("bark", 1), ("deal", 1)]
        assert [v[:2] for v in by_name["B"]] == [("visit", 1)]

    def test_top_n_truncates(self):
        t = self.split_fixture()
        groups = {"A": [t["t04"], t["t05"], t["t01"], t["t07"]], "B": [t["t09"]]}
        by_name = {p.category: p.verbs for p in distinctive_verbs(groups, n=1)}
        assert [v[0] for v in by_name["A"]] == ["buy"]

    def test_empty_groups(self):
        assert distinctive_verbs({}) == []
        (profile,) = distinctive_verbs({"empty": []})
        assert profile.verbs == ()
