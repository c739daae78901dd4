"""Stemmer verification.

Three layers: per-step vectors exercising every rewrite rule in isolation,
full-pipeline pairs traced by hand through all steps, and a golden file of
over ten thousand word/stem pairs. The pipeline pairs are the authority for
end-to-end behavior; per-step outputs often change again in later steps
(relational -> relate in step 2, then relat in step 5a).
"""

import string
from pathlib import Path

import pytest

from tagtopics.porter import (
    _STEP2_RULES,
    _STEP3_RULES,
    _STEP4_SUFFIXES,
    _ends_cvc,
    _ends_double_consonant,
    _has_vowel,
    _measure,
    _pattern,
    _step1a,
    _step1b,
    _step1c,
    _step2,
    _step3,
    _step4,
    _step5a,
    _step5b,
    stem,
)


class TestLetterClassification:
    def test_plain_vowels_and_consonants(self):
        assert _pattern("apple") == "vcccv"
        assert _pattern("café") == "cvcc"  # a letter that is not a-z is a consonant

    def test_y_after_consonant_is_vowel(self):
        assert _pattern("syzygy") == "cvcvcv"
        assert _pattern("happy") == "cvccv"

    def test_y_at_start_or_after_vowel_is_consonant(self):
        assert _pattern("yellow") == "cvccvc"
        assert _pattern("toy") == "cvc"
        assert _pattern("yyyy") == "cvcv"

    @pytest.mark.parametrize(
        "word,m",
        [
            ("tr", 0), ("ee", 0), ("tree", 0), ("y", 0), ("by", 0),
            ("trouble", 1), ("oats", 1), ("trees", 1), ("ivy", 1),
            ("troubles", 2), ("private", 2), ("oaten", 2), ("orrery", 2),
            ("toiletpap", 3), ("univers", 3), ("sanit", 2), ("shortag", 2),
        ],
    )
    def test_measure(self, word, m):
        assert _measure(word) == m

    def test_helpers(self):
        assert _has_vowel("agr")
        assert not _has_vowel("bl")
        assert _ends_double_consonant("hopp")
        assert not _ends_double_consonant("feed")
        assert _ends_cvc("fil")
        assert not _ends_cvc("fail")
        assert not _ends_cvc("box")  # final x disqualifies


STEP1A = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
]

STEP1B = [
    ("feed", "feed"), ("agreed", "agree"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflate"), ("troubled", "trouble"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
]

STEP1C = [("happy", "happi"), ("sky", "sky")]

STEP2 = [
    ("relational", "relate"), ("conditional", "condition"),
    ("rational", "rational"), ("valenci", "valence"),
    ("hesitanci", "hesitance"), ("digitizer", "digitize"),
    ("conformabli", "conformable"), ("radicalli", "radical"),
    ("differentli", "different"), ("vileli", "vile"),
    ("analogousli", "analogous"), ("vietnamization", "vietnamize"),
    ("predication", "predicate"), ("operator", "operate"),
    ("feudalism", "feudal"), ("decisiveness", "decisive"),
    ("hopefulness", "hopeful"), ("callousness", "callous"),
    ("formaliti", "formal"), ("sensitiviti", "sensitive"),
    ("sensibiliti", "sensible"),
    # frozen-variant departure: bare "bli", not "abli"
    ("possibli", "possible"),
    # frozen-variant addition
    ("archaeologi", "archaeolog"),
]

STEP3 = [
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electric"), ("electrical", "electric"),
    ("hopeful", "hope"), ("goodness", "good"),
]

STEP4 = [
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"),
    ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("homologou", "homolog"),
    ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"),
    # "ion" strips only after s or t
    ("religion", "religion"),
]

STEP5A = [("probate", "probat"), ("rate", "rate"), ("cease", "ceas")]

STEP5B = [("controll", "control"), ("roll", "roll")]


class TestSteps:
    @pytest.mark.parametrize("word,expected", STEP1A)
    def test_step1a(self, word, expected):
        assert _step1a(word) == expected

    @pytest.mark.parametrize("word,expected", STEP1B)
    def test_step1b(self, word, expected):
        assert _step1b(word) == expected

    @pytest.mark.parametrize("word,expected", STEP1C)
    def test_step1c(self, word, expected):
        assert _step1c(word) == expected

    @pytest.mark.parametrize("word,expected", STEP2)
    def test_step2(self, word, expected):
        assert _step2(word) == expected

    @pytest.mark.parametrize("word,expected", STEP3)
    def test_step3(self, word, expected):
        assert _step3(word) == expected

    @pytest.mark.parametrize("word,expected", STEP4)
    def test_step4(self, word, expected):
        assert _step4(word) == expected

    @pytest.mark.parametrize("word,expected", STEP5A)
    def test_step5a(self, word, expected):
        assert _step5a(word) == expected

    @pytest.mark.parametrize("word,expected", STEP5B)
    def test_step5b(self, word, expected):
        assert _step5b(word) == expected


# Hand-traced through every step. Where a pair looks surprising
# (relational -> relat, agreed -> agre, geology -> geologi) the trace was
# repeated to confirm; those are the algorithm's real outputs.
FULL_PIPELINE = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("cats", "cat"), ("news", "new"), ("atlas", "atla"),
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"), ("making", "make"), ("meetings", "meet"),
    ("dying", "dy"), ("lying", "ly"), ("crying", "cry"),
    ("happy", "happi"), ("sky", "sky"), ("flies", "fli"),
    ("dies", "di"), ("die", "die"), ("knees", "knee"), ("trees", "tree"),
    ("skies", "ski"),
    ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
    ("digitizer", "digit"), ("conformabli", "conform"),
    ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
    ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"),
    ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"),
    ("formaliti", "formal"), ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"), ("possibli", "possibl"),
    ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"),
    ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("homologou", "homolog"),
    ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"),
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
    ("generalizations", "gener"), ("oscillators", "oscil"),
    ("university", "univers"), ("universe", "univers"),
    ("sanitize", "sanit"), ("toiletpaper", "toiletpap"),
    ("shortage", "shortag"), ("wash", "wash"), ("hands", "hand"),
    ("archaeology", "archaeolog"), ("geology", "geologi"),
    ("multidimensional", "multidimension"),
]


class TestFullPipeline:
    @pytest.mark.parametrize("word,expected", FULL_PIPELINE)
    def test_known_pairs(self, word, expected):
        assert stem(word) == expected

    @pytest.mark.parametrize("word", ["a", "i", "as", "is", "on", "be", "ss"])
    def test_short_words_unchanged(self, word):
        assert stem(word) == word

    def test_uppercase_is_lowered(self):
        assert stem("Hopping") == "hop"
        assert stem("UNIVERSITY") == "univers"

    def test_output_alphabet(self):
        for word, _ in FULL_PIPELINE:
            out = stem(word)
            assert out == out.lower()
            assert set(out) <= set(string.ascii_lowercase)

    def test_inflection_families_share_stems(self):
        families = [
            ("connect", "connected", "connecting", "connection", "connections"),
            ("hope", "hoping", "hoped", "hopes"),
            ("close", "closed", "closing", "closes"),
        ]
        for family in families:
            stems = {stem(w) for w in family}
            assert len(stems) == 1, (family, stems)

    def test_not_idempotent_on_own_output(self):
        # step 1a strips the trailing s of "univers" and step 4 then takes
        # "er"; documented stemmer behavior that keeps re-stemming out of the
        # pipeline contract
        assert stem("university") == "univers"
        assert stem("univers") == "univ"

    def test_deterministic(self):
        for word, _ in FULL_PIPELINE:
            assert stem(word) == stem(word)


PAIRS = Path(__file__).parent / "data" / "porter_pairs.tsv"


class TestGoldenPairs:
    def test_reproduces_every_pair(self):
        # word<TAB>stem pairs written by the earlier stemmer, which tried
        # each step's suffixes in list order. The words reach every rule:
        # each step 2-4 suffix after stems of measure 0, 1 and 2 (bare and
        # inflected), y as consonant and vowel, -eed/-ed/-ing, double
        # consonants and cvc endings, non-ASCII letters, the words of the
        # test corpora and the shipped word lists, and random words
        pairs = [line.split("\t") for line in PAIRS.read_text(encoding="utf-8").splitlines()]
        assert len(pairs) > 10_000
        assert [(w, s) for w, s in pairs if stem(w) != s] == []

    @pytest.mark.parametrize("suffixes", [
        [s for s, _ in _STEP2_RULES], [s for s, _ in _STEP3_RULES], list(_STEP4_SUFFIXES),
    ])
    def test_no_suffix_ends_a_later_one(self, suffixes):
        # so trying the longest suffix first finds the rule the list finds
        for i, first in enumerate(suffixes):
            assert not [later for later in suffixes[i + 1:] if later.endswith(first)]
