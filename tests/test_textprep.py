"""Normalization pipeline and category-echo filtering."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagtopics import porter, textprep
from tagtopics.corpus import CategoryTaxonomy
from tagtopics.textprep import (
    NormalizationConfig,
    TokenizedDoc,
    default_stopwords,
    filter_category_echo,
    load_wordlist,
    normalize,
    split_tag,
    tokenize_tweets,
)

STOPWORDS = frozenset(
    "a an and at the is was who else from under over your our we".split()
)
STEMMED = NormalizationConfig(stopwords=STOPWORDS, stem=True)
RAW = NormalizationConfig(stopwords=STOPWORDS, stem=False)


class TestNormalize:
    def test_url_mention_and_stopwords(self):
        text = "Wash your hands! https://x.co @who"
        assert normalize(text, STEMMED) == ["wash", "hand"]

    def test_hashtag_body_stays_fused(self):
        assert normalize("#ToiletPaper shortage", STEMMED) == ["toiletpap", "shortag"]
        assert normalize("#ToiletPaper shortage", RAW) == ["toiletpaper", "shortage"]

    def test_digits_split_tokens(self):
        # splitting on non-alphabetic characters cuts at the digits
        assert normalize("#covid19 case counts", RAW) == ["covid", "case", "counts"]

    def test_short_tokens_dropped(self):
        # "I" and "m" fall to the length-2 floor, "5" to the alpha split
        assert normalize("I am 5 m on", RAW) == ["am", "on"]

    def test_mention_mid_text_and_email_kept(self):
        assert normalize("ping @someone about it", RAW) == ["ping", "about", "it"]
        # an address is not a mention; its parts survive as words
        assert normalize("mail me x@y.com", RAW) == ["mail", "me", "com"]

    def test_url_scheme_required(self):
        assert normalize("see https://a.b/c?d=1 now", RAW) == ["see", "now"]
        assert normalize("ratio 3://2 stays? no", RAW) == ["ratio", "stays", "no"]

    def test_empty_and_punctuation_only(self):
        assert normalize("", RAW) == []
        assert normalize("!!! ... 123", RAW) == []

    def test_idempotent_without_stemming(self):
        rng = np.random.default_rng(7)
        words = ["Reading", "CONTROL", "nobody", "w8ing", "#TagLike", "plain"]
        for _ in range(200):
            text = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            once = normalize(text, RAW)
            again = normalize(" ".join(once), RAW)
            assert once == again

    def test_stemmed_pipeline_deterministic(self):
        text = "Universities closing gyms, hoarding continues #StaySafe"
        assert normalize(text, STEMMED) == normalize(text, STEMMED)

    def test_output_alphabet_invariant(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcXYZ019 #@!.:/_-")
        for _ in range(300):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            for config in (STEMMED, RAW):
                for token in normalize(text, config):
                    assert len(token) >= 2
                    assert set(token) <= set(string.ascii_lowercase)
                    assert token not in config.stopwords


class TestSplitTag:
    @pytest.mark.parametrize(
        "tag,parts",
        [
            ("StayHome", ["Stay", "Home"]),
            ("covid19", ["covid", "19"]),
            ("NYCSchools", ["NYC", "Schools"]),
            ("lowercase", ["lowercase"]),
            ("ALLCAPS", ["ALLCAPS"]),
            ("snake_case19", ["snake", "case", "19"]),
        ],
    )
    def test_boundaries(self, tag, parts):
        assert split_tag(tag) == parts


TAXONOMY = CategoryTaxonomy.from_mapping(
    {
        "Pandemic": ["#Covid19", "#StayHome"],
        "Economy": ["#JobLosses"],
    }
)


class TestFilterCategoryEcho:
    def test_drops_tag_bodies_and_components(self):
        tokens = ["covid", "hoard", "stay", "home", "jobs", "market"]
        kept = filter_category_echo(tokens, TAXONOMY)
        # "jobs" stems to "job", matching the JobLosses component
        assert kept == ["hoard", "market"]

    def test_stemmed_token_stream_filters_too(self):
        # tokens already stemmed upstream: losses -> loss
        kept = filter_category_echo(["loss", "rent"], TAXONOMY)
        assert kept == ["rent"]

    def test_exclusions_split_on_whitespace(self):
        kept = filter_category_echo(
            ["governor", "speech", "press"], TAXONOMY, exclusions={"governor press"}
        )
        assert kept == ["speech"]

    def test_no_terms_no_filtering(self):
        empty = CategoryTaxonomy.from_mapping({})
        assert filter_category_echo(["any", "words"], empty) == ["any", "words"]


OTHER_TAXONOMY = CategoryTaxonomy.from_mapping(
    {"Schools": ["#SchoolClosures", "#RemoteLearning"], "Health": ["#Masks"]}
)
ECHO_WORDS = ["covid", "stay", "home", "stayhom", "job", "losses", "loss", "school",
              "closur", "remot", "learn", "mask", "masks", "governor", "press", "rent"]
WORDS = st.sampled_from(ECHO_WORDS) | st.text(string.ascii_lowercase, min_size=1, max_size=8)
EXCLUSION_KINDS = st.sampled_from([set, list, tuple, lambda terms: (t for t in terms)])


def reference_echo_filter(tokens, taxonomy, exclusions):
    """The filter over an echo set built afresh."""
    banned = textprep._echo_terms.__wrapped__(taxonomy, exclusions)
    return [t for t in tokens if t not in banned and porter.stem(t) not in banned]


class TestEchoCache:
    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(
        st.tuples(st.lists(WORDS, max_size=12),
                  st.lists(WORDS | st.sampled_from(["governor press", "job market"]),
                           max_size=3),
                  EXCLUSION_KINDS),
        min_size=1, max_size=6))
    def test_matches_uncached_reference(self, calls):
        # the two taxonomies alternate, so a set cached for one would show
        # up as a wrong answer for the other
        for i, (tokens, exclusions, kind) in enumerate(calls):
            taxonomy = (TAXONOMY, OTHER_TAXONOMY)[i % 2]
            expected = reference_echo_filter(tokens, taxonomy, exclusions)
            assert filter_category_echo(tokens, taxonomy, kind(exclusions)) == expected

    def test_echo_set_is_immutable(self):
        assert isinstance(textprep._echo_terms(TAXONOMY, frozenset()), frozenset)


class FakeTweet:
    def __init__(self, id, text):
        self.id = id
        self.text = text


class TestTokenizeTweets:
    def test_order_and_ids(self):
        tweets = [FakeTweet("a", "first tweet"), FakeTweet("b", "second"),
                  FakeTweet("c", "#StayHome jobs report #Covid19")]
        assert tokenize_tweets(tweets, RAW, TAXONOMY, exclusions={"report"}) == [
            TokenizedDoc("a", ("first", "tweet")),
            TokenizedDoc("b", ("second",)),
            TokenizedDoc("c", ()),  # tag bodies, "jobs" (stem job) and the exclusion
        ]

    def test_echo_terms_dropped_before_the_stem_step(self, monkeypatch):
        text = "Happy families stay happier at home with jobs #StayHome"
        tweets = [FakeTweet("a", text)]
        tokenize_tweets(tweets, STEMMED, TAXONOMY)  # builds the echo set
        textprep._word_memo.cache_clear()  # so the words are stemmed again
        calls = []
        stem = porter.stem
        monkeypatch.setattr(porter, "stem", lambda word: calls.append(word) or stem(word))
        (doc,) = tokenize_tweets(tweets, STEMMED, TAXONOMY)
        # the stemmer sees words, never its own output
        assert calls and set(calls) <= set(normalize(text, RAW))
        assert doc.tokens == tuple(textprep.echo_free_tokens(text, STEMMED, TAXONOMY))
        assert doc.tokens == tuple(filter_category_echo(normalize(text, STEMMED), TAXONOMY))


def reference_tokens(text, config, banned):
    """The tokenizer step by step, each step a pass of its own: both
    substitutions unguarded, no memo."""
    text = textprep._URL_RE.sub(" ", text)
    text = textprep._MENTION_RE.sub(" ", text)
    tokens = textprep._LETTER_RUN_RE.findall(text.replace("#", "").casefold())
    tokens = [t for t in tokens if len(t) >= textprep.MIN_TOKEN_LEN]
    tokens = [t for t in tokens if t not in config.stopwords]
    tokens = [t for t in tokens if t not in banned and porter.stem(t) not in banned]
    if config.stem:
        tokens = [porter.stem(t) for t in tokens]
    return tokens


TEXT_PIECES = st.one_of(
    WORDS,
    st.sampled_from(sorted(STOPWORDS)),
    st.sampled_from(["https://x.co/a1", "http://t.co/@who", "see:https://a.b", "ftp://jobs.org",
                     "://", "x://", "9://y"]),
    st.sampled_from(["@who", "@StayHome", "a@b.c", "@", "@@x", "_@y", "mail@home"]),
    st.sampled_from(["#StayHome", "#Covid19", "#JobLosses", "#SchoolClosures2020", "##",
                     "#COVIDRelief", "#stayHOME", "#ремонт"]),
    st.sampled_from(["Café", "naïve", "Straße", "ÉCOLE", "İstanbul", "ﬁnes", "Jobs",
                     "HAPPIER", "ǅemal", "über"]),
    st.text(max_size=6),
)
TEXTS = st.lists(st.tuples(TEXT_PIECES, st.sampled_from([" ", "", ",", "!", "\n", "1", "'"])),
                 max_size=12).map(lambda parts: "".join(p + sep for p, sep in parts))


class TestTokenizer:
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=4), config=st.sampled_from([STEMMED, RAW]),
           taxonomy=st.sampled_from([TAXONOMY, OTHER_TAXONOMY]),
           exclusions=st.sampled_from([(), ("governor press",), ("jobs", "café")]))
    def test_matches_reference_pipeline(self, texts, config, taxonomy, exclusions):
        # the memos stay warm across examples, so this checks warm and cold words
        banned = textprep._echo_terms.__wrapped__(taxonomy, frozenset(exclusions))
        for text in texts:
            assert normalize(text, config) == reference_tokens(text, config, frozenset())
            expected = reference_tokens(text, config, banned)
            assert textprep.echo_free_tokens(text, config, taxonomy, exclusions) == expected
        docs = tokenize_tweets([FakeTweet(str(i), t) for i, t in enumerate(texts)],
                               config, taxonomy, exclusions)
        assert [list(doc.tokens) for doc in docs] == [
            reference_tokens(t, config, banned) for t in texts]


class TestWordlists:
    def test_load_wordlist(self, tmp_path):
        p = tmp_path / "words.txt"
        p.write_text("# comment\nAlpha\n\nbeta\n", encoding="utf-8")
        assert load_wordlist(p) == frozenset({"alpha", "beta"})

    def test_default_stopwords_ship_with_package(self):
        words = default_stopwords()
        assert {"the", "and", "your"} <= words
        assert all(w == w.casefold() for w in words)
