"""Fixed-seed workload generators for the tagtopics benchmark.

Each generator writes the input files the CLI reads (corpus, taxonomy, seed
words, dependency parses) and returns a :class:`Truth`: the facts the
generator decided while writing them (each tweet's categories and UTC day,
its planted valence words, its parse trees, its planted topic). The artifact
checks in ``checks.py`` compare the program's outputs against these facts,
never against a stored copy of an earlier output.

Vocabulary pseudo-words all start with one of ``_CLUSTERS``, and no reserved
word (planted bigram, keyword, valence word, category hashtag) does. Porter
stemming only rewrites word endings, so no vocabulary word can stem to a
reserved word's stem.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

# The six categories of the paper, with camel-case and digit hashtags.
TAXONOMY = {
    "General COVID": ["#COVID19", "#Coronavirus", "#Pandemic"],
    "Quarantine": ["#Quarantine", "#QuarantineLife", "#StayHome"],
    "Panic Buying": ["#PanicBuying", "#Stockpiling"],
    "School Closures": ["#SchoolClosures", "#SchoolsClosed", "#Homeschooling"],
    "Lockdowns": ["#Lockdown", "#Lockdown2020", "#ShelterInPlace"],
    "Frustration and Hope": ["#FlattenTheCurve", "#InThisTogether",
                             "#WeWillGetThroughThis"],
}
CATEGORIES = tuple(TAXONOMY)

# Per category: one bigram that only ever occurs as a pair (so its
# chi-square is the group's maximum), one verb used only in that category's
# parses, and keywords that seed its topic.
PLANTED = {
    "General COVID": (("viral", "load"), "spread", ("virus", "outbreak", "infection")),
    "Quarantine": (("netflix", "binge"), "watch", ("couch", "indoors", "sofa")),
    "Panic Buying": (("toilet", "paper"), "hoard", ("shelves", "supermarket", "sanitizer")),
    "School Closures": (("zoom", "lessons"), "teach", ("teachers", "pupils", "homework")),
    "Lockdowns": (("curfew", "hours"), "enforce", ("police", "checkpoint", "permit")),
    "Frustration and Hope": (("healthcare", "heroes"), "applaud",
                             ("nurses", "medics", "patience")),
}

# Porter stems of the planted bigrams, as bigrams.csv spells them. Written
# out by hand so the bigram check does not lean on the program's stemmer.
BIGRAM_STEMS = {
    "General COVID": "viral load",
    "Quarantine": "netflix bing",
    "Panic Buying": "toilet paper",
    "School Closures": "zoom lesson",
    "Lockdowns": "curfew hour",
    "Frustration and Hope": "healthcar hero",
}

# Every echo term of TAXONOMY (hashtag bodies and their camel-case and digit
# components, casefolded) with its Porter stem, written out by hand. The
# program drops a token when it or its stem is one of these.
ECHO_STEMS = {
    "19": "19", "2020": "2020", "buying": "bui", "closed": "close",
    "closures": "closur", "coronavirus": "coronaviru", "covid": "covid",
    "covid19": "covid19", "curve": "curv", "flatten": "flatten",
    "flattenthecurve": "flattenthecurv", "get": "get", "home": "home",
    "homeschooling": "homeschool", "in": "in", "inthistogether": "inthistogeth",
    "life": "life", "lockdown": "lockdown", "lockdown2020": "lockdown2020",
    "pandemic": "pandem", "panic": "panic", "panicbuying": "panicbui",
    "place": "place", "quarantine": "quarantin",
    "quarantinelife": "quarantinelif", "school": "school",
    "schoolclosures": "schoolclosur", "schools": "school",
    "schoolsclosed": "schoolsclos", "shelter": "shelter",
    "shelterinplace": "shelterinplac", "stay": "stai", "stayhome": "stayhom",
    "stockpiling": "stockpil", "the": "the", "this": "thi", "through": "through",
    "together": "togeth", "we": "we", "wewillgetthroughthis": "wewillgetthroughthi",
    "will": "will",
}

POSITIVE = ("love", "amazing", "wonderful", "great", "good", "happy", "hopeful",
            "thanks", "calm", "proud", "brave", "relief")
NEGATIVE = ("bad", "sad", "worried", "angry", "afraid", "sick", "tired", "bored",
            "scared", "awful", "terrible", "horrible", "worst", "nightmare")
# probability that a valence word of a categorized tweet is positive
_POSITIVE_SHARE = (0.35, 0.45, 0.2, 0.4, 0.3, 0.7)

NOISE_TAGS = ("#news", "#breaking", "#update")
COMMON_VERBS = ("get", "need", "make", "see", "want", "keep", "find", "take")
NOUNS = ("mask", "family", "store", "week", "neighbor", "job", "government",
         "hospital", "kid", "parent", "friend", "street", "city", "rule",
         "doctor", "test", "home", "bill", "food", "worker")
PROPER = ("cdc", "nhs", "who")
PREPOSITIONS = ("in", "at", "for", "during")

_CLUSTERS = ("bl", "br", "dr", "fl", "fr", "gl", "gr", "kl", "kr", "pl", "pr",
             "sk", "sl", "sn", "sp", "st", "tr", "tw", "vr", "zl")
_VOWELS = "aeiou"
_CONSONANTS = "bdfgklmnprstvz"
_SUFFIXES = ("", "", "", "s", "s", "ing", "ed", "er", "ers", "ly", "ness",
             "ment", "ation", "ful", "able", "ize", "ity")

_START = date(2020, 3, 1)
_OFFSETS = ("+05:30", "-04:00", "+09:00")

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "tagtopics" / "data"


@dataclass(frozen=True)
class Size:
    tweets: int
    words: int  # vocabulary words per tweet (on average, for covid_tweets)
    vocabulary: int
    iters: int | None  # None: the program's default sweep count
    days: int


# Sizes per workload; "smoke" is the tiny mode that runs every check in
# seconds.
SIZES = {
    "covid_tweets": {"full": Size(8000, 13, 50000, 30, 45),
                     "smoke": Size(400, 13, 1500, 5, 10)},
    "planted_topics": {"full": Size(2000, 30, 600, None, 30),
                       "smoke": Size(300, 15, 200, 50, 10)},
    "no_compiler": {"full": Size(1000, 15, 400, 150, 20),
                    "smoke": Size(200, 15, 150, 20, 10)},
}


@dataclass
class Tree:
    tweet_id: str
    verb: str
    nouns: list[str]  # lemmas of the nouns the verb governs, in tree order
    rows: list[tuple[int, str, str, str, int, str]]


@dataclass
class Truth:
    """What the generator decided while writing the inputs."""

    categories: tuple[str, ...]
    cats: dict[str, list[str]]  # tweet id -> its categories, taxonomy order
    days: dict[str, date]  # tweet id -> UTC day
    valence: dict[str, list[float]]  # tweet id -> planted valences, text order
    trees: list[Tree]
    planted: dict[str, str] = field(default_factory=dict)  # tweet id -> topic


def _read_lexicon() -> dict[str, float]:
    with open(DATA_DIR / "valence.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: float(row[1]) for row in rows[1:]}


def _read_stopwords() -> list[str]:
    with open(DATA_DIR / "stopwords.txt", encoding="utf-8") as fh:
        return sorted(w.strip() for w in fh if w.strip() and not w.startswith("#"))


def _pseudo_words(rng: np.random.Generator, count: int, suffixes: tuple[str, ...],
                  banned: set[str]) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < count:
        parts = [_CLUSTERS[rng.integers(len(_CLUSTERS))],
                 _VOWELS[rng.integers(5)], _CONSONANTS[rng.integers(14)]]
        if rng.random() < 0.6:
            parts += [_VOWELS[rng.integers(5)], _CONSONANTS[rng.integers(14)]]
        word = "".join(parts) + suffixes[rng.integers(len(suffixes))]
        if word not in banned:
            words[word] = None
    return list(words)


def _check_reserved(lexicon: dict[str, float], stopwords: list[str]) -> None:
    """Fail loudly if an edit to the word lists above breaks the properties
    the checks rely on."""
    reserved = [w for bigram, _, keywords in PLANTED.values()
                for w in (*bigram, *keywords)]
    for word in reserved:
        if word in lexicon or word in stopwords or word.startswith(_CLUSTERS):
            raise AssertionError(f"reserved word {word!r} clashes")
        if word in ECHO_STEMS or word[:4] in {w[:4] for w in reserved if w != word}:
            raise AssertionError(f"reserved word {word!r} clashes")
    for word in POSITIVE + NEGATIVE:
        if word not in lexicon or word in stopwords:
            raise AssertionError(f"valence word {word!r} is not usable")
    for tag in [t for tags in TAXONOMY.values() for t in tags] + list(NOISE_TAGS):
        body = "".join(c for c in tag[1:].casefold() if c.isalpha())
        if body in lexicon:
            raise AssertionError(f"hashtag {tag!r} is a lexicon word")


def _timestamp(rng: np.random.Generator, day: int) -> tuple[str, date]:
    """A creation time on day `day` of the span (UTC), sometimes written in
    another zone; returns the text and the UTC day it denotes."""
    moment = datetime(_START.year, _START.month, _START.day, tzinfo=timezone.utc)
    moment += timedelta(days=day, seconds=int(rng.integers(86400)))
    if rng.random() < 0.1:
        offset = _OFFSETS[rng.integers(len(_OFFSETS))]
        sign = 1 if offset[0] == "+" else -1
        shift = timedelta(hours=int(offset[1:3]), minutes=int(offset[4:6]))
        local = (moment + sign * shift).replace(tzinfo=None)
        return local.isoformat() + offset, moment.date()
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ"), moment.date()


def _tree(rng: np.random.Generator, tweet_id: str, verb: str) -> Tree:
    """subject VERB [det object] [prep pobj], the verb as root."""
    rows: list[tuple[int, str, str, str, int, str]] = []
    nouns: list[str] = []

    def noun() -> tuple[str, str]:
        if rng.random() < 0.15:
            return PROPER[rng.integers(len(PROPER))], "PROPN"
        return NOUNS[rng.integers(len(NOUNS))], "NOUN"

    if rng.random() < 0.5:
        lemma, pos = noun()
        rows.append((1, lemma.title(), lemma, pos, 2, "nsubj"))
        nouns.append(lemma)
    else:
        pron = ("we", "they")[rng.integers(2)]
        rows.append((1, pron.title(), pron, "PRON", 2, "nsubj"))
    rows.append((2, verb, verb, "VERB", 0, "root"))
    if rng.random() < 0.7:
        lemma, pos = noun()
        rows.append((3, "the", "the", "DET", 4, "det"))
        rows.append((4, lemma + "s", lemma, pos, 2, "dobj"))
        nouns.append(lemma)
    if rng.random() < 0.4:
        lemma, pos = noun()
        prep = PREPOSITIONS[rng.integers(len(PREPOSITIONS))]
        at = len(rows) + 1
        rows.append((at, prep, prep, "ADP", 2, "prep"))
        rows.append((at + 1, lemma, lemma, pos, at, "pobj"))
        nouns.append(lemma)
    return Tree(tweet_id, verb, nouns, rows)


def _verb(rng: np.random.Generator, category: int, planted: bool) -> str:
    if planted:
        return PLANTED[CATEGORIES[category]][1]
    return COMMON_VERBS[rng.integers(len(COMMON_VERBS))]


def _write_parses(path: Path, trees: list[Tree]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(f"# tweet_id = {tree.tweet_id}\n")
            for row in tree.rows:
                fh.write("\t".join(str(c) for c in row) + "\n")
            fh.write("\n")


def _write_inputs(out: Path, records: list[dict], seeds: dict[str, list[str]],
                  trees: list[Tree]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    (out / "taxonomy.json").write_text(json.dumps(TAXONOMY, indent=1), encoding="utf-8")
    (out / "seeds.json").write_text(json.dumps(seeds, indent=1), encoding="utf-8")
    _write_parses(out / "parses.conllu", trees)


def _decorate(rng, words: list[str], stopwords: list[str]) -> list[str]:
    """Mix stopwords, an @-mention and a URL into a word list; none of them
    survive normalization."""
    words = list(words)
    for _ in range(int(rng.integers(2, 5))):
        words.insert(int(rng.integers(len(words) + 1)), stopwords[rng.integers(len(stopwords))])
    if rng.random() < 0.3:
        words.insert(0, f"@user{int(rng.integers(5000))}")
    if rng.random() < 0.2:
        words.append(f"https://t.co/{int(rng.integers(10**9)):x}")
    if words and rng.random() < 0.5:
        words[0] = words[0].capitalize()
    return words


def _valence_words(rng, share_positive: float, rate: float) -> list[str]:
    if rng.random() >= rate:
        return []
    picked = []
    for _ in range(int(rng.integers(1, 3))):
        pool = POSITIVE if rng.random() < share_positive else NEGATIVE
        picked.append(pool[rng.integers(len(pool))])
    return picked


def covid_tweets(out: Path, seed: int, size: Size) -> Truth:
    """A corpus shaped like the paper's: six categories, multi-category and
    uncategorized tweets, a Zipf vocabulary with English suffixes, planted
    bigrams, valence words and verbs, parses for a share of the tweets."""
    rng = np.random.default_rng(seed)
    lexicon, stopwords = _read_lexicon(), _read_stopwords()
    _check_reserved(lexicon, stopwords)
    vocab = _pseudo_words(rng, size.vocabulary, _SUFFIXES, set(lexicon) | set(stopwords))
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    zipf = ranks ** -1.0
    zipf /= zipf.sum()
    # categories drift in popularity over the span, as in the paper's trends
    phase = rng.random(len(CATEGORIES)) * np.pi

    truth = Truth(CATEGORIES, {}, {}, {}, [])
    records = []
    bigram_turn = [0] * len(CATEGORIES)
    parse_turn = [0] * len(CATEGORIES)
    draws = rng.choice(len(vocab), size=size.tweets * (size.words + 4), p=zipf)
    cursor = 0
    for i in range(size.tweets):
        tid = f"c{i:06d}"
        day = int(rng.integers(size.days))
        created, utc_day = _timestamp(rng, day)
        roll = rng.random()
        weights = 1.2 + np.sin(phase + day / size.days * np.pi)
        primary = int(rng.choice(len(CATEGORIES), p=weights / weights.sum()))
        if roll < 0.08:
            cats: list[int] = []
        elif roll < 0.2:
            other = (primary + 1 + int(rng.integers(len(CATEGORIES) - 1))) % len(CATEGORIES)
            cats = sorted((primary, other))
        else:
            cats = [primary]
        n_words = int(rng.integers(size.words - 4, size.words + 5))
        words = [vocab[j] for j in draws[cursor:cursor + n_words]]
        cursor += n_words
        if cats:
            _, _, keywords = PLANTED[CATEGORIES[primary]]
            for _ in range(int(rng.integers(0, 3))):
                words.insert(int(rng.integers(len(words) + 1)),
                             keywords[rng.integers(len(keywords))])
        if len(cats) == 1:
            bigram_turn[primary] += 1
            if bigram_turn[primary] % 3 == 1:
                at = int(rng.integers(len(words) + 1))
                words[at:at] = list(PLANTED[CATEGORIES[primary]][0])
        share = _POSITIVE_SHARE[primary] if cats else 0.5
        valence = _valence_words(rng, share, 0.6)
        words.extend(valence)
        tags = [TAXONOMY[CATEGORIES[c]][rng.integers(len(TAXONOMY[CATEGORIES[c]]))]
                for c in cats]
        if rng.random() < 0.1:
            tags.append(NOISE_TAGS[rng.integers(len(NOISE_TAGS))])
        text = " ".join(_decorate(rng, words, stopwords) + tags)
        records.append({"id": tid, "created_at": created, "text": text})
        truth.cats[tid] = [CATEGORIES[c] for c in cats]
        truth.days[tid] = utc_day
        truth.valence[tid] = [lexicon[w] for w in valence]
        if len(cats) == 1:
            # every third single-category tweet is parsed, and every other
            # parse uses the category's planted verb, so even a tiny corpus
            # has one per category
            parse_turn[primary] += 1
            parsed = parse_turn[primary] % 3 == 1
            planted_verb = parse_turn[primary] % 6 == 1
        else:
            parsed, planted_verb = rng.random() < 0.3, False
        if parsed:
            truth.trees.append(_tree(rng, tid, _verb(rng, primary, planted_verb)))
            if rng.random() < 0.1:  # a second sentence
                truth.trees.append(_tree(rng, tid, _verb(rng, primary, False)))

    seeds = {name: [*PLANTED[name][2], *PLANTED[name][0]] for name in CATEGORIES}
    _write_inputs(out, records, seeds, truth.trees)
    return truth


def planted_topics(out: Path, seed: int, size: Size) -> Truth:
    """Tweets drawn from planted topic-word distributions over alphabetic
    pseudo-words, one topic and exactly one category hashtag per tweet."""
    rng = np.random.default_rng(seed)
    lexicon, stopwords = _read_lexicon(), _read_stopwords()
    _check_reserved(lexicon, stopwords)
    vocab = _pseudo_words(rng, size.vocabulary, ("",), set(lexicon) | set(stopwords))
    k = len(CATEGORIES)
    topic_words = rng.dirichlet(np.full(len(vocab), 0.1), size=k)

    seeds: dict[str, list[str]] = {}
    used: set[int] = set()
    for t, name in enumerate(CATEGORIES):
        chosen = [int(w) for w in np.argsort(-topic_words[t]) if int(w) not in used][:4]
        used.update(chosen)
        seeds[name] = [vocab[w] for w in chosen]

    truth = Truth(CATEGORIES, {}, {}, {}, [])
    records = []
    bigram_turn = [0] * k
    for i in range(size.tweets):
        tid = f"p{i:05d}"
        topic = i % k
        name = CATEGORIES[topic]
        created, utc_day = _timestamp(rng, int(rng.integers(size.days)))
        words = [vocab[w] for w in rng.choice(len(vocab), size=size.words, p=topic_words[topic])]
        bigram_turn[topic] += 1
        if bigram_turn[topic] % 3 == 1:
            at = int(rng.integers(len(words) + 1))
            words[at:at] = list(PLANTED[name][0])
        valence = _valence_words(rng, _POSITIVE_SHARE[topic], 0.3)
        words.extend(valence)
        tag = TAXONOMY[name][0]
        records.append({"id": tid, "created_at": created,
                        "text": " ".join(_decorate(rng, words, stopwords) + [tag])})
        truth.cats[tid] = [name]
        truth.days[tid] = utc_day
        truth.valence[tid] = [lexicon[w] for w in valence]
        truth.planted[tid] = name
        if i // k % 6 == 0:
            truth.trees.append(_tree(rng, tid, _verb(rng, topic, i // k % 12 == 0)))
    _write_inputs(out, records, seeds, truth.trees)
    return truth


GENERATORS = {
    "covid_tweets": covid_tweets,
    "planted_topics": planted_topics,
    "no_compiler": planted_topics,
}


def generate(workload: str, out: Path, seed: int, smoke: bool = False) -> Truth:
    size = SIZES[workload]["smoke" if smoke else "full"]
    return GENERATORS[workload](out, seed, size)
