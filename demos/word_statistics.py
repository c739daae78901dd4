"""
Common words, distinctive words, and collocations
=================================================

Takes three little themed corpora through normalization and the lexical
statistics layer: shared vocabulary across groups, vocabulary distinctive to
one group, and chi-square scored bigram collocations.
"""

from tagtopics import (
    NormalizationConfig,
    TokenizedDoc,
    bigram_collocations,
    build_lexicon,
    common_words,
    default_stopwords,
    distinctive_words,
    normalize,
)

TEXTS = {
    "Coffee": [
        "The new espresso machine pulls a beautiful shot every morning",
        "Morning espresso ritual: grind the beans, pull the shot, breathe",
        "Cold brew beans arrived, the grinder is earning its keep",
        "Latte art class tonight, bring your own steamed milk confidence",
    ],
    "Cycling": [
        "Morning ride up the ridge road before the heat arrives",
        "New chain, new cassette, the bike finally shifts like silk",
        "Climbing the ridge road again, legs are filing complaints",
        "Group ride Saturday, coffee stop halfway as tradition demands",
    ],
    "Gardening": [
        "Tomato seedlings are finally in the raised beds",
        "Morning watering round, the tomato rows look thirsty",
        "Compost turned, beds weeded, seedlings hardened off",
        "The raised beds drain well after all that digging",
    ],
}

# Normalize with the packaged stopword list and Porter stemming on, so
# "beans"/"beds"/"rides" collapse with their singulars.
config = NormalizationConfig(stopwords=default_stopwords(), stem=True)
lexicons = []
for name, texts in TEXTS.items():
    docs = [
        TokenizedDoc(f"{name}-{i}", tuple(normalize(text, config)))
        for i, text in enumerate(texts)
    ]
    lexicons.append(build_lexicon(docs, category=name))
    print(f"{name}: {sum(lexicons[-1].unigram_counts.values())} tokens after normalization")

# Words used by at least two of the three groups, ranked by how many groups
# share them and then by total frequency.
print("\nshared vocabulary (2+ groups)")
common = common_words(lexicons, min_groups=2, n=5)
for token, group_count, freq in common:
    print(f"  {token:10s} groups={group_count} total={freq}")

# Distinctive words are the most frequent leftovers once the shared ones are
# removed; they read like a summary of each theme.
common_tokens = [token for token, _, _ in common]
print("\ndistinctive vocabulary")
for lex in lexicons:
    distinct = distinctive_words(lex, common_tokens, n=4)
    listing = ", ".join(f"{t}({c})" for t, c in distinct)
    print(f"  {lex.category:10s} {listing}")

# Bigram collocations score adjacent token pairs against independence with a
# 2x2 chi-square. "ridg road" dominates Cycling because the pair repeats
# while both words are rare elsewhere in the group.
print("\ntop collocations per group")
for lex in lexicons:
    stats = bigram_collocations(lex, min_count=2, n=3)
    for stat in stats:
        pair = " ".join(stat.bigram)
        print(f"  {lex.category:10s} {pair:18s} chi2={stat.chi2:8.3f} "
              f"n11={stat.observed[0][0]}")
