"""Suffix-stripping stemmer for English.

Implements the Porter algorithm in its canonical frozen form, which differs
from the 1980 write-up in three ways: words of length <= 2 pass through
unchanged, step 2 rewrites the ending "bli" to "ble" (not "abli" to "able"),
and step 2 gains the rule "logi" to "log".

The letter tests are table-driven: one ``str.translate`` spells a word as
its consonant/vowel pattern ("c"/"v"), so the measure m is the count of "vc"
in the pattern. Steps 2-4 take the suffixes that end in the word's last
letter and look its ending up in one dict per suffix length, longest
first. :func:`stem` is a plain function with no cache; the tokenizer
(:mod:`tagtopics.textprep`) keeps one word memo, which stems each distinct
word once.
"""

from __future__ import annotations

_VOWELS = "aeiou"


class _LetterClasses(dict):
    """A ``str.translate`` table: a vowel to "v", "y" to itself (resolved by
    :func:`_pattern`), and every other character to "c"."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _LetterClasses(dict.fromkeys(range(128), "c"))
_CLASSES.update({ord(v): "v" for v in _VOWELS})
_CLASSES[ord("y")] = "y"


def _pattern(word: str) -> str:
    """`word` spelled as "c" for each consonant and "v" for each vowel."""
    pattern = word.translate(_CLASSES)
    if "y" in pattern:
        # y is a consonant at the start or after a vowel ("toy"), a vowel
        # after a consonant ("syzygy"); each pass settles the first
        # unsettled y of every run of them
        if pattern[0] == "y":
            pattern = "c" + pattern[1:]
        while "y" in pattern:
            pattern = pattern.replace("vy", "vc").replace("cy", "cv")
    return pattern


def _measure(stem: str) -> int:
    """The m of [C](VC)^m[V]: number of vowel-to-consonant alternations."""
    return _pattern(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _pattern(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return _pattern(word).endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stripped = False
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        stripped = True
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        stripped = True
    if stripped:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word):
            # undouble unless the letter is l, s or z
            if word[-1] not in "lsz":
                return word[:-1]
            return word
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs in the canonical order. Where one suffix ends
# another (ational/tional, ization/ation, ement/ment/ent), the longer comes
# first, so trying suffixes longest first finds the rule the ordered list
# would find.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _suffix_table(rules) -> dict[str, tuple[tuple[int, dict[str, str]], ...]]:
    """Per last letter of a suffix: (length, {suffix: replacement}) per
    suffix length, longest first."""
    table: dict[str, dict[int, dict[str, str]]] = {}
    for suffix, repl in rules:
        table.setdefault(suffix[-1], {}).setdefault(len(suffix), {})[suffix] = repl
    return {last: tuple(sorted(by_len.items(), reverse=True)) for last, by_len in table.items()}


_STEP2_TABLE = _suffix_table(_STEP2_RULES)
_STEP3_TABLE = _suffix_table(_STEP3_RULES)
_STEP4_TABLE = _suffix_table((suffix, "") for suffix in _STEP4_SUFFIXES)


def _replace_suffix(word: str, table, min_measure: int) -> str:
    """The first rule of `table` whose suffix ends `word`, applied when the
    stem left before it has measure above `min_measure`."""
    for length, rules in table.get(word[-1:], ()):
        suffix = word[-length:]
        repl = rules.get(suffix)
        if repl is None:
            continue
        stem = word[:-length]
        if suffix == "ion" and not stem.endswith(("s", "t")):
            # step 4's "ion" only strips after s or t; no other suffix ends
            # in n, so the word is left as it is
            return word
        return stem + repl if _measure(stem) > min_measure else word
    return word


def _step2(word: str) -> str:
    return _replace_suffix(word, _STEP2_TABLE, 0)


def _step3(word: str) -> str:
    return _replace_suffix(word, _STEP3_TABLE, 0)


def _step4(word: str) -> str:
    return _replace_suffix(word, _STEP4_TABLE, 1)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a single lowercase word. Words of length <= 2 are returned
    unchanged. Uppercase input is lowered first."""
    word = word.lower()
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
