"""Suffix-stripping stemmer for English.

Implements the Porter algorithm in its canonical frozen form, which differs
from the 1980 write-up in three ways: words of length <= 2 pass through
unchanged, step 2 rewrites the ending "bli" to "ble" (not "abli" to "able"),
and step 2 gains the rule "logi" to "log".

:func:`stem` is memoized for the life of the process: it is a pure function
of its input, so a cached result is the result a fresh computation would
give. The cache holds one entry per distinct word stemmed, which a corpus's
vocabulary bounds; ``stem.__wrapped__`` is the uncached function.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start or after a vowel ("toy"), a vowel
        # after a consonant ("syzygy").
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The m of [C](VC)^m[V]: number of vowel-to-consonant alternations."""
    runs: list[str] = []
    for i in range(len(stem)):
        t = "c" if _is_consonant(stem, i) else "v"
        if not runs or runs[-1] != t:
            runs.append(t)
    return "".join(runs).count("vc")


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return (
        len(word) >= 3
        and _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


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


# (suffix, replacement) pairs; within each group sharing a penultimate letter
# the order matches the canonical switch, and groups never overlap because a
# word's penultimate letter picks exactly one group.
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


def _step2(word: str) -> str:
    for suffix, repl in _STEP2_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return word
    return word


def _step3(word: str) -> str:
    for suffix, repl in _STEP3_RULES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not (stem and stem[-1] in "st"):
                # "ion" only strips after s or t; nothing later can match a
                # word ending in n, so continuing mirrors the canonical
                # fall-through.
                continue
            if _measure(stem) > 1:
                return stem
            return word
    return word


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


@functools.cache
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
