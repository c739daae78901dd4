"""Artifact checks for the tagtopics benchmark.

Every check compares an artifact of the CLI against what the workload
generator decided (a :class:`workloads.Truth`) or against a property the
method must have. None of them reads a stored copy of an earlier output,
and none calls the program.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

from workloads import BIGRAM_STEMS, ECHO_STEMS, PLANTED, Truth

# the artifact each subcommand writes, in pipeline order
ARTIFACTS = {
    "trends": "trends.csv", "words": "words.csv", "bigrams": "bigrams.csv",
    "sentiment": "sentiment.csv", "verbs": "verbs.csv", "pairs": "pairs.csv",
    "topics-train": "model.json", "topics-classify": "assignments.csv",
    "topics-eval": "report.json", "report": "summary.json",
}
MIN_PLANTED_ACCURACY = 0.80  # the level acceptance criterion 1 requires


class CheckFailed(Exception):
    def __init__(self, artifact: str, message: str):
        super().__init__(f"{artifact}: {message}")
        self.artifact = artifact


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _expect(ok: bool, artifact: str, message: str) -> None:
    if not ok:
        raise CheckFailed(artifact, message)


def check_trends(out: Path, truth: Truth) -> None:
    """Daily per-category counts, zero-filled over the corpus span, equal the
    generator's own tally of the hashtags it chose."""
    counts: Counter = Counter()
    for tid, cats in truth.cats.items():
        for cat in cats or ["(uncategorized)"]:
            counts[cat, truth.days[tid]] += 1
    first, last = min(truth.days.values()), max(truth.days.values())
    span = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    expected = [["category", "date", "count"]] + [
        [cat, day.isoformat(), str(counts[cat, day])]
        for cat in [*truth.categories, "(uncategorized)"] for day in span
    ]
    got = _rows(out / "trends.csv")
    _expect(got == expected, "trends.csv",
            f"differs from the generator's tally ({len(got)} vs {len(expected)} rows)")


def _label(valences: list[float]) -> str:
    """Five-class label of a tweet from the mean of its planted valences,
    at the default thresholds 0.5 and 0.05."""
    m = sum(valences) / len(valences) if valences else 0.0
    if m >= 0.5:
        return "strongly_positive"
    if m >= 0.05:
        return "positive"
    if m > -0.05:
        return "neutral"
    if m > -0.5:
        return "negative"
    return "strongly_negative"


def check_sentiment(out: Path, truth: Truth) -> None:
    """Each category's four shares sum to 100 to within rounding, and equal
    the shares of the labels the planted valence words imply."""
    order = ("strongly_positive", "positive", "negative", "strongly_negative")
    counts = {cat: Counter() for cat in truth.categories}
    for tid, cats in truth.cats.items():
        label = _label(truth.valence[tid])
        for cat in cats:
            counts[cat][label] += 1
    expected = [["category", "label", "percentage"]]
    for cat in truth.categories:
        total = sum(counts[cat][label] for label in order)
        _expect(total > 0, "sentiment.csv", f"workload has no non-neutral tweet in {cat!r}")
        expected += [[cat, label, f"{float(Fraction(100 * counts[cat][label], total)):.6f}"]
                     for label in order]
    got = _rows(out / "sentiment.csv")
    for cat in truth.categories:
        shares = [float(row[2]) for row in got[1:] if row[0] == cat]
        _expect(len(shares) == 4 and abs(sum(shares) - 100.0) <= 4e-6, "sentiment.csv",
                f"shares of {cat!r} do not sum to 100: {shares}")
    _expect(got == expected, "sentiment.csv",
            "shares differ from those of the planted valence words")


def check_words(out: Path, truth: Truth) -> None:
    """No echo term (a category hashtag, one of its components, or a stem of
    either) is listed, and every category has its distinctive words."""
    banned = set(ECHO_STEMS) | set(ECHO_STEMS.values())
    rows = _rows(out / "words.csv")[1:]
    echoed = sorted({row[2] for row in rows if row[2] in banned})
    _expect(not echoed, "words.csv", f"echo terms listed: {echoed}")
    listed = {row[0] for row in rows}
    missing = [cat for cat in truth.categories if cat not in listed]
    _expect(not missing, "words.csv", f"no words for {missing}")


def check_bigrams(out: Path, truth: Truth) -> None:
    """The planted bigram ranks first in its category."""
    firsts = {row[0]: row[2] for row in _rows(out / "bigrams.csv")[1:] if row[1] == "1"}
    for cat in truth.categories:
        _expect(firsts.get(cat) == BIGRAM_STEMS[cat], "bigrams.csv",
                f"{cat!r} ranks {firsts.get(cat)!r} first, not {BIGRAM_STEMS[cat]!r}")


def check_verbs(out: Path, truth: Truth) -> None:
    """Each category's planted verb is among its distinctive verbs."""
    listed = {(row[0], row[2]) for row in _rows(out / "verbs.csv")[1:]}
    for cat in truth.categories:
        verb = PLANTED[cat][1]
        _expect((cat, verb) in listed, "verbs.csv", f"planted verb {verb!r} missing for {cat!r}")


def check_pairs(out: Path, truth: Truth) -> None:
    """Rows equal the generator's verb -> noun tallies: per category its five
    most frequent verbs (count, then lemma), each with the nouns it governs
    (count, then lemma)."""
    verbs = {cat: Counter() for cat in truth.categories}
    nouns = {cat: {} for cat in truth.categories}
    for tree in truth.trees:
        for cat in truth.cats[tree.tweet_id]:
            verbs[cat][tree.verb] += 1
            nouns[cat].setdefault(tree.verb, Counter()).update(tree.nouns)
    expected = [["category", "verb", "noun", "count"]]
    for cat in truth.categories:
        top = sorted(verbs[cat].items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        for verb, _ in top:
            ranked = sorted(nouns[cat][verb].items(), key=lambda kv: (-kv[1], kv[0]))
            expected += [[cat, verb, noun, str(n)] for noun, n in ranked]
    got = _rows(out / "pairs.csv")
    _expect(got == expected, "pairs.csv",
            f"differs from the generator's tallies ({len(got)} vs {len(expected)} rows)")


def check_model(out: Path, truth: Truth, iters: int) -> None:
    """The model covers every tweet (none normalizes to nothing here) and
    records the sweeps it was asked for."""
    with open(out / "model.json", encoding="utf-8") as fh:
        model = json.load(fh)
    _expect(len(model["doc_ids"]) == len(truth.cats) and not model["dropped_doc_ids"],
            "model.json", "does not hold every tweet")
    _expect(model["iterations"] == iters, "model.json",
            f"trained {model['iterations']} sweeps, not {iters}")


def _gold(truth: Truth) -> dict[str, str]:
    """One label per categorized tweet: its category with the fewest member
    tweets, ties by taxonomy order (the default `rarest` policy)."""
    sizes = Counter(cat for cats in truth.cats.values() for cat in cats)
    rank = {cat: i for i, cat in enumerate(truth.categories)}
    return {tid: min(cats, key=lambda c: (sizes[c], rank[c]))
            for tid, cats in truth.cats.items() if cats}


def check_assignments(out: Path, truth: Truth) -> None:
    """Every tweet gets a label; on planted workloads the labels match the
    planted topics at the level criterion 1 requires."""
    rows = _rows(out / "assignments.csv")
    _expect(rows[0] == ["id", "category"], "assignments.csv", "bad header")
    pred = dict(row for row in rows[1:])
    _expect(pred.keys() == truth.cats.keys(), "assignments.csv", "does not label every tweet")
    if truth.planted:
        correct = sum(pred[tid] == topic for tid, topic in truth.planted.items())
        accuracy = correct / len(truth.planted)
        _expect(accuracy >= MIN_PLANTED_ACCURACY, "assignments.csv",
                f"planted-topic accuracy {accuracy:.4f} < {MIN_PLANTED_ACCURACY}")


def check_report(out: Path, truth: Truth) -> None:
    """The reported accuracy equals the one recomputed from assignments.csv
    against gold labels derived from the generator's categories."""
    pred = dict(row for row in _rows(out / "assignments.csv")[1:])
    gold = _gold(truth)
    shared = pred.keys() & gold.keys()
    accuracy = sum(pred[tid] == gold[tid] for tid in shared) / len(shared)
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    _expect(report["evaluated"] == len(shared), "report.json",
            f"evaluated {report['evaluated']} documents, not {len(shared)}")
    _expect(report["accuracy"] == accuracy, "report.json",
            f"accuracy {report['accuracy']!r} != recomputed {accuracy!r}")


def check_summary(out: Path, truth: Truth) -> None:
    """Row counts and accuracy agree with the artifacts they summarize."""
    with open(out / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for name in ARTIFACTS.values():
        if name.endswith(".csv"):
            rows = len(_rows(out / name)) - 1
            _expect(summary.get(name) == {"rows": rows}, "summary.json",
                    f"{name} summary {summary.get(name)} != {rows} rows")
    with open(out / "report.json", encoding="utf-8") as fh:
        accuracy = json.load(fh)["accuracy"]
    _expect(summary["report.json"]["accuracy"] == accuracy, "summary.json",
            "accuracy differs from report.json")
    _expect(summary["model.json"]["documents"] == len(truth.cats), "summary.json",
            "model document count differs")


def run_checks(out: Path, truth: Truth, iters: int) -> list[CheckFailed]:
    """Run every check on one pipeline's output directory; returns the
    failures, at most one per artifact."""
    checks = [
        ("trends.csv", check_trends), ("words.csv", check_words),
        ("bigrams.csv", check_bigrams), ("sentiment.csv", check_sentiment),
        ("verbs.csv", check_verbs), ("pairs.csv", check_pairs),
        ("model.json", lambda o, t: check_model(o, t, iters)),
        ("assignments.csv", check_assignments), ("report.json", check_report),
        ("summary.json", check_summary),
    ]
    failures: list[CheckFailed] = []
    for artifact, check in checks:
        try:
            check(out, truth)
        except CheckFailed as exc:
            failures.append(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                ZeroDivisionError) as exc:
            failures.append(CheckFailed(artifact, f"unreadable: {exc!r}"))
    return failures
