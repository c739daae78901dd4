"""Seeded topic modeling by collapsed Gibbs sampling, with classification
and evaluation.

Each category contributes one seeded topic whose seed words get extra prior
mass mu on top of the symmetric beta; a configurable number of unseeded
topics absorbs everything else. Training is single-threaded and fully
deterministic for a given rng seed: initialization draws and one uniform per
token per sweep all come from the same PCG64 stream, in document order.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._gibbs import run_sweep
from .corpus import category_order
from .errors import DataError, read_json, read_string_lists
from .textprep import TokenizedDoc

logger = logging.getLogger(__name__)

UNASSIGNED = "unassigned"

DEFAULT_ALPHA = 0.01
DEFAULT_BETA = 0.0001
DEFAULT_MU = 0.5
DEFAULT_ITERATIONS = 2000
DEFAULT_UNSEEDED = 2

_FORMAT = "tagtopics-lda"
_FORMAT_VERSION = 2  # version 1 also stored n_dt, n_tw and n_t
_SEPARATORS = (",", ":")
_SAVE_ITEMS = 8192  # JSON values (strings, ids, id lists) per piece save_model writes


@dataclass(frozen=True)
class SeedSpec:
    """Ordered seeded topics as (category name, seed word set) pairs, plus
    the number of trailing unseeded topics."""

    seeded: tuple[tuple[str, frozenset[str]], ...]
    unseeded: int = DEFAULT_UNSEEDED

    def __post_init__(self) -> None:
        names = [name for name, _ in self.seeded]
        if len(names) != len(set(names)):
            raise ValueError("seeded topic names must be unique")
        for name, words in self.seeded:
            if not words:
                raise ValueError(f"seed set for {name!r} is empty")
        if self.unseeded < 0:
            raise ValueError("unseeded topic count must be non-negative")
        if not self.seeded and self.unseeded == 0:
            raise ValueError("need at least one topic")

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Iterable[str]], unseeded: int = DEFAULT_UNSEEDED
    ) -> "SeedSpec":
        seeded = tuple(
            (str(name), frozenset(str(w).casefold() for w in words))
            for name, words in mapping.items()
        )
        return cls(seeded=seeded, unseeded=unseeded)

    @classmethod
    def from_json_file(cls, path, unseeded: int = DEFAULT_UNSEEDED) -> "SeedSpec":
        return cls.from_mapping(read_string_lists(path, "seed"), unseeded=unseeded)


@dataclass
class SeededLdaModel:
    vocabulary: tuple[str, ...]  # word id -> token
    doc_ids: tuple[str, ...]
    dropped_doc_ids: tuple[str, ...]
    categories: tuple[str, ...]  # seeded topic index -> category name
    num_unseeded: int
    alpha: float
    beta: float
    mu: float
    iterations: int
    rng_seed: int
    seed_word_ids: tuple[tuple[int, ...], ...]  # per seeded topic, sorted
    doc_words: tuple[np.ndarray, ...]  # per doc, word ids (int32)
    assignments: tuple[np.ndarray, ...]  # per doc, topic of each token (int32)
    # counted from doc_words and assignments; the sampler updates them in place
    n_dt: np.ndarray = field(init=False, repr=False)  # (D, K) int64
    n_tw: np.ndarray = field(init=False, repr=False)  # (V, K) int64
    n_t: np.ndarray = field(init=False, repr=False)  # (K,) int64

    def __post_init__(self) -> None:
        """Check the model's facts and count its tables from them; raises
        ValueError naming the first malformed fact."""
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be positive and finite")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be non-negative and finite")
        if self.iterations < 0 or self.num_unseeded < 0:
            raise ValueError("iterations and num_unseeded must be non-negative")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc_ids holds a duplicate id")
        if len(self.seed_word_ids) != self.num_seeded:
            raise ValueError("seed_word_ids needs exactly one list per category")
        for ids in self.seed_word_ids:
            if list(ids) != sorted(set(ids)) or not all(0 <= w < self.vocab_size for w in ids):
                raise ValueError("seed ids must be sorted, distinct and in [0, V)")
        self.n_dt, self.n_tw, self.n_t = self._count_tables()

    @property
    def num_seeded(self) -> int:
        return len(self.categories)

    @property
    def num_topics(self) -> int:
        return self.num_seeded + self.num_unseeded

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def _count_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n_dt (D, K), n_tw (V, K) and n_t (K,), int64, counted from
        doc_words and assignments: the only code that builds count tables.
        Raises ValueError if there are no documents, doc_ids, doc_words and
        assignments disagree in length, or an id is outside [0, V) or [0, K),
        where bincount would count it into another cell."""
        lengths = [len(w) for w in self.doc_words]
        if (not lengths or len(self.doc_ids) != len(lengths)
                or [len(z) for z in self.assignments] != lengths):
            raise ValueError("doc_ids, doc_words and assignments disagree in length")
        words = np.concatenate(self.doc_words)
        topics = np.concatenate(self.assignments)
        d, v, k = len(lengths), self.vocab_size, self.num_topics
        for name, ids, bound in (("word", words, v), ("topic", topics, k)):
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise ValueError(f"{name} id outside [0, {bound})")
        docs = np.repeat(np.arange(d, dtype=np.int64), lengths)
        n_dt = np.bincount(docs * k + topics, minlength=d * k).reshape(d, k)
        n_tw = np.bincount(words.astype(np.int64) * k + topics, minlength=v * k)
        return n_dt, n_tw.reshape(v, k), np.bincount(topics, minlength=k)

    def check_counts(self) -> None:
        """Verify that n_dt, n_tw and n_t, which the sampler updates in
        place, still equal the tables counted from the assignments. Raises
        AssertionError if one does not, ValueError if ids or lengths are bad."""
        for name, table in zip(("n_dt", "n_tw", "n_t"), self._count_tables()):
            if not np.array_equal(getattr(self, name), table):
                raise AssertionError(f"{name} disagrees with the assignments")

    def word_prior(self) -> tuple[np.ndarray, np.ndarray]:
        """B and Bsum: B[w, t] = beta + mu if w seeds topic t else beta;
        Bsum[t] = V * beta + mu * |in-vocabulary seeds of t|."""
        v, k = self.vocab_size, self.num_topics
        prior = np.full((v, k), self.beta, dtype=np.float64)
        total = np.full(k, v * self.beta, dtype=np.float64)
        for t, ids in enumerate(self.seed_word_ids):
            for w in ids:
                prior[w, t] += self.mu
            total[t] += self.mu * len(ids)
        return prior, total


def topic_weights(
    doc_topic_counts: np.ndarray,
    word_topic_counts: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    word_prior: np.ndarray,
    prior_total: np.ndarray,
) -> np.ndarray:
    """Unnormalized conditional weights for one token, given counts with the
    token already removed. Reference form of the kernel's inner loop."""
    return (
        (doc_topic_counts + alpha)
        * (word_topic_counts + word_prior)
        / (topic_totals + prior_total)
    )


def train(
    docs: Sequence[TokenizedDoc],
    seeds: SeedSpec,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    mu: float = DEFAULT_MU,
    iterations: int = DEFAULT_ITERATIONS,
    rng_seed: int = 0,
) -> SeededLdaModel:
    """Run collapsed Gibbs sampling and return the trained model.

    Empty documents are dropped (and recorded on the model); seed words
    missing from the corpus vocabulary are warned about and ignored. Bad
    hyperparameters raise ValueError. The count tables are verified against
    the assignments after the final sweep.
    """
    kept = [d for d in docs if d.tokens]
    dropped = tuple(d.tweet_id for d in docs if not d.tokens)
    if dropped:
        logger.warning("dropped %d empty documents", len(dropped))
    if not kept:
        raise DataError("corpus has no non-empty documents")

    vocab_index: dict[str, int] = {}
    for doc in kept:
        for token in doc.tokens:
            if token not in vocab_index:
                vocab_index[token] = len(vocab_index)
    vocabulary = tuple(vocab_index)

    categories = tuple(name for name, _ in seeds.seeded)
    k = len(categories) + seeds.unseeded
    seed_word_ids: list[tuple[int, ...]] = []
    for name, words in seeds.seeded:
        ids = sorted(vocab_index[w] for w in words if w in vocab_index)
        missing = sorted(w for w in words if w not in vocab_index)
        if missing:
            logger.warning(
                "seed words for %r missing from vocabulary: %s", name, ", ".join(missing)
            )
        seed_word_ids.append(tuple(ids))

    # the topics a word's tokens start in: choices[first[w]:first[w] + n_choices[w]],
    # the topics it seeds, or all K topics if it seeds none
    seeded_by: dict[int, list[int]] = {}
    for t, ids in enumerate(seed_word_ids):
        for w in ids:
            seeded_by.setdefault(w, []).append(t)
    choices = list(range(k))
    first = np.zeros(len(vocabulary), dtype=np.int64)
    n_choices = np.full(len(vocabulary), k, dtype=np.int64)
    for w, owners in seeded_by.items():
        first[w], n_choices[w] = len(choices), len(owners)
        choices.extend(owners)

    # one flat array of word ids and one of topics, which the kernel updates;
    # the model's per-document arrays are views of them
    lengths = [len(doc.tokens) for doc in kept]
    word_of = np.fromiter((vocab_index[t] for d in kept for t in d.tokens),
                          dtype=np.int32, count=sum(lengths))
    z_flat = np.empty(len(word_of), dtype=np.int32)
    doc_words, assignments = _per_doc(word_of, lengths), _per_doc(z_flat, lengths)
    rng = np.random.default_rng(rng_seed)
    # one uniform draw per token, in document order
    draw = rng.integers(n_choices[word_of])
    draw += first[word_of]
    np.take(np.array(choices, dtype=np.int32), draw, out=z_flat)

    model = SeededLdaModel(
        vocabulary=vocabulary,
        doc_ids=tuple(doc.tweet_id for doc in kept),
        dropped_doc_ids=dropped,
        categories=categories,
        num_unseeded=seeds.unseeded,
        alpha=alpha,
        beta=beta,
        mu=mu,
        iterations=iterations,
        rng_seed=rng_seed,
        seed_word_ids=tuple(seed_word_ids),
        doc_words=doc_words,
        assignments=assignments,
    )

    word_prior, prior_total = model.word_prior()
    doc_of = np.repeat(np.arange(len(kept), dtype=np.int32), lengths)
    u = np.empty(len(z_flat))  # each sweep's uniforms, drawn in place
    for _ in range(iterations):
        rng.random(out=u)
        run_sweep(z_flat, doc_of, word_of, model.n_dt, model.n_tw, model.n_t,
                  word_prior, prior_total, alpha, u)

    model.check_counts()
    return model


def _per_doc(flat: np.ndarray, lengths: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Consecutive views of `flat`, one per document of the given length."""
    return tuple(flat[a:b] for a, b in pairwise([0, *accumulate(lengths)]))


def doc_topic_distribution(model: SeededLdaModel, doc: int) -> np.ndarray:
    """theta for one document: (n_dt + alpha) / (len + K * alpha)."""
    if not 0 <= doc < len(model.doc_ids):
        raise IndexError(f"document index {doc} out of range")
    row = model.n_dt[doc]
    return (row + model.alpha) / (row.sum() + model.num_topics * model.alpha)


def classify(model: SeededLdaModel, doc: int, rng: np.random.Generator) -> str:
    """Dominant-topic label for a document: the category of the seeded topic
    with the highest count, `unassigned` if an unseeded topic wins. Exact
    count ties are broken uniformly with the supplied rng."""
    if not 0 <= doc < len(model.doc_ids):
        raise IndexError(f"document index {doc} out of range")
    row = model.n_dt[doc]
    tied = np.flatnonzero(row == row.max())
    topic = int(tied[0]) if len(tied) == 1 else int(tied[rng.integers(len(tied))])
    if topic < model.num_seeded:
        return model.categories[topic]
    return UNASSIGNED


def classify_all(model: SeededLdaModel, rng: np.random.Generator) -> dict[str, str]:
    """Labels for every document, in training order."""
    return {
        doc_id: classify(model, d, rng) for d, doc_id in enumerate(model.doc_ids)
    }


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvaluationReport:
    labels: tuple[str, ...]  # sorted union of gold and predicted labels
    matrix: tuple[tuple[int, ...], ...]  # rows gold, columns predicted
    accuracy: float
    per_class: Mapping[str, ClassMetrics]
    gold_classes: tuple[str, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [list(row) for row in self.matrix],
            "accuracy": self.accuracy,
            "per_class": {
                name: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                for name, m in self.per_class.items()
            },
            "gold_classes": list(self.gold_classes),
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "micro": {
                "precision": self.micro_precision,
                "recall": self.micro_recall,
                "f1": self.micro_f1,
            },
        }


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


def evaluate(
    predictions: Mapping[str, str], gold: Mapping[str, str]
) -> EvaluationReport:
    """Confusion matrix and metrics over identical key sets. Macro averages
    run over the classes present in the gold labels (so a predicted-only
    label such as `unassigned` gets a matrix column but no vote in the
    averages); micro averages pool counts over the same classes."""
    if predictions.keys() != gold.keys():
        only_p = len(predictions.keys() - gold.keys())
        only_g = len(gold.keys() - predictions.keys())
        raise DataError(
            f"prediction and gold key sets differ ({only_p} prediction-only, "
            f"{only_g} gold-only)"
        )
    if not gold:
        raise DataError("nothing to evaluate: empty key set")

    labels = tuple(sorted(set(gold.values()) | set(predictions.values())))
    index = {name: i for i, name in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for key, g in gold.items():
        counts[index[g]][index[predictions[key]]] += 1

    total = len(gold)
    correct = sum(counts[i][i] for i in range(len(labels)))
    accuracy = correct / total

    per_class: dict[str, ClassMetrics] = {}
    for name in labels:
        i = index[name]
        tp = counts[i][i]
        fp = sum(counts[j][i] for j in range(len(labels))) - tp
        fn = sum(counts[i]) - tp
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[name] = ClassMetrics(precision, recall, f1)

    gold_classes = tuple(sorted(set(gold.values())))
    macro_p = sum(per_class[c].precision for c in gold_classes) / len(gold_classes)
    macro_r = sum(per_class[c].recall for c in gold_classes) / len(gold_classes)
    macro_f = sum(per_class[c].f1 for c in gold_classes) / len(gold_classes)

    tp_sum = sum(counts[index[c]][index[c]] for c in gold_classes)
    fp_sum = sum(
        sum(counts[j][index[c]] for j in range(len(labels))) - counts[index[c]][index[c]]
        for c in gold_classes
    )
    fn_sum = sum(
        sum(counts[index[c]]) - counts[index[c]][index[c]] for c in gold_classes
    )
    micro_p = _safe_div(tp_sum, tp_sum + fp_sum)
    micro_r = _safe_div(tp_sum, tp_sum + fn_sum)
    micro_f = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0

    return EvaluationReport(
        labels=labels,
        matrix=tuple(tuple(row) for row in counts),
        accuracy=accuracy,
        per_class=per_class,
        gold_classes=gold_classes,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f,
    )


def derive_gold(
    membership: Mapping[str, Iterable[str]],
    policy: str = "rarest",
    categories: Sequence[str] | None = None,
) -> dict[str, str]:
    """Collapse multi-category membership to one gold label per tweet.

    Policies: `rarest` picks the member category with the fewest member
    tweets in this corpus (ties by taxonomy order), `priority` picks the
    member category earliest in taxonomy order, `exclude_multi` drops tweets
    with more than one category. Tweets with no category are always dropped.
    Taxonomy order is :func:`corpus.category_order` of `categories`.
    """
    if policy not in ("rarest", "priority", "exclude_multi"):
        raise ValueError(f"unknown gold policy: {policy!r}")
    order = category_order(membership, categories)
    rank = {name: i for i, name in enumerate(order)}

    sizes: dict[str, int] = {name: 0 for name in order}
    for cats in membership.values():
        for cat in cats:
            sizes[cat] += 1

    gold: dict[str, str] = {}
    for tweet_id, cats in membership.items():
        members = sorted(cats, key=lambda c: rank[c])
        if not members:
            continue
        if policy == "exclude_multi":
            if len(members) == 1:
                gold[tweet_id] = members[0]
            continue
        if policy == "priority":
            gold[tweet_id] = members[0]
            continue
        gold[tweet_id] = min(members, key=lambda c: (sizes[c], rank[c]))
    return gold


def save_model(model: SeededLdaModel, path) -> None:
    """Write the model as deterministic JSON (format version 2):
    hyperparameters, vocabulary, seed ids, document ids, and per-document
    word ids and topic assignments. The count tables are not stored:
    :func:`load_model` counts them from the assignments. The bytes are one
    compact ``json.dumps`` of the whole payload plus a newline, but every
    list, last in the payload, is encoded a few thousand items (strings or
    ids) at a time, so no list that grows with the corpus is held whole as
    encoder input or as text."""
    head = {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        "alpha": model.alpha,
        "beta": model.beta,
        "mu": model.mu,
        "iterations": model.iterations,
        "rng_seed": model.rng_seed,
        "categories": list(model.categories),
        "num_unseeded": model.num_unseeded,
    }
    lists = (
        ("vocabulary", model.vocabulary),
        ("seed_word_ids", model.seed_word_ids),
        ("doc_ids", model.doc_ids),
        ("dropped_doc_ids", model.dropped_doc_ids),
        ("doc_words", model.doc_words),
        ("assignments", model.assignments),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, separators=_SEPARATORS)[:-1])
        for key, items in lists:
            fh.write(f',"{key}":[')
            start = size = 0
            for end, item in enumerate(items, start=1):
                size += 1 if isinstance(item, str) else 1 + len(item)
                if size >= _SAVE_ITEMS or end == len(items):
                    piece = json.dumps(
                        [x.tolist() if isinstance(x, np.ndarray) else x
                         for x in items[start:end]],
                        separators=_SEPARATORS)
                    fh.writelines(("," if start else "", piece[1:-1]))
                    start, size = end, 0
            fh.write("]")
        fh.write("}\n")


def _field(payload: dict, key: str, kinds: tuple[type, ...], item: type | None = None):
    """payload[key], whose type must be exactly one of `kinds` (so JSON true
    is no int), and a list's items exactly of type `item`."""
    value = payload[key]
    if type(value) not in kinds or (item and not set(map(type, value)) <= {item}):
        raise TypeError(f"{key} has the wrong type")
    return value


def _id_lists(payload: dict, key: str) -> tuple[np.ndarray, ...]:
    """payload[key], a list of integer lists, as int32 views of one flat
    array. Ids beyond 32 bits are rejected rather than wrapped."""
    lists = _field(payload, key, (list,), list)
    flat = list(chain.from_iterable(lists))
    if not set(map(type, flat)) <= {int}:
        raise TypeError(f"{key} holds an id that is not an integer")
    if flat and (min(flat) < -2**31 or max(flat) >= 2**31):
        raise ValueError(f"{key} holds an id beyond 32 bits")
    return _per_doc(np.array(flat, dtype=np.int32), [len(x) for x in lists])


def load_model(path) -> SeededLdaModel:
    """Read a model written by :func:`save_model`. Every field is
    type-checked; the model then checks its ids and hyperparameters as it
    does for :func:`train` and counts its tables from the assignments.
    Version 1 files, which also stored the count tables, load only if those
    equal the counted ones. Any malformed file or payload raises DataError."""
    payload = read_json(path, "model")
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise DataError(f"{path}: not a {_FORMAT} model file")
    if payload.get("version") not in (1, _FORMAT_VERSION):
        raise DataError(f"{path}: unsupported model version {payload.get('version')!r}")
    try:
        fields = {key: tuple(_field(payload, key, (list,), str))
                  for key in ("vocabulary", "doc_ids", "dropped_doc_ids", "categories")}
        fields.update((key, _field(payload, key, (int,)))
                      for key in ("num_unseeded", "iterations", "rng_seed"))
        fields.update((key, float(_field(payload, key, (int, float))))
                      for key in ("alpha", "beta", "mu"))
        fields.update((key, _id_lists(payload, key)) for key in ("doc_words", "assignments"))
        seeds = _id_lists(payload, "seed_word_ids")
        model = SeededLdaModel(**fields, seed_word_ids=tuple(tuple(x.tolist()) for x in seeds))
        if payload["version"] == 1:  # n_tw was stored as sparse [word, topic, count]
            cells = np.argwhere(model.n_tw)
            stored = {"n_dt": model.n_dt.tolist(), "n_t": model.n_t.tolist(),
                      "n_tw": np.column_stack([cells, model.n_tw[tuple(cells.T)]]).tolist()}
            if any(payload.get(key) != table for key, table in stored.items()):
                raise ValueError("stored count tables disagree with the assignments")
    except KeyError as exc:
        raise DataError(f"{path}: model payload lacks {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt model payload: {exc}") from exc
    return model
