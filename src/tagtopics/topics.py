"""Seeded topic modeling by collapsed Gibbs sampling, with classification
and evaluation.

Each category contributes one seeded topic whose seed words get extra prior
mass mu on top of the symmetric beta; a configurable number of unseeded
topics absorbs everything else. Training is single-threaded and fully
deterministic for a given rng seed: initialization draws and one uniform per
token per sweep all come from the same PCG64 stream, in document order.

A training's settings are one record, :class:`TrainSettings`, checked once
when built: :func:`train` takes it, the model keeps it, ``model.json`` stores it.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import asdict, astuple, dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._gibbs import SweepState, check_tokens, check_weights, count_tables, open_sampler, run_sweep
from .corpus import category_order
from .errors import DataError, read_json, read_string_lists
from .textprep import TokenizedDoc

logger = logging.getLogger(__name__)

UNASSIGNED = "unassigned"

DEFAULT_UNSEEDED = 2
MAX_TOPICS = 200  # the fallback sweep's source grows as K**2; checked before V x K tables

_FORMAT = "tagtopics-lda"
_FORMAT_VERSION = 3  # versions 1 and 2, which stored other layouts, are not read
_SEPARATORS = (",", ":")
_SAVE_ITEMS = 8192  # list items (strings, ids, id lists) per piece save_model writes


@dataclass(frozen=True)
class TrainSettings:
    """A training's settings, in ``model.json``'s key order. The priors alpha,
    beta (> 0) and mu (>= 0) are finite ints or floats, no bool, kept as
    floats; iterations and rng_seed are ints >= 0. Else TypeError or ValueError."""

    alpha: float = 0.01
    beta: float = 0.0001
    mu: float = 0.5
    iterations: int = 2000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, prior = getattr(self, f.name), f.type == "float"
            if type(value) is not int and not (prior and type(value) is float):
                raise TypeError(f"{f.name} has the wrong type")
            if prior:
                if not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
                    raise ValueError(f"{f.name} must be finite")
                object.__setattr__(self, f.name, float(value))
        for name in ("alpha", "beta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("mu", "iterations", "rng_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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
        if type(self.unseeded) is not int:  # so True and 1.0 are no count
            raise TypeError("unseeded topic count must be an int")
        if self.unseeded < 0:
            raise ValueError("unseeded topic count must be non-negative")
        if not 0 < len(self.seeded) + self.unseeded <= MAX_TOPICS:
            raise ValueError(f"need 1 to {MAX_TOPICS} topics")

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
        try:
            return cls.from_mapping(read_string_lists(path, "seed"), unseeded=unseeded)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


@dataclass
class SeededLdaModel:
    """A seeded topic model over flat token arrays: document d, in doc_ids
    order, holds tokens offsets[d] up to offsets[d + 1] of word_of and z;
    the read-only n_dt, n_tw and n_t are counted from them on each read."""

    vocabulary: tuple[str, ...]  # word id -> token
    doc_ids: tuple[str, ...]
    dropped_doc_ids: tuple[str, ...]
    categories: tuple[str, ...]  # seeded topic index -> category name
    num_unseeded: int
    settings: TrainSettings
    seed_word_ids: tuple[tuple[int, ...], ...]  # per seeded topic, sorted
    word_of: np.ndarray  # (N,) int32, word id of each token
    z: np.ndarray  # (N,) int32, topic of each token; the sampler writes it
    offsets: np.ndarray  # (D + 1,) int64, non-decreasing from 0 to N

    def __post_init__(self) -> None:
        """Raise ValueError naming the first malformed fact, if any."""
        if self.num_unseeded < 0:
            raise ValueError("num_unseeded must be non-negative")
        if self.num_topics > MAX_TOPICS:
            raise ValueError(f"num_unseeded gives {self.num_topics} topics, over {MAX_TOPICS}")
        for name in ("vocabulary", "doc_ids", "categories"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} holds a duplicate")
        if len(self.seed_word_ids) != self.num_seeded:
            raise ValueError("seed_word_ids needs exactly one list per category")
        for ids in self.seed_word_ids:
            if list(ids) != sorted(set(ids)) or not all(
                    type(w) is int and 0 <= w < self.vocab_size for w in ids):
                raise ValueError("seed ids must be sorted, distinct integers in [0, V)")
        if not self.doc_ids or self.offsets.shape != (len(self.doc_ids) + 1,):
            raise ValueError("doc_ids and offsets disagree in length")
        check_tokens(self.offsets, self.word_of, self.z, self.vocab_size, self.num_topics)

    @property
    def num_seeded(self) -> int:
        return len(self.categories)

    @property
    def num_topics(self) -> int:
        return self.num_seeded + self.num_unseeded

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def _counts(self):
        return count_tables(self.offsets, self.word_of, self.z, self.vocab_size,
                            self.num_topics)

    n_dt = property(lambda self: next(self._counts()))
    n_tw = property(lambda self: [*self._counts()][1])
    n_t = property(lambda self: [*self._counts()][2])

    def sweep_state(self) -> SweepState:
        """The sampler's inputs over this model's arrays: alpha and, in Python
        floats, which overflow without numpy's warning, the priors B[w, t] =
        beta + mu if w seeds t else beta and Bsum[t] = V * beta + mu * |seeds of t|."""
        v, k, s = self.vocab_size, self.num_topics, self.settings
        prior = np.full((v, k), s.beta, dtype=np.float64)
        total = np.full(k, v * s.beta, dtype=np.float64)
        for t, ids in enumerate(self.seed_word_ids):
            prior[list(ids), t] = s.beta + s.mu
            total[t] = v * s.beta + s.mu * len(ids)
        return SweepState(self.z, self.offsets, self.word_of, prior, total, s.alpha)


def train(docs: Sequence[TokenizedDoc], seeds: SeedSpec,
          settings: TrainSettings = TrainSettings()) -> SeededLdaModel:
    """Run collapsed Gibbs sampling with `settings`; return the trained model.

    Empty documents are dropped (and recorded on the model); seed words
    missing from the corpus vocabulary are warned about and ignored. Priors
    `_gibbs.check_weights` rejects raise DataError, also at 0 sweeps. The
    sampler checks its count tables against the assignments when it closes.
    """
    kept = [d for d in docs if d.tokens]
    dropped = tuple(d.tweet_id for d in docs if not d.tokens)
    if dropped:
        logger.warning("dropped %d empty documents", len(dropped))
    if not kept:
        raise DataError("corpus has no non-empty documents")

    # one first-appearance pass gives the vocabulary and every token's word id
    lengths = [len(doc.tokens) for doc in kept]
    vocab_index: dict[str, int] = {}
    word_of = np.fromiter(
        (vocab_index.setdefault(t, len(vocab_index)) for doc in kept for t in doc.tokens),
        dtype=np.int32, count=sum(lengths))

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
    # the topics a word's tokens start in: the first n_choices[w] of
    # owners[w], the topics it seeds, or all K topics if it seeds none
    owners = np.tile(np.arange(k, dtype=np.int32), (len(vocab_index), 1))
    n_choices = np.full(len(vocab_index), k, dtype=np.int64)
    for w in {w for ids in seed_word_ids for w in ids}:
        mine = [t for t, ids in enumerate(seed_word_ids) if w in ids]
        owners[w, :len(mine)], n_choices[w] = mine, len(mine)

    rng = np.random.default_rng(settings.rng_seed)
    # one uniform draw per token, in document order
    z = owners[word_of, rng.integers(n_choices[word_of])]

    model = SeededLdaModel(
        vocabulary=tuple(vocab_index),
        doc_ids=tuple(doc.tweet_id for doc in kept),
        dropped_doc_ids=dropped,
        categories=categories,
        num_unseeded=seeds.unseeded,
        settings=settings,
        seed_word_ids=tuple(seed_word_ids),
        word_of=word_of,
        z=z,
        offsets=np.cumsum([0, *lengths], dtype=np.int64),
    )

    try:
        check_weights(model.sweep_state())
    except ValueError as exc:
        raise DataError(f"prior total V * beta + mu * (seeds of a topic) or a sampling weight "
                        f"under- or overflows: beta {settings.beta:g}, mu {settings.mu:g}, "
                        f"V {model.vocab_size}, alpha {settings.alpha:g} ({exc})") from exc
    if settings.iterations > 0:
        # a state of its own, so its priors go when the sampler closes, before the recount
        with open_sampler(model.sweep_state()) as sampler:
            for _ in range(settings.iterations):
                run_sweep(sampler, rng)
    return model


def doc_topic_distribution(model: SeededLdaModel, doc: int) -> np.ndarray:
    """theta for one document, counted alone: (n_dt + alpha) / (len + K * alpha)."""
    if not 0 <= doc < len(model.doc_ids):
        raise IndexError(f"document index {doc} out of range")
    a, b = model.offsets[doc:doc + 2]
    (row,) = next(count_tables(np.array([0, b - a]), model.word_of[a:b], model.z[a:b],
                               model.vocab_size, model.num_topics))
    alpha = model.settings.alpha
    return (row + alpha) / (row.sum() + model.num_topics * alpha)


def classify_all(model: SeededLdaModel, rng: np.random.Generator) -> dict[str, str]:
    """Dominant-topic label of every document, in training order: the
    category of the seeded topic with the highest count, `unassigned` if an
    unseeded topic wins. Exact count ties are broken uniformly with rng, one
    draw per tied document, in document order; a document with one winner
    draws nothing."""
    n_dt = model.n_dt
    ties = n_dt == n_dt.max(axis=1, keepdims=True)
    counts = ties.sum(axis=1)
    winners = ties.argmax(axis=1)  # the first winner, right unless tied
    for d in np.flatnonzero(counts > 1):
        winners[d] = np.flatnonzero(ties[d])[rng.integers(counts[d])]
    names = (*model.categories, *(UNASSIGNED,) * model.num_unseeded)
    return dict(zip(model.doc_ids, (names[t] for t in winners.tolist())))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvaluationReport:
    """The scores of report.json, in its layout and key order."""

    labels: tuple[str, ...]  # sorted union of gold and predicted labels
    matrix: tuple[tuple[int, ...], ...]  # rows gold, columns predicted
    accuracy: float
    per_class: dict[str, ClassMetrics]
    gold_classes: tuple[str, ...]
    macro: ClassMetrics
    micro: ClassMetrics

    def to_dict(self) -> dict:
        return asdict(self)


def _metrics(tp: int, predicted: int, actual: int) -> ClassMetrics:
    """Precision, recall and F1 from the true positives and the predicted
    and actual totals; 0.0 where a denominator is zero."""
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision, recall, f1)


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

    # per label: true positives, predicted (column) and actual (row) totals
    tallies = {name: (counts[i][i], sum(row[i] for row in counts), sum(counts[i]))
               for name, i in index.items()}
    accuracy = sum(tp for tp, _, _ in tallies.values()) / len(gold)
    per_class = {name: _metrics(*tally) for name, tally in tallies.items()}

    gold_classes = tuple(sorted(set(gold.values())))
    gold_metrics = [astuple(per_class[c]) for c in gold_classes]
    macro = ClassMetrics(*(sum(column) / len(gold_classes) for column in zip(*gold_metrics)))
    micro = _metrics(*map(sum, zip(*(tallies[c] for c in gold_classes))))
    return EvaluationReport(labels, tuple(map(tuple, counts)), accuracy, per_class,
                            gold_classes, macro, micro)


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
    """Write the model as deterministic JSON (format version 3): settings,
    categories, vocabulary, seed ids, document ids, and the token layout as
    the model holds it, flat: `doc_lengths` (the offsets' differences),
    `word_of` and `z`; no count table, as the model counts them from these.
    The bytes are one compact ``json.dumps`` of the whole payload plus a
    newline, but every list, last in the payload, is encoded _SAVE_ITEMS
    items at a time, so no list that grows with the corpus is held whole as
    encoder input, as text or as a Python list."""
    head = {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        **asdict(model.settings),
        "categories": list(model.categories),
        "num_unseeded": model.num_unseeded,
    }
    # each list's length and its items a up to b; json encodes an array as a list
    lists = (
        ("vocabulary", model.vocab_size, lambda a, b: model.vocabulary[a:b]),
        ("seed_word_ids", model.num_seeded, lambda a, b: model.seed_word_ids[a:b]),
        ("doc_ids", len(model.doc_ids), lambda a, b: model.doc_ids[a:b]),
        ("dropped_doc_ids", len(model.dropped_doc_ids), lambda a, b: model.dropped_doc_ids[a:b]),
        ("doc_lengths", len(model.doc_ids), lambda a, b: np.diff(model.offsets[a:b + 1])),
        ("word_of", len(model.word_of), lambda a, b: model.word_of[a:b]),
        ("z", len(model.z), lambda a, b: model.z[a:b]),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, separators=_SEPARATORS)[:-1])
        for key, size, items in lists:
            fh.write(f',"{key}":[')
            for a in range(0, size, _SAVE_ITEMS):
                piece = json.dumps(items(a, a + _SAVE_ITEMS), separators=_SEPARATORS,
                                   default=np.ndarray.tolist)
                fh.writelines(("," if a else "", piece[1:-1]))
            fh.write("]")
        fh.write("}\n")


def _field(payload: dict, key: str, kinds: tuple[type, ...], item: type | None = None):
    """payload[key], whose type must be exactly one of `kinds` (so JSON true
    is no int), and a list's items exactly of type `item`."""
    value = payload[key]
    if type(value) not in kinds or (item and not set(map(type, value)) <= {item}):
        raise TypeError(f"{key} has the wrong type")
    return value


def _ints(payload: dict, key: str) -> list[int]:
    """payload[key], a flat list of integers within 32 bits: a value beyond
    them is rejected, not wrapped."""
    values = _field(payload, key, (list,), int)
    if values and (min(values) < -2**31 or max(values) >= 2**31):
        raise ValueError(f"{key} holds a value beyond 32 bits")
    return values


def load_model(path) -> SeededLdaModel:
    """Read a model written by :func:`save_model`. Every field is
    type-checked, the settings as :func:`train`'s are; the offsets are the
    running sum of doc_lengths, and the model then checks that they end at
    len(word_of) == len(z) and checks its ids. The version must be the JSON
    integer 3. Any malformed file or payload raises DataError."""
    payload = read_json(path, "model")
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise DataError(f"{path}: not a {_FORMAT} model file")
    version = payload.get("version")
    if type(version) is not int or version != _FORMAT_VERSION:  # so 3.0 and true are not 3
        raise DataError(f"{path}: unsupported model version {version!r}")
    try:
        facts = {key: tuple(_field(payload, key, (list,), str))
                 for key in ("vocabulary", "doc_ids", "dropped_doc_ids", "categories")}
        facts["num_unseeded"] = _field(payload, "num_unseeded", (int,))
        facts["settings"] = TrainSettings(**{f.name: payload[f.name] for f in fields(TrainSettings)})
        facts["seed_word_ids"] = tuple(map(tuple, _field(payload, "seed_word_ids", (list,), list)))
        offsets = np.cumsum([0, *_ints(payload, "doc_lengths")], dtype=np.int64)
        word_of, z = (np.array(_ints(payload, key), dtype=np.int32) for key in ("word_of", "z"))
        return SeededLdaModel(**facts, word_of=word_of, z=z, offsets=offsets)
    except KeyError as exc:
        raise DataError(f"{path}: model payload lacks {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt model payload: {exc}") from exc
