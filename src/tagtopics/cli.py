"""Command-line interface.

One subcommand per analysis stage, all writing deterministic artifacts into
the output directory: trends.csv, words.csv, bigrams.csv, sentiment.csv,
verbs.csv, pairs.csv, model.json, assignments.csv, report.json, summary.json.

Every option is one `RunConfig` field. Its flag is the dashed field name
(`--rng-seed` sets `rng_seed`; `--verb`, repeatable, sets `verbs`) and its
config-file key is the field name. Values come from the field defaults, then
a JSON config file (--config), then explicit flags, later layers winning;
every subcommand accepts every option. Flag and config values pass the same
checks (type, choices, lower bound, finite floats), and a value that fails
them stops the run before any input is read. Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import typing
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import (
    corpus as corpus_mod,
    lexstats,
    sentiment as sentiment_mod,
    syntax as syntax_mod,
    textprep,
    topics as topics_mod,
)
from .errors import SKIPPED, DataError, iter_csv, read_json

logger = logging.getLogger(__name__)

DEFAULT_RNG_SEED = 12345  # the library's TrainSettings default is 0
_TRAIN_DEFAULTS = topics_mod.TrainSettings()


class UsageError(Exception):
    """Bad invocation (unknown flag, malformed config, bad value). Exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this interface reserves 2 for data
    # errors and uses 1 for usage problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _option(default, help: str, **checks):
    """A RunConfig field: its default, its --help text and, in `checks`, any
    of `choices`, a lower bound `gt` or `ge`, and a `flag` or `metavar`
    spelled other than from the field name."""
    return field(default=default, metadata={"help": help, **checks})


@dataclass
class RunConfig:
    """Every knob the subcommands read, each declared once: the field name is
    the config-file key, its dashed form (or metadata `flag`) the flag, the
    annotation the value type, the metadata the help text and value checks.
    Construction checks every value; a bad one raises UsageError."""

    corpus: str | None = _option(None, "tweet corpus file")
    format: str = _option("jsonl", "corpus format", choices=("jsonl", "csv"))
    taxonomy: str | None = _option(None, "category taxonomy JSON")
    stopwords: str | None = _option(None, "stopword list file (default: packaged list)")
    exclusions: str | None = _option(None, "extra echo-filter terms, one per line")
    lexicon: str | None = _option(None, "valence lexicon CSV (default: packaged lexicon)")
    parses: str | None = _option(None, "dependency parses file")
    scores: str | None = _option(None, "external sentiment scores (JSON lines)")
    seed_file: str | None = _option(None, "topic seed words JSON")
    predictions: str | None = _option(None, "assignments CSV to evaluate")
    out: str = _option("out", "output directory")
    stem: bool = _option(True, "Porter-stem normalized tokens")
    alpha: float = _option(_TRAIN_DEFAULTS.alpha, "document-topic prior", gt=0)
    beta: float = _option(_TRAIN_DEFAULTS.beta, "topic-word prior", gt=0)
    mu: float = _option(_TRAIN_DEFAULTS.mu, "extra prior mass on seed words", ge=0)
    iters: int = _option(_TRAIN_DEFAULTS.iterations, "Gibbs sweeps", ge=0)
    unseeded: int = _option(topics_mod.DEFAULT_UNSEEDED, "number of unseeded topics", ge=0)
    rng_seed: int = _option(DEFAULT_RNG_SEED, "RNG seed", ge=0)
    top_n: int = _option(10, "rows per ranking", ge=0)
    min_count: int = _option(5, "minimum bigram count", ge=0)
    min_groups: int = _option(2, "groups needed for a common word", ge=2)
    gold_policy: str = _option("rarest", "multi-category gold label policy",
                               choices=("rarest", "priority", "exclude_multi"))
    verbs: list[str] | None = _option(None, "verb lemma to profile (repeatable)",
                                      flag="--verb", metavar="LEMMA")
    rel_scheme: str = _option("default", "dependency relation scheme",
                              choices=("default", "ud"))
    subtree: bool = _option(False, "collect nouns from the whole verb subtree")

    def __post_init__(self):
        for f in fields(self):
            problem = _problem(f, getattr(self, f.name))
            if problem:
                raise UsageError(f"{_flag(f)} (config key {f.name}) {problem}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**data)


def _resolve(hint) -> tuple[type, type | None, bool]:
    """(value type, list item type or None, None allowed) of an annotation
    such as `int`, `str | None` or `list[str] | None`."""
    optional = type(None) in typing.get_args(hint)
    if optional:
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if typing.get_origin(hint) is list:
        return list, typing.get_args(hint)[0], optional
    return hint, None, optional


_TYPES = {name: _resolve(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


def _flag(f: Field) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _problem(f: Field, value) -> str | None:
    """Why `value` is no valid value of field `f`; None if it is one."""
    kind, item, optional = _TYPES[f.name]
    meta = f.metadata
    if value is None and optional:
        return None
    if kind is list:
        ok = type(value) is list and all(type(v) is item for v in value)
    else:  # exact types, so a bool is no int; an int is a valid float
        ok = type(value) is kind or (kind is float and type(value) is int)
    if not ok:
        return f"must be {f'a list of {item.__name__}' if item else kind.__name__}, got {value!r}"
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
        return f"must be finite, got {value!r}"
    if "choices" in meta and value not in meta["choices"]:
        return f"must be one of {', '.join(meta['choices'])}, got {value!r}"
    if "gt" in meta and not value > meta["gt"]:
        return f"must be > {meta['gt']}, got {value!r}"
    if "ge" in meta and not value >= meta["ge"]:
        return f"must be >= {meta['ge']}, got {value!r}"
    return None


def _add_flag(parser: argparse.ArgumentParser, f: Field) -> None:
    kind, item, _ = _TYPES[f.name]
    kwargs = {k: v for k, v in f.metadata.items() if k in ("help", "choices", "metavar")}
    if kind is bool:
        kwargs["action"] = argparse.BooleanOptionalAction
    elif kind is list:
        kwargs.update(action="append", type=item)
    elif kind is not str:
        kwargs["type"] = kind
    # the default stays None, so an absent flag keeps the config-file value
    parser.add_argument(_flag(f), dest=f.name, **kwargs)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Field defaults, then the --config file, then the flags given."""
    values = {}
    if args.config is not None:
        try:
            values = read_json(args.config, "config")
        except (OSError, DataError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
    values.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                  if getattr(args, f.name) is not None)
    return RunConfig.from_dict(values)


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise DataError(f"missing required input: --{name.replace('_', '-')}")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _norm_config(cfg: RunConfig) -> textprep.NormalizationConfig:
    stopwords = (
        textprep.load_wordlist(cfg.stopwords)
        if cfg.stopwords is not None
        else textprep.default_stopwords()
    )
    return textprep.NormalizationConfig(stopwords=stopwords, stem=cfg.stem)


def _load_corpus_and_taxonomy(cfg: RunConfig):
    _require(cfg, "corpus", "taxonomy")
    tweets = corpus_mod.load_corpus(cfg.corpus, cfg.format)
    taxonomy = corpus_mod.load_taxonomy(cfg.taxonomy)
    return tweets, taxonomy


def _exclusions(cfg: RunConfig) -> frozenset[str]:
    return (textprep.load_wordlist(cfg.exclusions)
            if cfg.exclusions is not None else frozenset())


def _by_category(items, membership: dict[str, set[str]], taxonomy) -> dict[str, list]:
    """Items with a `tweet_id` (docs, trees) grouped by category in taxonomy
    order, each group in item order; an item may be in several groups."""
    groups: dict[str, list] = {name: [] for name in taxonomy.names()}
    for item in items:
        for cat in membership.get(item.tweet_id, ()):
            groups[cat].append(item)
    return groups


def _category_docs(tweets, taxonomy, cfg: RunConfig) -> dict[str, list[textprep.TokenizedDoc]]:
    """The tokens of every categorized tweet, grouped by category."""
    membership = corpus_mod.category_membership(tweets, taxonomy)
    docs = textprep.tokenize_tweets((t for t in tweets if t.id in membership),
                                    _norm_config(cfg), taxonomy, _exclusions(cfg))
    return _by_category(docs, membership, taxonomy)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trends(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    series = corpus_mod.trend_series(tweets, taxonomy)
    out = _out_dir(cfg)
    rows = [
        (s.category, day.isoformat(), count)
        for s in series
        for day, count in s.points
    ]
    _write_csv(out / "trends.csv", ["category", "date", "count"], rows)
    print(f"trends: {len(rows)} rows over {len(series)} series -> {out / 'trends.csv'}")


def _cmd_words(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    groups = _category_docs(tweets, taxonomy, cfg)
    lexicons = [
        lexstats.build_lexicon(docs, category=name) for name, docs in groups.items()
    ]
    common = lexstats.common_words(lexicons, min_groups=cfg.min_groups, n=cfg.top_n)
    common_set = [token for token, _, _ in common]
    rows = [
        ("(common)", rank, token, freq, group_count)
        for rank, (token, group_count, freq) in enumerate(common, start=1)
    ]
    for lex in lexicons:
        distinct = lexstats.distinctive_words(lex, common_set, n=cfg.top_n)
        rows.extend(
            (lex.category, rank, token, count, count)
            for rank, (token, count) in enumerate(distinct, start=1)
        )
    out = _out_dir(cfg)
    _write_csv(out / "words.csv", ["category", "rank", "term", "count", "score"], rows)
    print(f"words: {len(rows)} rows -> {out / 'words.csv'}")


def _cmd_bigrams(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    groups = _category_docs(tweets, taxonomy, cfg)
    rows = []
    for name, docs in groups.items():
        lex = lexstats.build_lexicon(docs, category=name)
        stats = lexstats.bigram_collocations(lex, min_count=cfg.min_count, n=cfg.top_n)
        rows.extend(
            (name, rank, " ".join(s.bigram), s.observed[0][0], repr(s.chi2))
            for rank, s in enumerate(stats, start=1)
        )
    out = _out_dir(cfg)
    _write_csv(out / "bigrams.csv", ["category", "rank", "term", "count", "score"], rows)
    print(f"bigrams: {len(rows)} rows -> {out / 'bigrams.csv'}")


def _cmd_sentiment(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    membership = corpus_mod.category_membership(tweets, taxonomy)
    if cfg.scores is not None:
        labels = sentiment_mod.ingest_scores(cfg.scores)
    else:
        lexicon = (
            sentiment_mod.load_valence_lexicon(cfg.lexicon)
            if cfg.lexicon is not None
            else sentiment_mod.default_valence_lexicon()
        )
        # scoring matches surface words, so stemming stays off here
        norm = textprep.NormalizationConfig(
            stopwords=_norm_config(cfg).stopwords, stem=False
        )
        labels = {
            t.id: sentiment_mod.score_lexicon(textprep.normalize(t.text, norm), lexicon)
            for t in tweets
        }
    dists = sentiment_mod.category_distribution(
        labels, membership, categories=taxonomy.names()
    )
    rows = []
    for dist in dists:
        for label in sentiment_mod.NON_NEUTRAL:
            share = dist.shares[label]
            rows.append((dist.category, label.value, f"{float(share):.6f}"))
    out = _out_dir(cfg)
    _write_csv(out / "sentiment.csv", ["category", "label", "percentage"], rows)
    flagged = sum(1 for d in dists if d.insufficient_data)
    note = f" ({flagged} categories lacked non-neutral tweets)" if flagged else ""
    print(f"sentiment: {len(rows)} rows -> {out / 'sentiment.csv'}{note}")


def _grouped_trees(cfg: RunConfig):
    _require(cfg, "parses")
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    trees = syntax_mod.load_parses(cfg.parses)
    return _by_category(trees, corpus_mod.category_membership(tweets, taxonomy), taxonomy)


def _cmd_verbs(cfg: RunConfig) -> None:
    groups = _grouped_trees(cfg)
    profiles = syntax_mod.distinctive_verbs(groups, n=cfg.top_n)
    rows = [
        (p.category, rank, lemma, count, repr(score))
        for p in profiles
        for rank, (lemma, count, score) in enumerate(p.verbs, start=1)
    ]
    out = _out_dir(cfg)
    _write_csv(out / "verbs.csv", ["category", "rank", "term", "count", "score"], rows)
    print(f"verbs: {len(rows)} rows -> {out / 'verbs.csv'}")


def _cmd_pairs(cfg: RunConfig) -> None:
    groups = _grouped_trees(cfg)
    relations = (syntax_mod.RelationConfig.universal_dependencies
                 if cfg.rel_scheme == "ud" else syntax_mod.RelationConfig)
    rel_config = relations(whole_subtree=cfg.subtree)
    rows = []
    for name, trees in groups.items():
        if cfg.verbs:  # each casefolded lemma once, in first-seen order
            targets = list(dict.fromkeys(v.casefold() for v in cfg.verbs))
        else:
            profiles = syntax_mod.distinctive_verbs({name: trees}, n=5)
            targets = [lemma for lemma, _, _ in profiles[0].verbs] if profiles else []
        for verb in targets:
            table = syntax_mod.verb_noun_pairs(trees, verb, rel_config)
            rows.extend(
                (name, verb, noun, count) for noun, count in table.nouns
            )
    out = _out_dir(cfg)
    _write_csv(out / "pairs.csv", ["category", "verb", "noun", "count"], rows)
    print(f"pairs: {len(rows)} rows -> {out / 'pairs.csv'}")


def _normalized_seeds(cfg: RunConfig, norm: textprep.NormalizationConfig, taxonomy,
                      exclusions: frozenset[str]) -> topics_mod.SeedSpec:
    """The seed words as model tokens: normalized and echo-filtered as the
    tweets are, so no seed word is a term the model never sees."""
    _require(cfg, "seed_file")
    raw = topics_mod.SeedSpec.from_json_file(cfg.seed_file, unseeded=cfg.unseeded)
    seeded = []
    for name, words in raw.seeded:
        normalized: set[str] = set()
        for word in sorted(words):
            tokens = textprep.normalize(word, norm)
            kept = textprep.echo_free_tokens(word, norm, taxonomy, exclusions)
            if not kept:
                why = "a category-echo term" if tokens else "no word left after normalizing"
                logger.warning("seed word %r for %r normalizes to nothing (%s)", word, name, why)
            normalized.update(kept)
        if not normalized:
            raise DataError(f"no seed words survive normalization for {name!r}")
        seeded.append((name, frozenset(normalized)))
    return topics_mod.SeedSpec(seeded=tuple(seeded), unseeded=raw.unseeded)


def _cmd_topics_train(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    norm, exclusions = _norm_config(cfg), _exclusions(cfg)
    seeds = _normalized_seeds(cfg, norm, taxonomy, exclusions)
    docs = textprep.tokenize_tweets(tweets, norm, taxonomy, exclusions)
    settings = topics_mod.TrainSettings(alpha=cfg.alpha, beta=cfg.beta, mu=cfg.mu,
                                        iterations=cfg.iters, rng_seed=cfg.rng_seed)
    model = topics_mod.train(docs, seeds, settings)
    out = _out_dir(cfg)
    topics_mod.save_model(model, out / "model.json")
    print(
        f"topics-train: {len(model.doc_ids)} docs, vocabulary {model.vocab_size}, "
        f"{model.num_topics} topics, {cfg.iters} sweeps -> {out / 'model.json'}"
    )


def _cmd_topics_classify(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    model_path = out / "model.json"
    model = topics_mod.load_model(model_path)
    rng = np.random.default_rng(cfg.rng_seed)
    labels = topics_mod.classify_all(model, rng)
    rows = list(labels.items())
    _write_csv(out / "assignments.csv", ["id", "category"], rows)
    print(f"topics-classify: {len(rows)} docs -> {out / 'assignments.csv'}")


def _read_assignments(path) -> dict[str, str]:
    """id -> category per row of a predictions file. A row with no id, a
    repeated id or an absent or empty category is skipped with a warning;
    the first row for an id wins."""
    out: dict[str, str] = {}
    for lineno, row in iter_csv(path, ("id", "category"), logger):
        if not row["id"]:
            logger.warning(SKIPPED, path, lineno, "missing id")
        elif row["id"] in out:
            logger.warning(SKIPPED, path, lineno, f"duplicate id {row['id']!r}")
        elif not row["category"]:
            logger.warning(SKIPPED, path, lineno, "no category")
        else:
            out[row["id"]] = row["category"]
    return out


def _cmd_topics_eval(cfg: RunConfig) -> None:
    tweets, taxonomy = _load_corpus_and_taxonomy(cfg)
    out = _out_dir(cfg)
    pred_path = Path(cfg.predictions) if cfg.predictions else out / "assignments.csv"
    predictions = _read_assignments(pred_path)
    membership = corpus_mod.category_membership(tweets, taxonomy)
    gold = topics_mod.derive_gold(
        membership, policy=cfg.gold_policy, categories=taxonomy.names()
    )
    shared = predictions.keys() & gold.keys()
    if not shared:
        raise DataError("no documents shared between predictions and gold labels")
    report = topics_mod.evaluate(
        {k: predictions[k] for k in shared}, {k: gold[k] for k in shared}
    )
    payload = {
        "policy": cfg.gold_policy,
        "evaluated": len(shared),
        "predictions_only": len(predictions.keys() - gold.keys()),
        "gold_only": len(gold.keys() - predictions.keys()),
    }
    payload.update(report.to_dict())
    _write_json(out / "report.json", payload)
    print(
        f"topics-eval: accuracy {report.accuracy:.4f} macro-F1 {report.macro.f1:.4f} "
        f"on {len(shared)} docs -> {out / 'report.json'}"
    )


def _cmd_report(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    summary: dict[str, object] = {}
    for name in ("trends.csv", "words.csv", "bigrams.csv", "sentiment.csv",
                 "verbs.csv", "pairs.csv", "assignments.csv"):
        path = out / name
        if path.exists():
            summary[name] = {"rows": sum(1 for _ in iter_csv(path, (), logger))}
    model_path = out / "model.json"
    if model_path.exists():
        model = topics_mod.load_model(model_path)
        summary["model.json"] = {
            "documents": len(model.doc_ids),
            "vocabulary": model.vocab_size,
            "topics": model.num_topics,
            "iterations": model.settings.iterations,
        }
    report_path = out / "report.json"
    if report_path.exists():
        report = read_json(report_path, "report")
        if not isinstance(report, dict) or not isinstance(report.get("macro", {}), dict):
            raise DataError(f"{report_path}: not a topics-eval report")
        summary["report.json"] = {
            "accuracy": report.get("accuracy"),
            "macro_f1": report.get("macro", {}).get("f1"),
            "evaluated": report.get("evaluated"),
        }
    if not summary:
        raise DataError(f"no artifacts found in {out}")
    _write_json(out / "summary.json", summary)
    print(f"report: {len(summary)} artifacts summarized -> {out / 'summary.json'}")


# ---------------------------------------------------------------------------

COMMANDS = {
    "trends": (_cmd_trends, "daily tweet counts per category"),
    "words": (_cmd_words, "common and distinctive words per category"),
    "bigrams": (_cmd_bigrams, "chi-square bigram collocations per category"),
    "sentiment": (_cmd_sentiment, "non-neutral sentiment shares per category"),
    "verbs": (_cmd_verbs, "distinctive verbs per category"),
    "pairs": (_cmd_pairs, "nouns governed by selected verbs"),
    "topics-train": (_cmd_topics_train, "train the seeded topic model"),
    "topics-classify": (_cmd_topics_classify, "label documents with the trained model"),
    "topics-eval": (_cmd_topics_eval, "score assignments against hashtag-derived gold labels"),
    "report": (_cmd_report, "summarize artifacts already in the output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tagtopics", description=__doc__.split("\n")[0])
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(RunConfig):
        _add_flag(options, f)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[options])
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handler, _ = COMMANDS[args.command]
    try:
        handler(_load_config(args))
        return 0
    except UsageError as exc:
        print(f"tagtopics: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"tagtopics: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
