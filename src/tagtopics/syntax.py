"""Dependency-parse ingestion and verb-centered extraction.

Parses arrive in a CoNLL-U subset: blocks separated by blank lines, each
preceded by a `# tweet_id = <id>` comment, rows of six tab-separated columns
ID, FORM, LEMMA, UPOS, HEAD, DEPREL. Exactly one row per block has HEAD 0.
Invalid or undecodable blocks are skipped with a named diagnostic; valid ones
round-trip byte-identically through :func:`serialize_parses`.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import NOT_UTF8, open_lines, undecodable
from .lexstats import tfidf

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParseNode:
    index: int  # 1-based position in the sentence
    form: str
    lemma: str
    pos: str  # universal POS tag, e.g. VERB, NOUN, PROPN, PRON
    head: int  # 0 for the root
    rel: str


@dataclass(frozen=True)
class DependencyTree:
    tweet_id: str
    nodes: tuple[ParseNode, ...]

    def children(self) -> dict[int, list[ParseNode]]:
        """head index -> child nodes, in sentence order."""
        out: dict[int, list[ParseNode]] = defaultdict(list)
        for node in self.nodes:
            out[node.head].append(node)
        return dict(out)


@dataclass(frozen=True)
class RelationConfig:
    """Which dependency relations feed verb -> noun extraction.

    The default follows parsers that attach a preposition to the verb with
    rel `prep` and its noun below it with rel `pobj`. For Universal
    Dependencies output use :meth:`universal_dependencies`, where the noun is
    a direct `obl` child of the verb (the preposition hangs under the noun as
    `case`), so the two-hop pattern is disabled. `whole_subtree` widens
    extraction to every noun in the verb's subtree, any depth."""

    direct_relations: frozenset[str] = frozenset({"nsubj", "dobj"})
    prep_relation: str | None = "prep"
    prep_object_relation: str = "pobj"
    noun_pos: frozenset[str] = frozenset({"NOUN", "PROPN"})
    whole_subtree: bool = False

    @classmethod
    def universal_dependencies(cls, whole_subtree: bool = False) -> "RelationConfig":
        return cls(
            direct_relations=frozenset({"nsubj", "obj", "obl"}),
            prep_relation=None,
            whole_subtree=whole_subtree,
        )


@dataclass(frozen=True)
class VerbNounTable:
    verb: str
    nouns: tuple[tuple[str, int], ...]  # (lemma, count), count desc then lemma


@dataclass(frozen=True)
class VerbProfile:
    category: str
    verbs: tuple[tuple[str, int, float], ...]  # (lemma, count, tfidf score)


def _validate_block(rows: list[ParseNode]) -> str | None:
    """Return a reason to skip the block, or None if it is a valid tree."""
    n = len(rows)
    if n == 0:
        return "empty block"
    for i, node in enumerate(rows, start=1):
        if node.index != i:
            return f"node ids not sequential at row {i}"
        if not 0 <= node.head <= n:
            return f"head {node.head} out of range"
        if node.head == node.index:
            return f"node {node.index} is its own head"
    roots = [node for node in rows if node.head == 0]
    if len(roots) == 0:
        return "no root"
    if len(roots) > 1:
        return "multiple roots"
    # every node must reach the root without revisiting anything
    for node in rows:
        seen = set()
        cur = node.index
        while cur != 0:
            if cur in seen:
                return "cycle"
            seen.add(cur)
            cur = rows[cur - 1].head
    return None


def load_parses(path) -> list[DependencyTree]:
    """Read dependency trees, skipping invalid blocks with a diagnostic.
    Several blocks may share one tweet id (multi-sentence tweets)."""
    with open_lines(path) as fh:
        lines = fh.read().split("\n")

    trees: list[DependencyTree] = []
    block_start = 1
    tweet_id: str | None = None
    rows: list[ParseNode] = []
    broken: str | None = None

    def flush() -> None:
        nonlocal tweet_id, rows, broken
        if tweet_id is None and not rows and broken is None:
            return  # nothing buffered
        reason = broken
        if reason is None and tweet_id is None:
            reason = "missing tweet_id comment"
        if reason is None:
            reason = _validate_block(rows)
        if reason is None:
            trees.append(DependencyTree(tweet_id=tweet_id, nodes=tuple(rows)))
        else:
            logger.warning("%s:%d block skipped: %s", path, block_start, reason)
        tweet_id, rows, broken = None, [], None

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            flush()
            block_start = lineno + 1
            continue
        if undecodable(line):
            broken = broken or NOT_UTF8
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("tweet_id") and "=" in comment:
                tweet_id = comment.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            broken = broken or f"expected 6 columns, got {len(cols)}"
            continue
        try:
            node = ParseNode(
                index=int(cols[0]), form=cols[1], lemma=cols[2],
                pos=cols[3], head=int(cols[4]), rel=cols[5],
            )
        except ValueError:
            broken = broken or "non-integer ID or HEAD"
            continue
        rows.append(node)
    flush()
    return trees


def serialize_parses(trees: Iterable[DependencyTree]) -> str:
    """Canonical text form: one block per tree, tweet_id comment first, a
    blank line after every block."""
    chunks: list[str] = []
    for tree in trees:
        lines = [f"# tweet_id = {tree.tweet_id}"]
        for node in tree.nodes:
            lines.append("\t".join(
                (str(node.index), node.form, node.lemma,
                 node.pos, str(node.head), node.rel)
            ))
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def _collect_nouns(
    tree: DependencyTree, verb: ParseNode, config: RelationConfig
) -> list[str]:
    children = tree.children()
    found: list[str] = []
    if config.whole_subtree:
        stack = [verb.index]
        while stack:
            for child in children.get(stack.pop(), ()):
                if child.pos in config.noun_pos:
                    found.append(child.lemma.casefold())
                stack.append(child.index)
        return found
    for child in children.get(verb.index, ()):
        if child.rel in config.direct_relations and child.pos in config.noun_pos:
            found.append(child.lemma.casefold())  # depth 1
        elif config.prep_relation is not None and child.rel == config.prep_relation:
            for grandchild in children.get(child.index, ()):
                if (grandchild.rel == config.prep_object_relation
                        and grandchild.pos in config.noun_pos):
                    found.append(grandchild.lemma.casefold())  # depth 2
    return found


def verb_noun_pairs(
    trees: Iterable[DependencyTree],
    verb_lemma: str,
    config: RelationConfig = RelationConfig(),
) -> VerbNounTable:
    """Nouns governed by a verb across all trees: direct children on the
    configured relations plus objects reached through the preposition pattern.
    Pronouns never qualify (the POS filter admits only noun tags)."""
    target = verb_lemma.casefold()
    counts: Counter = Counter()
    for tree in trees:
        for node in tree.nodes:
            if node.pos == "VERB" and node.lemma.casefold() == target:
                counts.update(_collect_nouns(tree, node, config))
    nouns = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return VerbNounTable(verb=target, nouns=nouns)


def distinctive_verbs(
    groups: Mapping[str, Sequence[DependencyTree]] | Sequence[tuple[str, Sequence[DependencyTree]]],
    n: int = 10,
) -> list[VerbProfile]:
    """Per group, the verbs most distinctive of it: verb lemmas are counted
    per group, each group becomes one pseudo-document, and any verb present in
    all G groups has tf-idf 0 and is dropped. Survivors are ranked by in-group
    count, ties lexicographic. With a single group nothing can be distinctive
    by that rule, so idf degrades to ln((G + 1) / df) and every verb is kept."""
    pairs = list(groups.items()) if isinstance(groups, Mapping) else list(groups)
    counts: list[tuple[str, Counter]] = []
    for name, trees in pairs:
        c: Counter = Counter()
        for tree in trees:
            c.update(
                node.lemma.casefold() for node in tree.nodes if node.pos == "VERB"
            )
        counts.append((name, c))
    g = len(counts)
    if g == 0:
        return []
    if g == 1:
        name, c = counts[0]
        rows = [(lemma, cnt, cnt * math.log(2.0)) for lemma, cnt in c.items()]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return [VerbProfile(category=name, verbs=tuple(rows[:n]))]
    scores = tfidf(counts)
    profiles: list[VerbProfile] = []
    for name, c in counts:
        rows = [
            (lemma, cnt, scores[(name, lemma)])
            for lemma, cnt in c.items()
            if scores[(name, lemma)] > 0.0
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        profiles.append(VerbProfile(category=name, verbs=tuple(rows[:n])))
    return profiles
