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


def _parse_block(lines: list[str]) -> DependencyTree | str | None:
    """The tree in one block of lines, a reason to skip the block, or None
    for a block that holds only comments."""
    tweet_id: str | None = None
    rows: list[ParseNode] = []
    for line in lines:
        if undecodable(line):
            return NOT_UTF8
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("tweet_id") and "=" in comment:
                tweet_id = comment.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            return f"expected 6 columns, got {len(cols)}"
        try:
            index, head = int(cols[0]), int(cols[4])
            if (str(index), str(head)) != (cols[0], cols[4]):  # int() also reads "+1", "01"
                raise ValueError
        except ValueError:
            return "non-integer ID or HEAD"
        rows.append(ParseNode(index, *cols[1:4], head, cols[5]))
    if tweet_id is None:
        return "missing tweet_id comment" if rows else None
    return _validate_block(rows) or DependencyTree(tweet_id, tuple(rows))


def load_parses(path) -> list[DependencyTree]:
    """Read dependency trees, skipping invalid blocks with a diagnostic.
    Several blocks may share one tweet id (multi-sentence tweets)."""
    with open_lines(path) as fh:
        lines = fh.read().split("\n")
    lines.append("")  # the last block ends here

    trees: list[DependencyTree] = []
    start = 0  # index of the current block's first line
    for end, line in enumerate(lines):
        if line.strip():
            continue
        block = _parse_block(lines[start:end])
        if isinstance(block, DependencyTree):
            trees.append(block)
        elif block is not None:
            logger.warning("%s:%d block skipped: %s", path, start + 1, block)
        start = end + 1
    return trees


def serialize_parses(trees: Iterable[DependencyTree]) -> str:
    """Canonical text form: one block per tree, tweet_id comment first, a
    blank line after every block."""
    chunks: list[str] = []
    for tree in trees:
        chunks.append(f"# tweet_id = {tree.tweet_id}\n")
        chunks.extend(f"{n.index}\t{n.form}\t{n.lemma}\t{n.pos}\t{n.head}\t{n.rel}\n"
                      for n in tree.nodes)
        chunks.append("\n")
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
    groups: Mapping[str, Sequence[DependencyTree]], n: int = 10
) -> list[VerbProfile]:
    """Per group, the verbs most distinctive of it: verb lemmas are counted
    per group, each group becomes one pseudo-document, and any verb present in
    all G groups has tf-idf 0 and is dropped. Survivors are ranked by in-group
    count, ties lexicographic. With a single group nothing can be distinctive
    by that rule, so idf degrades to ln((G + 1) / df) and every verb is kept."""
    counts: list[tuple[str, Counter]] = []
    for name, trees in groups.items():
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
