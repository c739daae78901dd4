"""Run one tagtopics subcommand, or the kernel set-up, in this process.

    python3 bench/worker.py --src SRC --result OUT.json [--trace] -- ARGV...
    python3 bench/worker.py --src SRC --result OUT.json [--trace] --setup

A subcommand is timed around ``cli.main(ARGV)`` only, so interpreter start
and imports stay out of its time. ``--setup`` imports ``tagtopics.cli`` and
readies the sweep kernel (building it when the kernel cache is empty); the
caller times that whole process from outside.

With ``--trace`` the public functions listed in ``LAYERS`` are wrapped
before the work starts. Each call records a span (function, start, end,
parent span) in memory; the spans are written next to the result file when
the process ends (``OUT.json.npz``). Counts that need the call's arguments
or result are taken in the same wrappers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name). topics.py binds run_sweep by name at
# import, so the sweep is wrapped where topics looks it up. Span names start
# with a letter, so the _gibbs module's spans are named gibbs.*.
LAYERS = (
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("corpus", "assign_categories", "corpus.assign_categories"),
    ("corpus", "trend_series", "corpus.trend_series"),
    ("textprep", "normalize", "textprep.normalize"),
    ("textprep", "filter_category_echo", "textprep.filter_category_echo"),
    ("porter", "stem", "porter.stem"),
    ("lexstats", "build_lexicon", "lexstats.build_lexicon"),
    ("lexstats", "common_words", "lexstats.common_words"),
    ("lexstats", "bigram_collocations", "lexstats.bigram_collocations"),
    ("sentiment", "score_lexicon", "sentiment.score_lexicon"),
    ("sentiment", "category_distribution", "sentiment.category_distribution"),
    ("syntax", "load_parses", "syntax.load_parses"),
    ("syntax", "distinctive_verbs", "syntax.distinctive_verbs"),
    ("syntax", "verb_noun_pairs", "syntax.verb_noun_pairs"),
    ("topics", "train", "topics.train"),
    ("topics", "save_model", "topics.save_model"),
    ("topics", "load_model", "topics.load_model"),
    ("topics", "classify_all", "topics.classify_all"),
    ("topics", "derive_gold", "topics.derive_gold"),
    ("topics", "evaluate", "topics.evaluate"),
    ("topics", "run_sweep", "gibbs.run_sweep"),
    ("_gibbs", "_build", "gibbs.build"),
)


class Tracer:
    """Spans of wrapped calls, kept in flat arrays until the process ends."""

    def __init__(self):
        self.names = [name for _, _, name in LAYERS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.stem_inputs: set[str] = set()

    def _wrap(self, nid: int, fn, after=None):
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key: str, size):
        def after(args, result):
            self.counts[key] += size(args, result)
        return after

    def install(self) -> None:
        after = {
            "porter.stem": lambda args, result: self.stem_inputs.add(args[0]),
            "syntax.load_parses": self._count(
                "syntax.load_parses.trees", lambda args, result: len(result)),
            "gibbs.run_sweep": self._count(
                "gibbs.tokens", lambda args, result: len(args[0])),
        }
        for nid, (module, attr, name) in enumerate(LAYERS):
            mod = importlib.import_module(f"tagtopics.{module}")
            setattr(mod, attr, self._wrap(nid, getattr(mod, attr), after.get(name)))

    def write(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="directory holding tagtopics")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from tagtopics import _gibbs, cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    result: dict = {}
    if args.setup:
        result["backend"] = "c" if "c" in _gibbs.backends() else "python"
        rc, seconds = 0, 0.0
    else:
        start = time.perf_counter()
        rc = cli.main(args.argv)
        seconds = time.perf_counter() - start
    result.update(rc=rc, seconds=seconds,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.write(args.result + ".npz")
        result["span_names"] = tracer.names
        result["counts"] = dict(tracer.counts, **{
            "porter.stem.distinct": len(tracer.stem_inputs)})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
