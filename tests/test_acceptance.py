"""Acceptance gate.

One test per headline guarantee of the toolkit, each printing a single
`[acceptance] N: PASS/FAIL - description` line (visible with `pytest -s`).
These run the real implementations end to end at the stated tolerances; the
unit suites cover the same code at finer grain.
"""

import ctypes
import hashlib
import itertools
import json
import math
import platform
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tagtopics import _gibbs, cli
from tagtopics._gibbs import run_sweep
from tagtopics.lexstats import chi2_2x2
from tagtopics.sentiment import SentimentLabel, category_distribution
from tagtopics.syntax import (
    DependencyTree,
    ParseNode,
    distinctive_verbs,
    load_parses,
    serialize_parses,
    verb_noun_pairs,
)
from tagtopics.corpus import load_taxonomy
from tagtopics.textprep import TokenizedDoc, _echo_terms
from tagtopics.topics import SeedSpec, TrainSettings, classify_all, evaluate, train

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num}: FAIL - {desc}")
        raise
    else:
        print(f"[acceptance] {num}: PASS - {desc}")


# ---------------------------------------------------------------------------
# 1. seeded recovery on a planted corpus


def planted_corpus():
    rng = np.random.default_rng(424242)
    v = 500
    vocab = np.array([f"w{i:03d}" for i in range(v)])
    word_dists = rng.dirichlet(np.full(v, 0.1), size=5)
    docs = []
    for d in range(2000):
        words = rng.choice(v, size=15, p=word_dists[d % 5])
        docs.append(TokenizedDoc(f"doc{d:04d}", tuple(vocab[words])))
    used: set[int] = set()
    seeds: dict[str, list[str]] = {}
    for t in range(5):
        chosen: list[str] = []
        for w in np.argsort(-word_dists[t]):
            if int(w) not in used:
                chosen.append(str(vocab[int(w)]))
                used.add(int(w))
            if len(chosen) == 4:
                break
        seeds[f"cat{t}"] = chosen
    gold = {f"doc{d:04d}": f"cat{d % 5}" for d in range(2000)}
    return docs, seeds, gold


def test_criterion_01_seeded_recovery():
    with criterion(
        1,
        "planted 5-topic corpus recovered at accuracy >= 0.80 within 60 s, "
        "bit-identical on retrain",
    ):
        docs, seeds, gold = planted_corpus()
        spec = SeedSpec.from_mapping(seeds, unseeded=2)
        train(docs[:20], spec, TrainSettings(iterations=2, rng_seed=0))  # warms the kernel build

        start = time.perf_counter()
        model = train(docs, spec, TrainSettings(iterations=2000, rng_seed=20260822))
        elapsed = time.perf_counter() - start

        labels = classify_all(model, np.random.default_rng(1))
        report = evaluate(labels, gold)
        assert report.accuracy >= 0.80, f"accuracy {report.accuracy:.4f}"
        assert elapsed <= 60.0, f"training took {elapsed:.1f} s"

        rerun = train(docs, spec, TrainSettings(iterations=2000, rng_seed=20260822))
        np.testing.assert_array_equal(model.n_dt, rerun.n_dt)
        np.testing.assert_array_equal(model.n_tw, rerun.n_tw)
        np.testing.assert_array_equal(model.n_t, rerun.n_t)
        for name in ("z", "word_of", "offsets"):
            np.testing.assert_array_equal(getattr(model, name), getattr(rerun, name))


# ---------------------------------------------------------------------------
# 2. sampler conditionals and count invariants


def topic_weights(nd, nw, nt, alpha, word_prior, prior_total):
    """The collapsed conditional of one token, counts without the token: the
    formula tests/test_topics.py's kernel replay computes."""
    return (nd + alpha) * (nw + word_prior) / (nt + prior_total)


class FixedDraws:
    """A generator stand-in whose every sweep reads the given draws: by
    random(n) on the Python backend, and on the C kernel by the bit
    generator's next_double under its lock, which the sampler takes once per
    sweep. A sweep that reads other than all of them fails."""

    def __init__(self, draws):
        self.draws, self.read = draws, 0
        next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(self._next_double)
        self.bit_generator = SimpleNamespace(lock=self, ctypes=SimpleNamespace(
            next_double=next_double, state_address=None))

    def random(self, n):
        assert n == len(self.draws), f"a sweep drew {n} uniforms, not {len(self.draws)}"
        return self.draws.copy()

    def _next_double(self, _state):
        # a ctypes callback cannot raise into the kernel: a read past the
        # end is counted and checked when the lock is released
        self.read += 1
        return float(self.draws[self.read - 1]) if self.read <= len(self.draws) else 0.5

    def __enter__(self):
        self.read = 0

    def __exit__(self, exc_type, *exc_info):
        if exc_type is None:
            assert self.read == len(self.draws), (
                f"a sweep read {self.read} of its {len(self.draws)} draws")


def test_criterion_02_gibbs_conditionals():
    with criterion(
        2,
        "Gibbs conditional weights match the collapsed formula to 1e-12, "
        "every kernel draws by it, and count invariants hold after every sweep",
    ):
        # worked two-topic example with the token already removed
        got = topic_weights(
            np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([2.0, 1.0]),
            0.01, np.array([0.1, 0.1]), np.array([0.2, 0.2]),
        )
        assert abs(got[0] - 0.505) <= 1e-12
        assert abs(got[1] - 1 / 1200) <= 1e-12

        rng = np.random.default_rng(33)
        vocab = [f"v{i}" for i in range(20)]
        docs = [
            TokenizedDoc(
                f"d{i}",
                tuple(vocab[j] for j in rng.integers(0, 20, rng.integers(3, 12))),
            )
            for i in range(50)
        ]
        spec = SeedSpec.from_mapping({"A": ["v0"], "B": ["v1"]}, unseeded=1)
        # the sampler checks its counts against z when it closes, after the
        # final sweep, and an n-sweep run ends where a longer run is after
        # sweep n: any bookkeeping drift in the first 10 sweeps raises
        # inside train
        for sweeps in range(11):
            model = train(docs, spec, TrainSettings(iterations=sweeps, rng_seed=9))

        state = model.sweep_state()
        prior, prior_total, alpha = state.word_prior, state.prior_total, model.settings.alpha
        for d in (0, 17, 49):
            w = int(model.word_of[model.offsets[d]])
            t_cur = int(model.z[model.offsets[d]])
            nd = model.n_dt[d].astype(np.float64).copy()
            nw = model.n_tw[w].astype(np.float64).copy()
            nt = model.n_t.astype(np.float64).copy()
            nd[t_cur] -= 1
            nw[t_cur] -= 1
            nt[t_cur] -= 1
            weights = topic_weights(nd, nw, nt, alpha, prior[w], prior_total)
            for t in range(model.num_topics):
                want = (
                    (nd[t] + alpha)
                    * (nw[t] + prior[w][t])
                    / (nt[t] + prior_total[t])
                )
                assert abs(weights[t] - want) <= 1e-12
                assert weights[t] > 0

        # every kernel draws by the formula: the sweep's first token sees the
        # counts above, less itself, and a draw at the middle of topic t's
        # interval of the cumulative weights, or near either end of it, must
        # send it to topic t
        w, t_cur = int(model.word_of[0]), int(model.z[0])
        counts = [table.astype(np.float64) for table in (model.n_dt[0], model.n_tw[w], model.n_t)]
        for table in counts:
            table[t_cur] -= 1
        weights = topic_weights(*counts, alpha, prior[w], prior_total)
        ends = np.cumsum(weights)
        for name, factory in _gibbs.backends().items():
            for t, share in itertools.product(range(model.num_topics), (0.5, 0.001, 0.999)):
                u = (ends[t] - (1 - share) * weights[t]) / ends[-1]
                # a copy of z, the one array the sampler writes, so each
                # sweep starts from the trained model
                own = replace(state, z=state.z.copy())
                draws = np.full(len(own.z), 0.5)
                draws[0] = u
                with factory(own) as sampler:
                    run_sweep(sampler, FixedDraws(draws))
                assert own.z[0] == t, f"{name} kernel sent a draw of {u} to {own.z[0]}, not {t}"


# ---------------------------------------------------------------------------
# 3. chi-square closed form


def chi2_fraction_oracle(o11, o12, o21, o22):
    n = o11 + o12 + o21 + o22
    r = (o11 + o12, o21 + o22)
    c = (o11 + o21, o12 + o22)
    if n == 0 or 0 in r or 0 in c:
        return Fraction(0)
    total = Fraction(0)
    observed = ((o11, o12), (o21, o22))
    for i in range(2):
        for j in range(2):
            e = Fraction(r[i] * c[j], n)
            total += (observed[i][j] - e) ** 2 / e
    return total


def test_criterion_03_chi_square():
    with criterion(
        3,
        "chi-square closed form matches the exact expected-count oracle on "
        "1000 random tables (1e-9; worked example to 1e-12)",
    ):
        assert abs(chi2_2x2(2, 1, 1, 6) - 1210 / 441) <= 1e-12
        rng = np.random.default_rng(64)
        for _ in range(1000):
            o = [int(x) for x in rng.integers(0, 61, size=4)]
            got = chi2_2x2(*o)
            want = float(chi2_fraction_oracle(*o))
            assert abs(got - want) <= 1e-9, o


# ---------------------------------------------------------------------------
# 4. evaluation metrics


def metrics_fraction_oracle(pred, gold):
    labels = sorted(set(gold.values()) | set(pred.values()))
    pairs = Counter((gold[k], pred[k]) for k in gold)
    total = len(gold)
    correct = sum(pairs[(c, c)] for c in labels)
    per = {}
    for c in labels:
        tp = pairs[(c, c)]
        fp = sum(pairs[(g, c)] for g in labels) - tp
        fn = sum(pairs[(c, p)] for p in labels) - tp
        prec = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        rec = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else Fraction(0)
        per[c] = (prec, rec, f1, tp, fp, fn)
    gold_classes = sorted(set(gold.values()))
    g = len(gold_classes)
    macro = tuple(
        sum(per[c][i] for c in gold_classes) / g for i in range(3)
    )
    tp_s = sum(per[c][3] for c in gold_classes)
    fp_s = sum(per[c][4] for c in gold_classes)
    fn_s = sum(per[c][5] for c in gold_classes)
    micro_p = Fraction(tp_s, tp_s + fp_s) if tp_s + fp_s else Fraction(0)
    micro_r = Fraction(tp_s, tp_s + fn_s) if tp_s + fn_s else Fraction(0)
    micro_f = (
        2 * micro_p * micro_r / (micro_p + micro_r)
        if micro_p + micro_r
        else Fraction(0)
    )
    return Fraction(correct, total), per, macro, (micro_p, micro_r, micro_f)


def test_criterion_04_evaluation_metrics():
    with criterion(
        4,
        "confusion-matrix metrics match exact rational brute force on 1000 "
        "random runs (ratios exact, averages and F1 to 1e-12)",
    ):
        report = evaluate(
            {"1": "a", "2": "a", "3": "a", "4": "b"},
            {"1": "a", "2": "a", "3": "b", "4": "b"},
        )
        assert report.matrix == ((2, 0), (1, 1))
        assert report.accuracy == 0.75
        assert abs(report.macro.precision - 5 / 6) <= 1e-12

        rng = np.random.default_rng(81)
        gold_pool = ["north", "south", "east"]
        pred_pool = gold_pool + ["unassigned"]
        for _ in range(1000):
            n = int(rng.integers(1, 41))
            gold = {str(i): gold_pool[rng.integers(3)] for i in range(n)}
            pred = {str(i): pred_pool[rng.integers(4)] for i in range(n)}
            report = evaluate(pred, gold)
            acc, per, macro, micro = metrics_fraction_oracle(pred, gold)
            assert report.accuracy == float(acc)
            for c in report.labels:
                m = report.per_class[c]
                prec, rec, f1 = per[c][:3]
                assert m.precision == float(prec)
                assert m.recall == float(rec)
                assert abs(m.f1 - float(f1)) <= 1e-12
            assert abs(report.macro.precision - float(macro[0])) <= 1e-12
            assert abs(report.macro.recall - float(macro[1])) <= 1e-12
            assert abs(report.macro.f1 - float(macro[2])) <= 1e-12
            assert report.micro.precision == float(micro[0])
            assert report.micro.recall == float(micro[1])
            assert abs(report.micro.f1 - float(micro[2])) <= 1e-12


# ---------------------------------------------------------------------------
# 5. tf-idf annihilation for distinctive verbs


def one_verb_tree(tid, verb):
    return DependencyTree(
        tweet_id=tid,
        nodes=(ParseNode(1, verb.title(), verb, "VERB", 0, "root"),),
    )


def test_criterion_05_tfidf_annihilation():
    with criterion(
        5,
        "a verb used in every group is dropped from all distinctive-verb "
        "profiles; a single group keeps everything under ln 2 idf",
    ):
        groups = {
            "A": [one_verb_tree("a1", "share"), one_verb_tree("a2", "alpha"),
                  one_verb_tree("a3", "alpha")],
            "B": [one_verb_tree("b1", "share"), one_verb_tree("b2", "bravo")],
            "C": [one_verb_tree("c1", "share"), one_verb_tree("c2", "charlie"),
                  one_verb_tree("c3", "bravo")],
        }
        by_name = {p.category: p.verbs for p in distinctive_verbs(groups)}
        for verbs in by_name.values():
            assert "share" not in {lemma for lemma, _, _ in verbs}
        assert [v[:2] for v in by_name["A"]] == [("alpha", 2)]
        assert abs(by_name["A"][0][2] - 2 * math.log(3)) <= 1e-12
        assert [v[:2] for v in by_name["C"]] == [("bravo", 1), ("charlie", 1)]
        assert abs(by_name["C"][0][2] - math.log(1.5)) <= 1e-12

        (solo,) = distinctive_verbs({"solo": groups["A"]})
        assert [v[:2] for v in solo.verbs] == [("alpha", 2), ("share", 1)]
        for _, count, score in solo.verbs:
            assert abs(score - count * math.log(2)) <= 1e-12


# ---------------------------------------------------------------------------
# 6. exact sentiment renormalization


def test_criterion_06_sentiment_shares():
    with criterion(
        6,
        "neutral-excluded shares renormalize exactly: worked example "
        "(10,20,50,15,5) -> (20,40,30,10)% and 10000 random corpora sum to "
        "exactly 100",
    ):
        order = [
            SentimentLabel.STRONGLY_POSITIVE,
            SentimentLabel.POSITIVE,
            SentimentLabel.NEUTRAL,
            SentimentLabel.NEGATIVE,
            SentimentLabel.STRONGLY_NEGATIVE,
        ]
        labels = {}
        i = 0
        for label, count in zip(order, (10, 20, 50, 15, 5)):
            for _ in range(count):
                labels[f"t{i}"] = label
                i += 1
        membership = {tid: ["all"] for tid in labels}
        (dist,) = category_distribution(labels, membership)
        assert dist.shares[SentimentLabel.STRONGLY_POSITIVE] == 20
        assert dist.shares[SentimentLabel.POSITIVE] == 40
        assert dist.shares[SentimentLabel.NEGATIVE] == 30
        assert dist.shares[SentimentLabel.STRONGLY_NEGATIVE] == 10

        rng = np.random.default_rng(17)
        all_labels = list(SentimentLabel)
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            trial = {f"t{i}": all_labels[rng.integers(5)] for i in range(n)}
            (dist,) = category_distribution(trial, {t: ["g"] for t in trial})
            total = sum(dist.shares.values())
            if dist.insufficient_data:
                assert total == 0
            else:
                assert isinstance(total, Fraction) and total == 100


# ---------------------------------------------------------------------------
# 7. verb->noun extraction on the reference parses


def test_criterion_07_verb_noun_extraction():
    with criterion(
        7,
        "verb->noun tables on the 10-tree reference fixture match the "
        "hand-derived values, with pronoun arguments excluded",
    ):
        trees = load_parses(DATA / "parses.conllu")
        assert len(trees) == 10
        expected = {
            "deal": (("anxiety", 1),),  # pronoun subject excluded
            "read": (("book", 1), ("student", 1)),
            "close": (("school", 1), ("teacher", 1)),
            "buy": (("paper", 2), ("people", 1), ("store", 1)),
            "sing": (),
            "bark": (("dog", 1), ("mailman", 1)),
            "visit": (("alice", 1), ("paris", 1)),
            "run": (("paper", 1),),
        }
        for verb, nouns in expected.items():
            assert verb_noun_pairs(trees, verb).nouns == nouns, verb


# ---------------------------------------------------------------------------
# 8. deterministic end-to-end pipeline


THEMES = {
    "Gadgets": ("#gadgetweek",
                ["widget", "gizmo", "battery", "screen", "charger", "sensor",
                 "firmware", "pixel"]),
    "Cooking": ("#dinnertime",
                ["recipe", "garlic", "skillet", "flavor", "butter", "roast",
                 "simmer", "herbs"]),
    "Hiking": ("#trailday",
               ["summit", "ridge", "boots", "compass", "valley", "trailhead",
                "scramble", "cairn"]),
}

PIPELINE_ARTIFACTS = (
    "trends.csv", "words.csv", "bigrams.csv", "sentiment.csv", "verbs.csv",
    "pairs.csv", "model.json", "assignments.csv", "report.json", "summary.json",
)


def build_synthetic(tmp: Path) -> None:
    rng = np.random.default_rng(555)
    names = list(THEMES)
    mood = ["love", "great", "awful", "terrible", "happy", "sad"]
    records = []
    for i in range(500):
        cat = names[i % 3]
        tag, words = THEMES[cat]
        toks = [words[int(j)] for j in rng.integers(0, len(words), rng.integers(6, 10))]
        if i % 4 == 0:
            toks.append(mood[int(rng.integers(len(mood)))])
        tags = [tag]
        if i % 11 == 0:
            tags.append(THEMES[names[(i + 1) % 3]][0])
        if i % 17 == 0:
            tags = []
        records.append({
            "id": f"s{i:03d}",
            "created_at": f"2022-03-{1 + i % 10:02d}T12:00:00Z",
            "text": " ".join(toks + tags),
        })
    (tmp / "corpus.jsonl").write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    (tmp / "taxonomy.json").write_text(
        json.dumps({name: [THEMES[name][0]] for name in names}), encoding="utf-8"
    )
    (tmp / "seeds.json").write_text(
        json.dumps({
            "Gadgets": ["widget", "gizmo"],
            "Cooking": ["recipe", "garlic"],
            "Hiking": ["summit", "ridge"],
        }),
        encoding="utf-8",
    )
    verb_sets = {"Gadgets": ("charge", "battery"), "Cooking": ("roast", "garlic"),
                 "Hiking": ("climb", "ridge")}
    trees = []
    for i in range(0, 500, 5):
        verb, noun = verb_sets[names[i % 3]]
        trees.append(DependencyTree(
            tweet_id=f"s{i:03d}",
            nodes=(
                ParseNode(1, "People", "people", "NOUN", 2, "nsubj"),
                ParseNode(2, verb.title(), verb, "VERB", 0, "root"),
                ParseNode(3, noun, noun, "NOUN", 2, "dobj"),
            ),
        ))
    (tmp / "parses.conllu").write_text(serialize_parses(trees), encoding="utf-8")


def run_pipeline(data: Path, out: Path, train_flags=("--iters", "200")) -> None:
    base = ["--corpus", str(data / "corpus.jsonl"),
            "--taxonomy", str(data / "taxonomy.json")]
    parses = ["--parses", str(data / "parses.conllu")]
    dest = ["--out", str(out)]
    calls = [
        ["trends", *base, *dest],
        ["words", *base, *dest],
        ["bigrams", *base, "--min-count", "2", *dest],
        ["sentiment", *base, *dest],
        ["verbs", *base, *parses, *dest],
        ["pairs", *base, *parses, *dest],
        ["topics-train", *base, "--seed-file", str(data / "seeds.json"),
         *train_flags, *dest],
        ["topics-classify", *dest],
        ["topics-eval", *base, *dest],
        ["report", *dest],
    ]
    for argv in calls:
        assert cli.main(argv) == 0, argv


def test_criterion_08_pipeline_determinism(tmp_path, capsys):
    with criterion(
        8,
        "500-tweet synthetic corpus through every subcommand: byte-identical "
        "artifacts across two runs, one pass <= 10 s, accuracy >= 0.85",
    ):
        build_synthetic(tmp_path)
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        run_pipeline(tmp_path, out_a)  # also warms the kernel build
        start = time.perf_counter()
        run_pipeline(tmp_path, out_b)
        elapsed = time.perf_counter() - start
        capsys.readouterr()  # drop the subcommand summary lines

        for name in PIPELINE_ARTIFACTS:
            a, b = out_a / name, out_b / name
            assert a.exists(), name
            assert a.read_bytes() == b.read_bytes(), name

        report = json.loads((out_a / "report.json").read_text(encoding="utf-8"))
        assert report["accuracy"] >= 0.85, report["accuracy"]
        assert elapsed <= 10.0, f"pipeline pass took {elapsed:.1f} s"


def test_pipeline_model_reads_no_echo_term(tmp_path, capsys):
    # criterion 8's gold labels come from the theme hashtags, so the model
    # must train on none of their terms
    build_synthetic(tmp_path)
    assert cli.main(["topics-train", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--taxonomy", str(tmp_path / "taxonomy.json"),
                     "--seed-file", str(tmp_path / "seeds.json"), "--iters", "0",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    echo = _echo_terms(load_taxonomy(tmp_path / "taxonomy.json"), frozenset())
    assert len(model["doc_ids"]) == 500
    assert not set(model["vocabulary"]) & echo


# ---------------------------------------------------------------------------
# golden artifact digests: the pipeline's bytes pinned across trees


GOLDEN = DATA / "golden.json"


def golden_digests(tmp: Path) -> dict[str, dict[str, str]]:
    """sha256 of every pipeline artifact, run in-process as criterion 8 runs
    it, for criterion 8's corpus and for tests/data with fixed flags; the one
    function behind both the test and tests/update_golden.py."""
    synthetic = tmp / "synthetic"
    synthetic.mkdir()
    build_synthetic(synthetic)
    inputs = {"synthetic": (synthetic, ("--iters", "200")),
              "tests_data": (DATA, ("--alpha", "1", "--iters", "50"))}
    digests = {}
    for name, (data, train_flags) in inputs.items():
        out = tmp / f"out_{name}"
        run_pipeline(data, out, train_flags)
        digests[name] = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                         for artifact in PIPELINE_ARTIFACTS}
    return digests


def test_golden_artifact_digests(tmp_path, capsys):
    """Every artifact has the bytes tests/data/golden.json records, on every
    sampler backend. Criterion 8 compares two runs of one tree, so it cannot
    see a change that alters bytes the same way twice; this test can. A
    change that alters bytes on purpose regenerates the file with
    tests/update_golden.py and says in CHANGES.md which digests changed and
    why. Two causes besides this code can move a digest, and the failure
    names the artifact and both version pairs so they can be told apart:
    numpy's Generator streams may change between releases (NEP 19), and
    math.log in distinctive_verbs comes from the platform's libm. If a
    release breaks the digests, record a second digest set for it; never
    loosen the check."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_digests(tmp_path)
    capsys.readouterr()  # drop the subcommand summary lines
    wrong = [f"{name}/{artifact}" for name, table in golden["digests"].items()
             for artifact, digest in table.items() if got[name][artifact] != digest]
    assert not wrong and got == golden["digests"], (
        f"artifact digests differ from {GOLDEN.name}: {', '.join(wrong) or 'its keys'}; "
        f"recorded with Python {golden['python']}, numpy {golden['numpy']}; running "
        f"Python {platform.python_version()}, numpy {np.__version__}")
