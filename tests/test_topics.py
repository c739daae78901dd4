"""Seeded LDA: seed specs, the Gibbs kernel against a pure-Python replay,
training determinism and invariants, classification, evaluation metrics,
gold-label derivation, and model persistence."""

import ctypes
import gc
import json
import math
import re
import shutil
import tracemalloc
import weakref
from dataclasses import astuple, fields, replace
from itertools import pairwise, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagtopics import _gibbs, topics as topics_mod
from tagtopics._gibbs import SweepState, run_sweep
from tagtopics.errors import DataError
from tagtopics.textprep import TokenizedDoc
from tagtopics.topics import (
    MAX_TOPICS,
    UNASSIGNED,
    SeededLdaModel,
    SeedSpec,
    TrainSettings,
    classify_all,
    derive_gold,
    doc_topic_distribution,
    evaluate,
    load_model,
    save_model,
    train,
)

DATA = Path(__file__).parent / "data"
# numpy's BitGenerator.ctypes.next_double: a uniform in [0, 1) from the state
NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


def doc(i, *tokens):
    return TokenizedDoc(f"d{i}", tuple(tokens))


class TestSeedSpec:
    def test_from_mapping_casefolds(self):
        spec = SeedSpec.from_mapping({"A": ["Storm", "RAIN"]}, unseeded=1)
        assert spec.seeded == (("A", frozenset({"storm", "rain"})),)
        assert spec.unseeded == 1

    def test_from_json_fixture(self):
        spec = SeedSpec.from_json_file(DATA / "seeds.json")
        assert [name for name, _ in spec.seeded] == ["Music", "Sports", "Weather"]
        assert frozenset({"storm", "rain", "heat", "lightning"}) == spec.seeded[2][1]
        assert spec.unseeded == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(seeded=(("A", frozenset({"x"})), ("A", frozenset({"y"}))))

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(seeded=(("A", frozenset()),))

    def test_negative_unseeded_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(seeded=(), unseeded=-1)

    def test_zero_topics_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(seeded=(), unseeded=0)

    @pytest.mark.parametrize("unseeded", [True, 1.0])
    def test_unseeded_must_be_an_int(self, unseeded):
        # True used to train a model load_model rejects; 1.0 failed in numpy
        with pytest.raises(TypeError, match="unseeded topic count must be an int"):
            SeedSpec.from_mapping({"A": ["x"]}, unseeded=unseeded)

    def test_unseeded_only_allowed(self):
        assert SeedSpec(seeded=(), unseeded=3).unseeded == 3

    def test_topic_count_capped(self):
        # train builds a V x K table, so K is capped before it is
        assert SeedSpec(seeded=(("A", frozenset({"x"})),), unseeded=MAX_TOPICS - 1)
        with pytest.raises(ValueError, match=f"need 1 to {MAX_TOPICS} topics"):
            SeedSpec(seeded=(("A", frozenset({"x"})),), unseeded=MAX_TOPICS)

    @pytest.mark.parametrize("mapping, unseeded", [
        ({"A": [], "B": ["x"]}, 2), ({}, 0), ({"A": ["x"]}, 1000)])
    def test_bad_spec_in_a_file_names_it(self, tmp_path, mapping, unseeded):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(str(path))):
            SeedSpec.from_json_file(path, unseeded=unseeded)

    def test_bad_json_files(self, tmp_path):
        broken = tmp_path / "bad.json"
        broken.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            SeedSpec.from_json_file(broken)
        broken.write_text('["list"]', encoding="utf-8")
        with pytest.raises(DataError):
            SeedSpec.from_json_file(broken)
        broken.write_text('{"A": "notalist"}', encoding="utf-8")
        with pytest.raises(DataError):
            SeedSpec.from_json_file(broken)


def topic_weights(doc_topic_counts, word_topic_counts, topic_totals, alpha, word_prior,
                  prior_total):
    """Unnormalized conditional weights for one token, given counts with the
    token already removed: the collapsed formula both kernels must follow,
    and the reference :func:`replay_sweep` computes them with."""
    return ((doc_topic_counts + alpha) * (word_topic_counts + word_prior)
            / (topic_totals + prior_total))


class TestTopicWeights:
    def test_worked_example(self):
        # two topics; token removed already; symmetric prior 0.1 / 0.2
        w = topic_weights(
            doc_topic_counts=np.array([1.0, 0.0]),
            word_topic_counts=np.array([1.0, 0.0]),
            topic_totals=np.array([2.0, 1.0]),
            alpha=0.01,
            word_prior=np.array([0.1, 0.1]),
            prior_total=np.array([0.2, 0.2]),
        )
        assert abs(w[0] - 0.505) <= 1e-12  # 1.01 * 1.1 / 2.2
        assert abs(w[1] - 1 / 1200) <= 1e-12  # 0.01 * 0.1 / 1.2

    def test_seed_bias_raises_weight(self):
        base = topic_weights(
            np.zeros(2), np.zeros(2), np.ones(2), 0.01,
            np.array([0.0001, 0.0001]), np.array([0.01, 0.01]),
        )
        biased = topic_weights(
            np.zeros(2), np.zeros(2), np.ones(2), 0.01,
            np.array([0.5001, 0.0001]), np.array([0.51, 0.01]),
        )
        assert biased[0] > base[0]


class TestWordPrior:
    def test_shapes_and_values(self):
        spec = SeedSpec.from_mapping({"A": ["a"], "B": ["b", "zz"]}, unseeded=1)
        model = train([doc(1, "a", "b", "c")], spec, TrainSettings(iterations=0, rng_seed=0))
        state = model.sweep_state()
        prior, total = state.word_prior, state.prior_total
        v, k = len(model.vocabulary), 3
        assert prior.shape == (v, k) and total.shape == (k,)
        a = model.vocabulary.index("a")
        c = model.vocabulary.index("c")
        beta, mu = model.settings.beta, model.settings.mu
        assert prior[a, 0] == pytest.approx(beta + mu)
        assert prior[a, 1] == beta
        assert prior[c, 2] == beta
        # "zz" never entered the vocabulary, so topic B counts one seed
        assert total[0] == pytest.approx(v * beta + mu)
        assert total[1] == pytest.approx(v * beta + mu)
        assert total[2] == pytest.approx(v * beta)


def token_docs(offsets):
    """The document of each token, from offsets that cut the tokens into
    documents."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


ARRAYS = ("z", "offsets", "word_of", "word_prior", "prior_total")
# the one array the sampler writes; its close checks its counts against it
WRITTEN = ("z",)


def copied(state):
    """state over copies of its arrays."""
    return replace(state, **{name: getattr(state, name).copy() for name in ARRAYS})


def assert_fields_equal(got, want, names=ARRAYS, err_msg=""):
    for name in names:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=f"{err_msg} {name}")


def counted(state):
    """n_dt, n_tw and n_t of state.z, counted token by token."""
    (v, k), doc_of = state.word_prior.shape, token_docs(state.offsets)
    n_dt = np.zeros((len(state.offsets) - 1, k), dtype=np.int64)
    n_tw = np.zeros((v, k), dtype=np.int64)
    np.add.at(n_dt, (doc_of, state.z), 1)
    np.add.at(n_tw, (state.word_of, state.z), 1)
    return n_dt, n_tw, n_dt.sum(axis=0)


def replay_sweep(state, u):
    """Pure-Python mirror of the kernel, accumulating in the same order, over
    state.z in place and counts taken from it."""
    z, word_of = state.z, state.word_of
    n_dt, n_tw, n_t = counted(state)
    prior, prior_total, alpha = state.word_prior, state.prior_total, state.alpha
    k = n_t.shape[0]
    doc_of = token_docs(state.offsets)
    for i in range(len(z)):
        d, w, t = doc_of[i], word_of[i], z[i]
        n_dt[d, t] -= 1
        n_tw[w, t] -= 1
        n_t[t] -= 1
        weights = topic_weights(n_dt[d], n_tw[w], n_t, alpha, prior[w], prior_total)
        total = np.float64(0.0)
        for tt in range(k):
            total += weights[tt]
            assert 0.0 < total < np.inf, "a running sum is not positive and finite"
        r = u[i] * total
        new_t = k - 1
        acc = np.float64(0.0)
        for tt in range(k):
            acc += weights[tt]
            if r < acc:
                new_t = tt
                break
        z[i] = new_t
        n_dt[d, new_t] += 1
        n_tw[w, new_t] += 1
        n_t[new_t] += 1


class Draws:
    """A generator stand-in that hands each sweep the next of the given
    draws, so a test chooses every uniform a sweep reads: the Python
    backend takes them by random(n), the C kernel one call at a time of the
    bit generator's next_double, under its lock, which the sampler takes
    once per sweep. A sweep that reads other than all N draws fails."""

    def __init__(self, draws):
        self._draws, self._sweep, self._read = iter(draws), [], 0
        self.bit_generator = SimpleNamespace(lock=self, ctypes=SimpleNamespace(
            next_double=NEXT_DOUBLE(self._next_double), state_address=None))

    def random(self, n):
        draws = np.array(next(self._draws), dtype=np.float64)
        assert n == len(draws), f"a sweep drew {n} uniforms, not {len(draws)}"
        return draws

    def _next_double(self, _state):
        # a ctypes callback cannot raise into the kernel: a read past the
        # end is counted and checked when the lock is released
        self._read += 1
        return float(self._sweep[self._read - 1]) if self._read <= len(self._sweep) else 0.5

    def __enter__(self):
        self._sweep, self._read = next(self._draws), 0

    def __exit__(self, exc_type, *exc_info):
        if exc_type is None:
            assert self._read == len(self._sweep), (
                f"a sweep read {self._read} of its {len(self._sweep)} draws")


def sweep_through(factory, state, draws):
    """Open one sampler over `state` and run one sweep per entry of draws."""
    rng = Draws(draws)
    with factory(state) as sampler:
        for _ in draws:
            run_sweep(sampler, rng)


class TestKernel:
    def setup_state(self, rng, d_count=6, v=9, k=4, n=60, lengths=None, alpha=0.01,
                    beta=0.0001, mu=0.5):
        # n tokens in d_count documents of random length, or documents of
        # the given lengths, and word prior beta, plus mu on three entries
        if lengths is None:
            lengths = np.bincount(rng.integers(0, d_count, n), minlength=d_count)
        offsets = np.cumsum([0, *lengths], dtype=np.int64)
        d_count, n = len(lengths), int(offsets[-1])
        word_of = rng.integers(0, v, n).astype(np.int32)
        z = rng.integers(0, k, n).astype(np.int32)
        prior = np.full((v, k), beta)
        prior[rng.integers(0, v, 3), rng.integers(0, k, 3)] += mu
        prior_total = prior.sum(axis=0)
        return SweepState(z, offsets, word_of, prior, prior_total, alpha)

    def test_kernel_matches_pure_python_replay(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            state = self.setup_state(rng)
            u = rng.random(len(state.z))
            kernel_state, replay_state = copied(state), copied(state)
            sweep_through(_gibbs.open_sampler, kernel_state, [u])
            replay_sweep(replay_state, u)
            assert_fields_equal(kernel_state, replay_state)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 16])
    def test_backends_agree_with_each_other_and_replay(self, k):
        # five sweeps through one sampler equal five replayed sweeps
        rng = np.random.default_rng(100 + k)
        kernels = _gibbs.backends()
        assert "python" in kernels
        # the last shape has empty documents first, in the middle and last
        for shape in ({"d_count": 1, "v": 3, "n": 1}, {"d_count": 4, "v": 9, "n": 60},
                      {"d_count": 30, "v": 50, "n": 400},
                      {"d_count": 250, "v": 400, "n": 5000},
                      {"v": 9, "lengths": [0, 0, 5, 0, 1, 7, 0, 0, 3, 0]}):
            state = self.setup_state(rng, k=k, **shape)
            n = len(state.z)
            runs = {name: copied(state) for name in kernels}
            replay = copied(state)
            draws = [rng.random(n) for _ in range(5)]
            for name, factory in kernels.items():
                sweep_through(factory, runs[name], draws)
            for u in draws:
                replay_sweep(replay, u)
            for name, got_state in runs.items():
                assert_fields_equal(got_state, replay, WRITTEN, name)

    @pytest.mark.parametrize("sweeps", [1, 4])
    def test_sweeps_draw_one_uniform_per_token_from_the_generator(self, sweeps):
        # a sweep reads the doubles one rng.random(N) gives, on every backend
        # and for every bit generator: k sweeps from a generator equal k
        # replayed sweeps on a clone's random(N), and leave the two
        # generators in the same state; shapes with one token, with empty
        # documents first, in the middle and last, and with 400 tokens
        rng = np.random.default_rng(31)
        shapes = ({"d_count": 1, "v": 3, "n": 1},
                  {"v": 9, "lengths": [0, 0, 5, 0, 1, 7, 0, 0, 3, 0]},
                  {"d_count": 30, "v": 50, "n": 400})
        factories = {"open_sampler": _gibbs.open_sampler, **_gibbs.backends()}
        for bit_generator in (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                              np.random.Philox, np.random.SFC64):
            for seed, shape in zip((41, 42, 43), shapes):
                state = self.setup_state(rng, **shape)
                replay = copied(state)
                clone = np.random.Generator(bit_generator(seed))
                for _ in range(sweeps):
                    replay_sweep(replay, clone.random(len(state.z)))
                for name, factory in factories.items():
                    label = f"{name} on {bit_generator.__name__}({seed})"
                    got, drawn = copied(state), np.random.Generator(bit_generator(seed))
                    with factory(got) as sampler:
                        for _ in range(sweeps):
                            run_sweep(sampler, drawn)
                    assert_fields_equal(got, replay, WRITTEN, label)
                    # MT19937 and Philox states hold arrays
                    np.testing.assert_equal(drawn.bit_generator.state,
                                            clone.bit_generator.state, err_msg=label)

    def test_backends_agree_on_a_settled_chain(self):
        # 200 sweeps through one sampler per backend on planted topics: each
        # document draws most words from its topic's six, two of them
        # seeded, so after the first sweeps most tokens keep their topic.
        # alpha and beta lie below half an ulp of 1.0, so a lowered count
        # of 0 gives the prior itself but (1 + prior) - 1 gives 0; the
        # one-token documents and rare words make that decide draws
        rng = np.random.default_rng(21)
        k, per_topic, rare, d_count, tiny = 4, 6, 30, 40, 1e-18
        lengths = rng.integers(1, 9, d_count)
        doc_of = np.repeat(np.arange(d_count, dtype=np.int32), lengths)
        n = len(doc_of)
        planted = rng.integers(0, k, d_count)[doc_of] * per_topic
        word_of = np.where(rng.random(n) < 0.9, planted + rng.integers(0, per_topic, n),
                           k * per_topic + rng.integers(0, rare, n)).astype(np.int32)
        z = rng.integers(0, k, n).astype(np.int32)
        prior = np.full((k * per_topic + rare, k), tiny)
        for t in range(k):
            prior[t * per_topic:t * per_topic + 2, t] += 0.5
        state = SweepState(z, np.cumsum([0, *lengths], dtype=np.int64), word_of, prior,
                           prior.sum(axis=0), tiny)
        draws = [rng.random(n) for _ in range(200)]
        kernels = _gibbs.backends()
        runs = {name: copied(state) for name in kernels}
        for name, factory in kernels.items():
            sweep_through(factory, runs[name], draws)
        replay = copied(state)
        for u in draws[:-1]:
            replay_sweep(replay, u)
        last = replay.z.copy()
        replay_sweep(replay, draws[-1])
        assert (replay.z != last).sum() < n / 10  # settled: few tokens move
        for name, got_state in runs.items():
            assert_fields_equal(got_state, replay, WRITTEN, name)

    def test_draws_on_a_weight_boundary_agree(self):
        # r = u * total placed on, and one step of u below, each running sum
        # of the first token's weights, with its old topic t first, in the
        # middle and last: a kernel whose sums differ from the replay's by
        # one ulp picks another topic there, and one whose test of t's own
        # bracket, weights[t - 1] <= r < weights[t], is off at either edge
        # keeps or moves the token wrongly
        rng = np.random.default_rng(11)
        kernels = _gibbs.backends()
        for _, old in product(range(4), (0, 3, 7)):
            state = self.setup_state(rng, k=8)
            state.z[0] = old
            s = copied(state)
            (n_dt, n_tw, n_t), prior, prior_total = counted(s), s.word_prior, s.prior_total
            d, w, t = token_docs(s.offsets)[0], s.word_of[0], s.z[0]
            n_dt[d, t] -= 1
            n_tw[w, t] -= 1
            n_t[t] -= 1
            sums, acc = [], 0.0
            for tt in range(8):
                acc += ((n_dt[d, tt] + 0.01) * (n_tw[w, tt] + prior[w, tt])
                        / (n_t[tt] + prior_total[tt]))
                sums.append(acc)
            for target in sums:
                # the largest u whose r lies below the sum, and the next u,
                # whose r lies on it or, where no u lands r there, just above
                below = target / acc
                while below * acc >= target:
                    below = np.nextafter(below, -np.inf)
                while np.nextafter(below, np.inf) * acc < target:
                    below = np.nextafter(below, np.inf)
                for first in (np.nextafter(below, np.inf), below):
                    u = rng.random(len(state.z))
                    u[0] = first
                    replay = copied(state)
                    replay_sweep(replay, u)
                    for name, factory in kernels.items():
                        got = copied(state)
                        sweep_through(factory, got, [u])
                        assert_fields_equal(got, replay, WRITTEN, name)

    @staticmethod
    def assert_refused_at_open(z, offsets, word_of, prior, prior_total=None):
        # alpha 0 and word priors of 0, where a weight total can reach zero:
        # check_weights refuses the state on every backend, z untouched
        prior = np.array(prior)
        state = SweepState(np.array(z, dtype=np.int32), np.array(offsets, dtype=np.int64),
                           np.array(word_of, dtype=np.int32), prior,
                           prior.sum(axis=0) if prior_total is None else prior_total, 0.0)
        for factory in (_gibbs.open_sampler, *_gibbs.backends().values()):
            before = copied(state)
            with pytest.raises(ValueError, match="leave 0 or inf possible"):
                factory(state)
            assert_fields_equal(state, before)

    def test_degenerate_weights_rejected(self):
        # zero prior and zero alpha leave every numerator at zero once the
        # lone token is removed, so the weight total cannot be positive
        self.assert_refused_at_open([0], [0, 1], [0], np.zeros((1, 2)), np.ones(2))

    def test_degenerate_total_mid_sweep_leaves_the_same_state(self):
        # token 3 is alone in document 1 and its word has no prior, so with
        # alpha = 0 its weights would all be zero once it is removed, after
        # document 0 was resampled; refused before the first draw
        self.assert_refused_at_open([0, 1, 0, 1, 1, 0], [0, 3, 4, 6], [0, 0, 0, 1, 0, 0],
                                    [[0.3, 0.2], [0.0, 0.0]])

    def test_degenerate_total_on_a_later_sweep_leaves_the_same_state(self):
        # alpha = 0. Token 6, whose word has a prior on topic 1 only, has a
        # zero weight total once token 0, the other token of its word, moves
        # to topic 1, which a later sweep may draw; refused before the first
        self.assert_refused_at_open([0, 0, 0, 1, 1, 0, 0], [0, 5, 7], [1, 2, 2, 3, 3, 0, 1],
                                    [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-300, 300), st.floats(-300, 300), st.floats(-300, 300),
           st.integers(0, 2 ** 32 - 1))
    @example(200, 200, 0, 1)  # every weight overflows
    @example(-200, -200, -300, 1)  # a weight underflows to zero
    @example(-150, -150, -300, 1)  # tiny, but every weight is positive
    def test_priors_the_check_accepts_sweep_on_every_backend(self, alpha, beta, mu, seed):
        # alpha and the prior scales log-uniform from 1e-300 to 1e300: a
        # state check_weights accepts sweeps alike on every backend, and
        # replay_sweep asserts that each of its running sums is positive and
        # finite; a state it rejects, every backend refuses
        rng = np.random.default_rng(seed)
        state = self.setup_state(rng, alpha=10.0 ** alpha, beta=10.0 ** beta, mu=10.0 ** mu)
        draws = [rng.random(len(state.z)) for _ in range(2)]
        try:
            _gibbs.check_weights(state)
        except ValueError:
            for factory in _gibbs.backends().values():
                with pytest.raises(ValueError, match="leave 0 or inf possible"):
                    factory(state)
            return
        replay = copied(state)
        for u in draws:
            replay_sweep(replay, u)
        for name, factory in _gibbs.backends().items():
            got = copied(state)
            sweep_through(factory, got, draws)
            assert_fields_equal(got, replay, WRITTEN, name)

    @pytest.mark.parametrize("table", ["n_dt", "n_tw", "n_t"])
    def test_close_checks_the_sampler_counts(self, table):
        # each backend counts its own tables from z when it opens and checks
        # them against a recount of its z when it closes: one count changed
        # while it is open raises there, naming the table, after z is
        # written back
        rng = np.random.default_rng(23)
        state = self.setup_state(rng)
        u = rng.random(len(state.z))
        replay = copied(state)
        replay_sweep(replay, u)
        for name, factory in _gibbs.backends().items():
            got = copied(state)
            with pytest.raises(AssertionError, match=f"^{table} disagrees"):
                with factory(got) as sampler:
                    run_sweep(sampler, Draws([u]))
                    counts = sampler._tables[("n_dt", "n_tw", "n_t").index(table)]
                    row = counts if table == "n_t" else counts[0]
                    row[0] += 1
            assert_fields_equal(got, replay, WRITTEN, name)

    def test_close_after_an_exception_skips_the_check_and_writes_z(self):
        # a sweep that raised may have left a token out of the counts, so
        # the close checks nothing then, but still writes z back, and the
        # exception raised in the block is the one the caller sees
        class Stop(Exception):
            pass

        rng = np.random.default_rng(29)
        state = self.setup_state(rng)
        u = rng.random(len(state.z))
        replay = copied(state)
        replay_sweep(replay, u)
        for name, factory in _gibbs.backends().items():
            got = copied(state)
            with pytest.raises(Stop), factory(got) as sampler:
                run_sweep(sampler, Draws([u]))
                sampler._tables[2][0] += 1
                raise Stop
            assert_fields_equal(got, replay, WRITTEN, name)

    def test_generated_sweep_built_once_per_k(self):
        rng = np.random.default_rng(5)
        _gibbs._unrolled_sweep.cache_clear()
        try:
            for k in (3, 3, 5, 3):
                state = self.setup_state(rng, k=k)
                sweep_through(_gibbs._python_sampler, state, [rng.random(len(state.z))] * 2)
            info = _gibbs._unrolled_sweep.cache_info()
            assert (info.misses, info.hits) == (2, 2)
        finally:
            _gibbs._unrolled_sweep.cache_clear()

    def test_kernel_parameters_follow_the_state_fields(self):
        # the C kernel takes its inputs by position: n_docs and k, then the
        # SweepState fields in order, then the sampler's own arrays, then the
        # generator's next_double, a pointer of the function type, and its
        # state; the compiled backend passes one argument of the C type per
        # parameter
        source = _gibbs._SOURCE.read_text(encoding="utf-8")
        params = [" ".join(p.split()) for p in re.search(
            r"void tagtopics_sweep\(([^)]*)\)", source).group(1).split(",")]
        names = [re.search(r"\w+$", p).group() for p in params]
        state_names = [f.name for f in fields(SweepState)]
        assert names == ["n_docs", "k", *state_names, *_gibbs._OWN_ARRAYS, *_gibbs._GENERATOR]
        assert re.search(r"typedef double \(\*next_double_fn\)\(void \*\w*\);", source)
        compiled = _gibbs.backends().get("c")
        if compiled is not None:
            want = [ctypes.c_void_p if "*" in p or p.startswith("next_double_fn ")
                    else ctypes.c_double if "double" in p else ctypes.c_int64 for p in params]
            assert list(compiled.args[0].argtypes) == want

    def test_bad_arrays_rejected_before_counts_change(self):
        # bad state when the sampler opens, and a sweep once it closed
        rng = np.random.default_rng(3)
        state = self.setup_state(rng)
        read_only_z = state.z.copy()
        read_only_z.flags.writeable = False
        # offsets that would walk tokens outside [0, N) or twice
        first_not_zero, last_not_n, decrease = (state.offsets.copy() for _ in range(3))
        first_not_zero[0] = -1
        last_not_n[-1] += 1
        decrease[2] = decrease[3] + 1
        negative_topic = state.z.copy()
        negative_topic[0] = -1
        negative_prior = state.word_prior.copy()
        negative_prior[0, 0] = -1e-5
        at_open = [
            (TypeError, replace(state, z=state.z.astype(np.int64))),
            (TypeError, replace(state, word_prior=state.word_prior.astype(np.float32))),
            (TypeError, replace(state, offsets=state.offsets.tolist())),
            (TypeError, replace(state, offsets=state.offsets.astype(np.int32))),
            (ValueError, replace(state, word_of=np.repeat(state.word_of, 2)[::2])),
            (ValueError, replace(state, z=read_only_z)),
            (ValueError, replace(state, offsets=state.offsets[:-1].copy())),
            (ValueError, replace(state, offsets=state.offsets[:0].copy())),
            (ValueError, replace(state, prior_total=state.prior_total[:-1].copy())),
            (ValueError, replace(state, prior_total=np.zeros_like(state.prior_total))),
            (ValueError, replace(state, offsets=first_not_zero)),
            (ValueError, replace(state, offsets=last_not_n)),
            (ValueError, replace(state, offsets=decrease)),
            (ValueError, replace(state, z=negative_topic)),
            # priors check_weights rejects: a weight that may overflow or is NaN
            (ValueError, replace(state, alpha=1e306)),
            (ValueError, replace(state, alpha=math.nan)),
            # a negative alpha times a negative word prior is positive, but
            # n_dt + alpha times a positive one is not
            (ValueError, replace(state, alpha=-0.01, word_prior=negative_prior,
                                 prior_total=negative_prior.sum(axis=0))),
        ]
        for factory in (_gibbs.open_sampler, *_gibbs.backends().values()):
            for error, bad in at_open:
                before = copied(bad)
                with pytest.raises(error):
                    factory(bad)
                assert_fields_equal(bad, before)
            with factory(state) as sampler:
                pass
            drawn = rng.bit_generator.state
            with pytest.raises(ValueError, match="closed"):
                run_sweep(sampler, rng)
            assert rng.bit_generator.state == drawn

    def test_caller_writes_to_ids_do_not_reach_the_sweep(self):
        # once the sampler is open the ids it follows are its own: ids out
        # of range written into the caller's z and word_of, and reversed
        # huge offsets, before each sweep change no draw, and closing writes the sampler's z back
        # over the caller's
        rng = np.random.default_rng(19)
        state = self.setup_state(rng, d_count=30, v=50, n=400)
        draws = [rng.random(400) for _ in range(3)]
        replay = copied(state)
        for u in draws:
            replay_sweep(replay, u)
        for name, factory in _gibbs.backends().items():
            got = copied(state)
            z, offsets, word_of = got.z, got.offsets, got.word_of
            rng = Draws(draws)
            with factory(got) as sampler:
                for _ in draws:
                    z[:] = -1
                    offsets[:] = state.offsets[::-1] + 2 ** 62
                    word_of[::2], word_of[1::2] = -7, len(state.word_prior)
                    run_sweep(sampler, rng)
                np.testing.assert_array_equal(z, -1, err_msg=name)
            # z as replayed on the original ids
            assert_fields_equal(got, replay, WRITTEN, name)

    def test_compiled_sampler_keeps_its_arrays_alive(self):
        # the C sweep passes raw pointers, so the sampler must hold every
        # array it points into while it is open: its own copies of the ids,
        # the count and factor tables it makes, and the caller's priors,
        # also when the caller keeps none of them. It holds the caller's z
        # too, which closing writes back, but not the caller's offsets and
        # word_of, which it copied
        factory = _gibbs.backends().get("c")
        if factory is None:
            pytest.skip("no C compiler: the C kernel was not built")
        rng = np.random.default_rng(13)
        state = self.setup_state(rng)
        u = rng.random(len(state.z))
        fresh = copied(state)
        held = ("z", "word_prior", "prior_total")
        refs = [weakref.ref(getattr(fresh, name)) for name in held]
        ids = [weakref.ref(getattr(fresh, name)) for name in ("offsets", "word_of")]
        sampler = factory(fresh)
        del fresh
        gc.collect()
        assert all(ref() is not None for ref in refs)
        assert all(ref() is None for ref in ids)
        # arrays of NaN and of ids far out of range take over any memory
        # freed too early, and a sweep reading it would not match the replay
        shapes = [table.shape for table in counted(state)]
        garbage = [np.full(shape, np.nan) for shape in shapes for _ in range(8)]
        garbage += [np.full(len(u), -(2 ** 30), dtype=np.int32) for _ in range(8)]
        del garbage
        with sampler:
            run_sweep(sampler, Draws([u]))
            arrays = [ref() for ref in refs]
        replay = copied(state)
        replay_sweep(replay, u)
        for got, name in zip(arrays, held):
            np.testing.assert_array_equal(got, getattr(replay, name))

    def test_compiled_sampler_frees_its_tables_on_close(self):
        # the count and factor tables, 16 bytes per count, and the copies of
        # z and word_of, 8 bytes per token, and of offsets, 8 bytes per
        # document and one more, live while the sampler is open; closing
        # drops them all, once its count check is done
        factory = _gibbs.backends().get("c")
        if factory is None:
            pytest.skip("no C compiler: the C kernel was not built")
        rng = np.random.default_rng(17)
        state = self.setup_state(rng, d_count=400, v=3000, k=8, n=40000)
        u = rng.random(len(state.z))
        table_bytes = 16 * sum(table.size for table in counted(state))
        copy_bytes = 8 * len(u) + 8 * len(state.offsets)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with factory(state) as sampler:
                run_sweep(sampler, Draws([u]))
                opened, _ = tracemalloc.get_traced_memory()
            closed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opened - before >= table_bytes + copy_bytes
        assert closed - before < min(table_bytes, copy_bytes) / 10

    def test_fallback_when_build_fails(self, monkeypatch, caplog):
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
        default = train(docs, spec, TrainSettings(iterations=30, rng_seed=5))

        def no_compiler():
            raise OSError("no C compiler (cc or gcc) on PATH")

        monkeypatch.setattr(_gibbs, "_build", no_compiler)
        _gibbs._compiled_kernel.cache_clear()
        try:
            with caplog.at_level("WARNING", logger="tagtopics._gibbs"):
                fallback = train(docs, spec, TrainSettings(iterations=30, rng_seed=5))
            assert list(_gibbs.backends()) == ["python"]
        finally:
            _gibbs._compiled_kernel.cache_clear()
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING" and r.name == "tagtopics._gibbs"]
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
        np.testing.assert_array_equal(fallback.n_dt, default.n_dt)
        np.testing.assert_array_equal(fallback.n_tw, default.n_tw)
        np.testing.assert_array_equal(fallback.n_t, default.n_t)
        for name in ("z", "word_of", "offsets"):
            np.testing.assert_array_equal(getattr(fallback, name), getattr(default, name))

    @pytest.mark.skipif(
        shutil.which("cc") is None and shutil.which("gcc") is None,
        reason="no C compiler on PATH",
    )
    def test_build_caches_in_user_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _gibbs._build()
        assert path.parent == tmp_path / "tagtopics"
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        built = path.stat().st_mtime_ns
        assert _gibbs._build() == path
        assert path.stat().st_mtime_ns == built
        assert not list(Path(_gibbs.__file__).parent.glob("*.so"))


def small_corpus():
    rng = np.random.default_rng(99)
    docs = []
    for i in range(20):
        vocab = ["apple", "banana", "citrus"] if i % 2 else ["xray", "yoga", "zebra"]
        tokens = [vocab[j] for j in rng.integers(0, 3, size=8)]
        docs.append(TokenizedDoc(f"d{i:02d}", tuple(tokens)))
    return docs


class TestTrain:
    def test_deterministic_given_seed(self):
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
        m1 = train(docs, spec, TrainSettings(iterations=30, rng_seed=5))
        m2 = train(docs, spec, TrainSettings(iterations=30, rng_seed=5))
        np.testing.assert_array_equal(m1.n_dt, m2.n_dt)
        np.testing.assert_array_equal(m1.n_tw, m2.n_tw)
        np.testing.assert_array_equal(m1.n_t, m2.n_t)
        for name in ("z", "word_of", "offsets"):
            np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))
        r1 = np.random.default_rng(1)
        r2 = np.random.default_rng(1)
        assert classify_all(m1, r1) == classify_all(m2, r2)

    def test_different_seed_differs(self):
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
        m1 = train(docs, spec, TrainSettings(iterations=5, rng_seed=5))
        m2 = train(docs, spec, TrainSettings(iterations=5, rng_seed=6))
        assert not np.array_equal(m1.z, m2.z)

    def test_one_run_sweep_call_per_sweep(self, monkeypatch):
        # a tracer wraps the run_sweep that topics binds at import and counts
        # len(args[0]) tokens per call
        calls = []
        sweep = topics_mod.run_sweep

        def counting(*args):
            calls.append(len(args[0]))
            return sweep(*args)

        monkeypatch.setattr(topics_mod, "run_sweep", counting)
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
        train(docs, spec, TrainSettings(iterations=7, rng_seed=5))
        assert calls == [sum(len(d.tokens) for d in docs)] * 7

    def test_invariants_hold_and_checked(self):
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"]}, unseeded=2)
        # the sampler checks its counts against z when it closes
        for sweeps in range(11):
            model = train(docs, spec, TrainSettings(iterations=sweeps, rng_seed=3))
        total_tokens = len(model.word_of)
        assert int(model.n_t.sum()) == total_tokens
        assert model.num_topics == 3
        assert model.n_dt.shape == (20, 3)

    def test_no_sampler_at_zero_sweeps(self, monkeypatch):
        def no_sampler(*args):
            raise AssertionError("sampler opened for 0 sweeps")

        monkeypatch.setattr(topics_mod, "open_sampler", no_sampler)
        docs = small_corpus()
        model = train(docs, SeedSpec(seeded=(), unseeded=3),
                      TrainSettings(iterations=0, rng_seed=5))
        # with no seed words every token draws its first topic from all three
        tokens = sum(len(d.tokens) for d in docs)
        initial = np.random.default_rng(5).integers(np.full(tokens, 3))
        np.testing.assert_array_equal(model.z, initial)
        assert model.settings.iterations == 0

    def test_vocabulary_first_appearance_order(self):
        model = train(
            [doc(1, "pear", "apple"), doc(2, "apple", "kiwi")],
            SeedSpec(seeded=(), unseeded=2),
            TrainSettings(iterations=0),
        )
        assert model.vocabulary == ("pear", "apple", "kiwi")

    def test_sole_owner_seed_init(self):
        spec = SeedSpec.from_mapping({"A": ["aa"], "B": ["bb"]}, unseeded=0)
        model = train([doc(1, "aa", "aa", "bb")], spec, TrainSettings(iterations=0, rng_seed=0))
        a, b = model.offsets[:2]
        np.testing.assert_array_equal(model.z[a:b], [0, 0, 1])
        np.testing.assert_array_equal(model.n_dt[0], [2, 1])

    def test_initial_draws_match_per_token_reference(self):
        # one draw per token, in document order, from the training stream:
        # uniform over the topics the token's word seeds, or over all K
        spec = SeedSpec.from_mapping(
            {"A": ["apple", "banana"], "B": ["banana"], "C": ["xray"]}, unseeded=2
        )
        docs = small_corpus()
        model = train(docs, spec, TrainSettings(iterations=0, rng_seed=7))
        owners = {w: [t for t, (_, seeds) in enumerate(spec.seeded) if w in seeds] or
                  list(range(model.num_topics)) for d in docs for w in d.tokens}
        rng = np.random.default_rng(7)
        expected = [owners[w][rng.integers(len(owners[w]))] for d in docs for w in d.tokens]
        assert model.z.tolist() == expected

    def test_shared_seed_word_splits_between_owners(self):
        spec = SeedSpec.from_mapping({"A": ["aa"], "B": ["aa"]}, unseeded=0)
        model = train(
            [doc(i, *(["aa"] * 10)) for i in range(10)], spec,
            TrainSettings(iterations=0, rng_seed=0),
        )
        assert set(model.z.tolist()) == {0, 1}  # both owners drawn, nothing else

    def test_empty_docs_dropped_with_warning(self, caplog):
        docs = [doc(1, "a"), TokenizedDoc("empty1", ()), doc(2, "b")]
        with caplog.at_level("WARNING", logger="tagtopics.topics"):
            model = train(docs, SeedSpec(seeded=(), unseeded=2), TrainSettings(iterations=1))
        assert model.doc_ids == ("d1", "d2")
        assert model.dropped_doc_ids == ("empty1",)
        assert any("empty" in r.message for r in caplog.records)

    def test_all_empty_rejected(self):
        with pytest.raises(DataError):
            train([TokenizedDoc("e", ())], SeedSpec(seeded=(), unseeded=2))

    def test_missing_seed_words_warned(self, caplog):
        spec = SeedSpec.from_mapping({"A": ["ghost", "apple"]}, unseeded=1)
        with caplog.at_level("WARNING", logger="tagtopics.topics"):
            model = train([doc(1, "apple")], spec, TrainSettings(iterations=1))
        assert any("ghost" in r.message for r in caplog.records)
        assert model.seed_word_ids == ((0,),)

    # a bool is no number and a float no count: train used to write such
    # settings to model files that load_model rejects, or fail mid-setup
    WRONG_TYPES = [{"alpha": True}, {"mu": False}, {"iterations": True}, {"rng_seed": True},
                   {"iterations": 2.5}, {"rng_seed": 1.5}, {"beta": "0.1"}, {"mu": None}]

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"beta": 0.0}, {"mu": -0.1}, {"iterations": -1},
        {"rng_seed": -1}, {"alpha": -1}, {"beta": math.inf}, {"mu": math.nan},
        {"alpha": 10 ** 400}, *WRONG_TYPES,
    ])
    def test_bad_hyperparameters(self, kwargs):
        # the record is the one check: it raises, naming the setting, before
        # train is called and so before any draw
        error = TypeError if kwargs in self.WRONG_TYPES else ValueError
        with pytest.raises(error, match=f"^{next(iter(kwargs))} "):
            TrainSettings(**kwargs)

    def test_settings_record(self):
        # the defaults in model.json's key order, and int priors kept as floats
        assert astuple(TrainSettings()) == (0.01, 0.0001, 0.5, 2000, 0)
        settings = TrainSettings(alpha=1, beta=2, mu=0, iterations=3, rng_seed=2 ** 70)
        assert [type(v) for v in astuple(settings)] == [float, float, float, int, int]
        assert astuple(settings) == (1.0, 2.0, 0.0, 3, 2 ** 70)
        assert train([doc(1, "a")], SeedSpec(seeded=(), unseeded=2), settings).settings is settings

    def test_disjoint_vocabularies_separate(self):
        rng = np.random.default_rng(11)
        docs = []
        for i in range(200):
            vocab = ["aa", "ab"] if i % 2 == 0 else ["ca", "cb"]
            tokens = [vocab[j] for j in rng.integers(0, 2, size=10)]
            docs.append(TokenizedDoc(f"d{i:03d}", tuple(tokens)))
        spec = SeedSpec.from_mapping({"A": ["aa"], "C": ["ca"]}, unseeded=0)
        model = train(docs, spec, TrainSettings(iterations=200, rng_seed=1))
        labels = classify_all(model, np.random.default_rng(2))
        expected = {d.tweet_id: ("A" if i % 2 == 0 else "C")
                    for i, d in enumerate(docs)}
        agree = sum(labels[k] == expected[k] for k in expected)
        assert agree / len(expected) >= 0.95


class TestDocTopicDistribution:
    def test_concentrated_document(self):
        # five tokens all on the seeded topic of a two-topic model
        spec = SeedSpec.from_mapping({"A": ["aa"]}, unseeded=1)
        model = train([doc(1, *(["aa"] * 5))], spec, TrainSettings(iterations=0, rng_seed=0))
        theta = doc_topic_distribution(model, 0)
        assert abs(theta[0] - 5.01 / 5.02) <= 1e-12
        assert abs(theta[1] - 0.01 / 5.02) <= 1e-12

    def test_sums_to_one(self):
        docs = small_corpus()
        spec = SeedSpec.from_mapping({"A": ["apple"]}, unseeded=2)
        model = train(docs, spec, TrainSettings(iterations=5, rng_seed=4))
        for d in range(len(model.doc_ids)):
            assert abs(doc_topic_distribution(model, d).sum() - 1.0) <= 1e-12

    def test_out_of_range(self):
        model = train([doc(1, "a")], SeedSpec(seeded=(), unseeded=2), TrainSettings(iterations=0))
        with pytest.raises(IndexError):
            doc_topic_distribution(model, 1)
        with pytest.raises(IndexError):
            doc_topic_distribution(model, -1)


class TestTokenArrays:
    # three documents of 2, 0 and 3 tokens
    FIELDS = dict(
        vocabulary=("a", "b"), doc_ids=("d0", "d1", "d2"), dropped_doc_ids=(),
        categories=("A",), num_unseeded=1, settings=TrainSettings(iterations=0),
        seed_word_ids=((0,),),
        word_of=np.array([0, 1, 1, 0, 1], dtype=np.int32),
        z=np.array([0, 1, 0, 0, 1], dtype=np.int32),
        offsets=np.array([0, 2, 2, 5], dtype=np.int64),
    )

    def test_per_document_views(self):
        # the offsets cut word_of and z into documents; the model keeps no
        # per-document copy or view of its own
        model = SeededLdaModel(**{**self.FIELDS, "z": self.FIELDS["z"].copy()})
        cuts = list(pairwise(model.offsets.tolist()))
        assert [model.word_of[a:b].tolist() for a, b in cuts] == [[0, 1], [], [1, 0, 1]]
        assert [model.z[a:b].tolist() for a, b in cuts] == [[0, 1], [], [0, 0, 1]]
        np.testing.assert_array_equal(model.n_dt, [[1, 1], [0, 0], [2, 1]])
        a, b = cuts[2]
        model.z[a:b][0] = 1  # a view: the write reaches z
        assert model.z.tolist() == [0, 1, 1, 0, 1]
        assert not hasattr(model, "doc_words") and not hasattr(model, "assignments")

    def test_counts_follow_z(self):
        # the count tables are counted from z on each read, so a write into
        # z shows in them, and the model stores no table of its own
        model = SeededLdaModel(**{**self.FIELDS, "z": self.FIELDS["z"].copy()})
        model.z[2] = 1
        np.testing.assert_array_equal(model.n_dt, [[1, 1], [0, 0], [1, 2]])
        np.testing.assert_array_equal(model.n_tw, [[2, 0], [0, 3]])
        np.testing.assert_array_equal(model.n_t, [2, 3])
        assert not {"n_dt", "n_tw", "n_t"} & {f.name for f in fields(SeededLdaModel)}
        assert not hasattr(model, "check_counts")

    @pytest.mark.parametrize("change", [
        {"offsets": np.array([1, 2, 2, 5])},  # does not start at 0
        {"offsets": np.array([0, 3, 2, 5])},  # decreases
        {"offsets": np.array([0, 2, 2, 4])},  # ends before the last token
        {"offsets": np.array([0, 2, 5])},  # one document short of doc_ids
        {"z": np.array([0, 1, 0, 0], dtype=np.int32)},  # shorter than word_of
        {"doc_ids": (), "offsets": np.array([0])},  # no documents
    ])
    def test_malformed_token_arrays_rejected(self, change):
        with pytest.raises(ValueError, match="disagree in length"):
            SeededLdaModel(**{**self.FIELDS, **change})

    @pytest.mark.parametrize("change, message", [
        ({"rng_seed": -1}, "rng_seed must be non-negative"),
        ({"num_unseeded": MAX_TOPICS}, f"{MAX_TOPICS + 1} topics, over {MAX_TOPICS}"),
        # rejected before a count table of 10**12 columns is allocated
        ({"num_unseeded": 10 ** 12}, "topics, over"),
        ({"num_unseeded": -1}, "num_unseeded must be non-negative"),
    ])
    def test_out_of_range_fields_rejected(self, change, message):
        # a training setting, such as rng_seed, goes to the model's settings
        # record, which checks it as it is built
        names = {f.name for f in fields(TrainSettings)}
        facts = {key: value for key, value in change.items() if key not in names}
        with pytest.raises(ValueError, match=message):
            record = TrainSettings(**{k: v for k, v in change.items() if k in names})
            SeededLdaModel(**{**self.FIELDS, **facts, "settings": record})

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.integers(1, 10 ** 6) | st.floats(min_value=5e-324, max_value=1e308),
           beta=st.integers(1, 10 ** 6) | st.floats(min_value=5e-324, max_value=1e308),
           mu=st.integers(0, 10 ** 6) | st.floats(min_value=0.0, max_value=1e308),
           iterations=st.integers(min_value=0), rng_seed=st.integers(min_value=0))
    @example(alpha=1, beta=1, mu=0, iterations=0, rng_seed=0)  # saved "alpha":1 before
    def test_every_accepted_setting_round_trips(self, tmp_path_factory, alpha, beta, mu,
                                                iterations, rng_seed):
        # save -> load -> save writes the same bytes for any record the
        # settings accept, int-valued priors included
        record = TrainSettings(alpha, beta, mu, iterations, rng_seed)
        model = SeededLdaModel(**{**self.FIELDS, "settings": record})
        first = tmp_path_factory.mktemp("settings") / "first.json"
        second = first.with_name("second.json")
        save_model(model, first)
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert [type(payload[key]) for key in ("alpha", "beta", "mu")] == [float] * 3
        loaded = load_model(first)
        assert loaded.settings == record
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def make_model(n_dt_rows, categories, num_unseeded):
    """Hand-built model wrapping given document-topic counts; only the fields
    classify_all() touches need to be meaningful."""
    n_dt = np.array(n_dt_rows, dtype=np.int64)
    d, k = n_dt.shape
    assert k == len(categories) + num_unseeded
    z = np.repeat(np.tile(np.arange(k, dtype=np.int32), d), n_dt.ravel())
    return SeededLdaModel(
        vocabulary=("w",),
        doc_ids=tuple(f"d{i}" for i in range(d)),
        dropped_doc_ids=(),
        categories=tuple(categories),
        num_unseeded=num_unseeded,
        settings=TrainSettings(iterations=0),
        seed_word_ids=tuple(() for _ in categories),
        word_of=np.zeros(len(z), dtype=np.int32),
        z=z,
        offsets=np.cumsum([0, *n_dt.sum(axis=1)]),
    )


class TestClassify:
    def test_seeded_argmax(self):
        model = make_model([[3, 1, 0]], ["A", "B"], 1)
        assert classify_all(model, np.random.default_rng(0)) == {"d0": "A"}

    def test_unseeded_winner_is_unassigned(self):
        model = make_model([[1, 0, 4]], ["A", "B"], 1)
        assert classify_all(model, np.random.default_rng(0)) == {"d0": UNASSIGNED}

    def test_tie_broken_uniformly(self):
        model = make_model([[2, 2]], ["A", "B"], 0)
        rng = np.random.default_rng(13)
        trials = 10_000
        a_wins = sum(
            classify_all(model, rng)["d0"] == "A" for _ in range(trials)
        )
        assert abs(a_wins / trials - 0.5) <= 0.05

    def test_near_tie_is_not_a_tie(self):
        model = make_model([[3, 2]], ["A", "B"], 0)
        rng = np.random.default_rng(13)
        assert all(classify_all(model, rng)["d0"] == "A" for _ in range(50))

    def test_classify_all_order(self):
        model = make_model([[2, 0], [0, 2]], ["A"], 1)
        labels = classify_all(model, np.random.default_rng(0))
        assert labels == {"d0": "A", "d1": UNASSIGNED}

    def test_classify_all_draws_as_one_document_at_a_time(self):
        # one rng draw per tied document, in document order, none for the
        # rest: the labels and the rng's next draw equal a per-document
        # reference on the same seed
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 3, (300, 4))
        rows[rng.random(300) < 0.2] = 1  # four-way ties
        model = make_model(rows.tolist(), ["A", "B"], 2)
        names = ("A", "B", UNASSIGNED, UNASSIGNED)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        want = {}
        for d, row in enumerate(rows):
            tied = np.flatnonzero(row == row.max())
            pick = tied[want_rng.integers(len(tied))] if len(tied) > 1 else tied[0]
            want[f"d{d}"] = names[pick]
        assert classify_all(model, got_rng) == want
        assert got_rng.random() == want_rng.random()


class TestEvaluate:
    def test_worked_example(self):
        gold = {"1": "a", "2": "a", "3": "b", "4": "b"}
        pred = {"1": "a", "2": "a", "3": "a", "4": "b"}
        report = evaluate(pred, gold)
        assert report.labels == ("a", "b")
        assert report.matrix == ((2, 0), (1, 1))
        assert report.accuracy == 0.75
        a, b = report.per_class["a"], report.per_class["b"]
        assert abs(a.precision - 2 / 3) <= 1e-12 and a.recall == 1.0
        assert abs(a.f1 - 0.8) <= 1e-12
        assert b.precision == 1.0 and b.recall == 0.5
        assert abs(b.f1 - 2 / 3) <= 1e-12
        assert abs(report.macro.precision - 5 / 6) <= 1e-12
        assert abs(report.macro.recall - 0.75) <= 1e-12
        assert abs(report.macro.f1 - 11 / 15) <= 1e-12
        assert report.micro.precision == 0.75
        assert report.micro.recall == 0.75
        assert abs(report.micro.f1 - 0.75) <= 1e-12

    def test_perfect_predictions(self):
        gold = {str(i): f"c{i % 3}" for i in range(9)}
        report = evaluate(dict(gold), gold)
        assert report.accuracy == 1.0
        assert report.macro.f1 == 1.0
        assert report.micro.f1 == 1.0
        assert all(m.f1 == 1.0 for m in report.per_class.values())

    def test_predicted_only_label_gets_column_not_vote(self):
        gold = {"1": "a", "2": "a"}
        pred = {"1": "a", "2": UNASSIGNED}
        report = evaluate(pred, gold)
        assert report.labels == ("a", UNASSIGNED)
        assert report.matrix == ((1, 1), (0, 0))
        assert report.gold_classes == ("a",)
        assert report.accuracy == 0.5
        # macro covers the one gold class only
        assert report.macro.precision == 1.0
        assert report.macro.recall == 0.5
        un = report.per_class[UNASSIGNED]
        assert (un.precision, un.recall, un.f1) == (0.0, 0.0, 0.0)

    def test_micro_pools_gold_classes_only(self):
        # gold a: 3 predicted a, 1 unassigned; gold b: 1 predicted a, 2 b, 1
        # unassigned. Micro pools a and b: tp 3 + 2, predicted 4 + 2, actual
        # 4 + 4. The two unassigned predictions miss their gold class, so
        # they lower recall, but they are no gold class's predictions.
        gold = {str(i): "a" if i < 4 else "b" for i in range(8)}
        pred = dict(zip(gold, ["a", "a", "a", UNASSIGNED,
                               "a", "b", "b", UNASSIGNED]))
        report = evaluate(pred, gold)
        assert report.matrix == ((3, 0, 1), (1, 2, 1), (0, 0, 0))
        assert report.micro.precision == 5 / 6
        assert report.micro.recall == 5 / 8
        assert abs(report.micro.f1 - 5 / 7) <= 1e-12

    def test_mismatched_keys_rejected(self):
        with pytest.raises(DataError):
            evaluate({"1": "a"}, {"2": "a"})
        with pytest.raises(DataError):
            evaluate({"1": "a", "2": "a"}, {"1": "a"})

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            evaluate({}, {})

    def test_matrix_against_brute_force(self):
        rng = np.random.default_rng(21)
        classes = ["x", "y", "z"]
        for _ in range(100):
            n = int(rng.integers(1, 30))
            gold = {str(i): classes[rng.integers(3)] for i in range(n)}
            pred = {str(i): classes[rng.integers(3)] for i in range(n)}
            report = evaluate(pred, gold)
            for gi, gname in enumerate(report.labels):
                for pi, pname in enumerate(report.labels):
                    want = sum(
                        1 for k in gold if gold[k] == gname and pred[k] == pname
                    )
                    assert report.matrix[gi][pi] == want
            assert sum(map(sum, report.matrix)) == n
            assert report.accuracy == sum(
                1 for k in gold if gold[k] == pred[k]
            ) / n

    def test_to_dict_round_trips_through_json(self):
        report = evaluate({"1": "a"}, {"1": "b"})
        payload = json.loads(json.dumps(report.to_dict()))
        # report.json's layout: the fields and their order are the file's keys
        assert list(payload) == ["labels", "matrix", "accuracy", "per_class",
                                 "gold_classes", "macro", "micro"]
        for block in (*payload["per_class"].values(), payload["macro"], payload["micro"]):
            assert list(block) == ["precision", "recall", "f1"]
        assert payload["labels"] == ["a", "b"]
        assert payload["macro"]["f1"] == 0.0
        assert payload["accuracy"] == 0.0


class TestDeriveGold:
    MEMBERSHIP = {"t1": {"A", "B"}, "t2": {"A"}, "t3": {"A"}, "t4": {"B", "C"}}

    def test_rarest(self):
        # sizes: A=3, B=2, C=1
        gold = derive_gold(self.MEMBERSHIP, "rarest", ["A", "B", "C"])
        assert gold == {"t1": "B", "t2": "A", "t3": "A", "t4": "C"}

    def test_rarest_tie_uses_taxonomy_order(self):
        gold = derive_gold({"t1": {"A", "B"}}, "rarest", ["B", "A"])
        assert gold == {"t1": "B"}

    def test_priority(self):
        gold = derive_gold(self.MEMBERSHIP, "priority", ["A", "B", "C"])
        assert gold == {"t1": "A", "t2": "A", "t3": "A", "t4": "B"}

    def test_exclude_multi(self):
        gold = derive_gold(self.MEMBERSHIP, "exclude_multi", ["A", "B", "C"])
        assert gold == {"t2": "A", "t3": "A"}

    def test_memberless_tweets_dropped(self):
        gold = derive_gold({"t1": set(), "t2": {"A"}}, "priority", ["A"])
        assert gold == {"t2": "A"}

    def test_unlisted_categories_sort_after(self):
        gold = derive_gold({"t1": {"zed", "mid"}}, "priority", ["mid"])
        assert gold == {"t1": "mid"}
        gold = derive_gold({"t1": {"zed", "alpha"}}, "priority", [])
        assert gold == {"t1": "alpha"}

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            derive_gold({}, "weirdest")


class TestSaveLoad:
    def trained(self):
        spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
        return train(small_corpus(), spec, TrainSettings(iterations=10, rng_seed=8))

    def test_round_trip(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocabulary == model.vocabulary
        assert loaded.doc_ids == model.doc_ids
        assert loaded.categories == model.categories
        assert loaded.seed_word_ids == model.seed_word_ids
        assert loaded.settings == model.settings
        np.testing.assert_array_equal(loaded.n_dt, model.n_dt)
        np.testing.assert_array_equal(loaded.n_tw, model.n_tw)
        np.testing.assert_array_equal(loaded.n_t, model.n_t)
        for name in ("z", "word_of", "offsets"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert classify_all(loaded, np.random.default_rng(3)) == classify_all(
            model, np.random.default_rng(3)
        )

    def test_save_is_deterministic(self, tmp_path):
        model = self.trained()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("piece_ids", [1, 7, 40, 8192])
    def test_pieces_write_the_one_shot_bytes(self, tmp_path, monkeypatch, piece_ids):
        model = self.trained()  # 20 documents of 8 tokens, 6 words
        monkeypatch.setattr(topics_mod, "_SAVE_ITEMS", piece_ids)
        save_model(model, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == one_shot_text(model)

    def test_save_holds_no_whole_token_list(self, tmp_path):
        # 500k tokens: one json.dumps of the payload holds every id as a list
        # item and an encoded chunk, several times the file size
        docs, length = 500, 1000
        ids = np.arange(docs * length, dtype=np.int32) % 50
        model = SeededLdaModel(
            vocabulary=tuple(f"w{i}" for i in range(50)),
            doc_ids=tuple(f"d{i}" for i in range(docs)), dropped_doc_ids=(),
            categories=("A",), num_unseeded=2, settings=TrainSettings(iterations=0),
            seed_word_ids=((0,),),
            word_of=ids, z=ids % 3, offsets=np.arange(docs + 1) * length,
        )
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_save_holds_no_whole_document_list(self, tmp_path, monkeypatch):
        # 20k two-token documents, 20 pieces of document ids: the ids, not
        # the tokens, would dominate a one-shot encoding
        monkeypatch.setattr(topics_mod, "_SAVE_ITEMS", 1000)
        docs = 20000
        ids = np.arange(2 * docs, dtype=np.int32) % 50
        model = SeededLdaModel(
            vocabulary=tuple(f"w{i}" for i in range(50)),
            doc_ids=tuple(f"doc{i:06d}" for i in range(docs)), dropped_doc_ids=(),
            categories=("A",), num_unseeded=2, settings=TrainSettings(iterations=0),
            seed_word_ids=((0,),),
            word_of=ids, z=ids % 3, offsets=np.arange(docs + 1) * 2,
        )
        path = tmp_path / "many.json"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2
        assert path.read_text(encoding="utf-8") == one_shot_text(model)

    def test_bad_files_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(path)
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(DataError):
            load_model(path)
        # version 1 also stored the count tables, version 2 per-document lists
        for version in (99, 2, 1):
            write_json(path, {"format": "tagtopics-lda", "version": version})
            with pytest.raises(DataError, match=f"unsupported model version {version}"):
                load_model(path)

    def saved_payload(self, tmp_path):
        model = self.trained()
        path = tmp_path / "m.json"
        save_model(model, path)
        return model, path, json.loads(path.read_text(encoding="utf-8"))

    def test_counts_not_stored(self, tmp_path):
        _, _, payload = self.saved_payload(tmp_path)
        assert payload["version"] == 3
        assert not {"n_dt", "n_tw", "n_t"} & payload.keys()
        assert list(payload)[-3:] == ["doc_lengths", "word_of", "z"]

    def test_truncated_payload_rejected(self, tmp_path):
        _, path, payload = self.saved_payload(tmp_path)
        del payload["z"]
        write_json(path, payload)
        with pytest.raises(DataError):
            load_model(path)


def one_shot_text(model):
    """What save_model must write: one compact json.dumps of the payload."""
    payload = {
        "format": "tagtopics-lda", "version": 3,
        "alpha": model.settings.alpha, "beta": model.settings.beta,
        "mu": model.settings.mu, "iterations": model.settings.iterations,
        "rng_seed": model.settings.rng_seed,
        "categories": list(model.categories), "num_unseeded": model.num_unseeded,
        "vocabulary": list(model.vocabulary),
        "seed_word_ids": [list(ids) for ids in model.seed_word_ids],
        "doc_ids": list(model.doc_ids), "dropped_doc_ids": list(model.dropped_doc_ids),
        "doc_lengths": np.diff(model.offsets).tolist(),
        "word_of": model.word_of.tolist(), "z": model.z.tolist(),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def _token(data, payload, key):
    """A random position in the flat list payload[key]."""
    return data.draw(st.integers(0, len(payload[key]) - 1))


def _set_token(key, values):
    def corrupt(payload, data):
        payload[key][_token(data, payload, key)] = data.draw(values(payload))
    return corrupt


def _pop_token(key):
    return lambda payload, data: payload[key].pop(_token(data, payload, key))


def _resize_doc(payload, data):
    # one document longer or shorter, so the lengths no longer sum to the
    # token count of word_of and z
    lengths = payload["doc_lengths"]
    d = _token(data, payload, "doc_lengths")
    lengths[d] += data.draw(st.integers(-lengths[d], 2 ** 20).filter(bool))


def _duplicate(key):
    def corrupt(payload, data):
        values = payload[key]
        i, j = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=2,
                                  max_size=2, unique=True))
        values[i] = values[j]
    return corrupt


def _bad_seed(payload, data):
    v = len(payload["vocabulary"])
    t = data.draw(st.integers(0, len(payload["seed_word_ids"]) - 1))
    bad = data.draw(st.integers(max_value=-1) | st.integers(min_value=v))
    payload["seed_word_ids"][t] = [bad]


def _seed_list_count(payload, data):
    if data.draw(st.booleans()):
        payload["seed_word_ids"].append([])
    else:
        payload["seed_word_ids"].pop()


def _set(key, values):
    def corrupt(payload, data):
        payload[key] = data.draw(values)
    return corrupt


def _drop_key(payload, data):
    del payload[data.draw(st.sampled_from(sorted(payload)))]


NON_INTEGERS = (st.floats() | st.text(max_size=3) | st.none() | st.booleans()
                | st.lists(st.integers(), max_size=2))


def _non_integer(payload, data):
    key = data.draw(st.sampled_from(
        ["doc_lengths", "word_of", "z", "seed_word_ids",
         "version", "iterations", "num_unseeded", "rng_seed"]))
    if key in ("version", "iterations", "num_unseeded", "rng_seed"):
        payload[key] = data.draw(NON_INTEGERS)
        return
    values = payload[key]
    if key == "seed_word_ids":
        values = data.draw(st.sampled_from(values))
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(NON_INTEGERS)


def _num_topics(payload):
    return len(payload["categories"]) + payload["num_unseeded"]


CORRUPTIONS = {
    "doc_ids shorter": lambda payload, data: payload["doc_ids"].pop(),
    "doc_lengths shorter": lambda payload, data: payload["doc_lengths"].pop(),
    "word_of shorter": _pop_token("word_of"),
    "z shorter": _pop_token("z"),
    "doc lengths sum past or short of the tokens": _resize_doc,
    "negative doc length": _set_token("doc_lengths", lambda p: st.integers(max_value=-1)),
    "bool doc length": _set_token("doc_lengths", lambda p: st.booleans()),
    "doc length beyond int64": _set_token(
        "doc_lengths", lambda p: st.integers(min_value=2 ** 63)
        | st.integers(max_value=-2 ** 63 - 1)),
    "duplicate doc id": _duplicate("doc_ids"),
    "duplicate vocabulary word": _duplicate("vocabulary"),
    "duplicate category": _duplicate("categories"),
    "word id >= V": _set_token(
        "word_of", lambda p: st.integers(min_value=len(p["vocabulary"]))),
    "word id < 0": _set_token("word_of", lambda p: st.integers(max_value=-1)),
    "topic id >= K": _set_token("z", lambda p: st.integers(min_value=_num_topics(p))),
    "topic id < 0": _set_token("z", lambda p: st.integers(max_value=-1)),
    "seed id outside vocabulary": _bad_seed,
    "seed list count": _seed_list_count,
    "alpha <= 0": _set("alpha", st.floats(max_value=0.0) | st.integers(max_value=0)),
    "beta <= 0": _set("beta", st.floats(max_value=0.0) | st.integers(max_value=0)),
    "mu < 0": _set("mu", st.floats(max_value=0.0, exclude_max=True)),
    "iterations < 0": _set("iterations", st.integers(max_value=-1)),
    "key dropped": _drop_key,
    "non-integer entry": _non_integer,
}


@pytest.fixture(scope="module")
def payload_text(tmp_path_factory):
    spec = SeedSpec.from_mapping({"A": ["apple"], "B": ["xray"]}, unseeded=1)
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(train(small_corpus(), spec, TrainSettings(iterations=5, rng_seed=8)), path)
    return path.read_text(encoding="utf-8")


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CORRUPTIONS)), data=st.data())
def test_corrupted_payload_raises_data_error(payload_text, tmp_path_factory,
                                             name, data):
    payload = json.loads(payload_text)
    CORRUPTIONS[name](payload, data)
    # a fresh file each time: truncating one that holds data can stall on ext4
    path = tmp_path_factory.mktemp("corrupted") / "model.json"
    write_json(path, payload)
    with pytest.raises(DataError):
        load_model(path)
