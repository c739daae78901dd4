"""Collapsed Gibbs sweep kernel.

The sweep runs in a small C kernel (`_gibbs.c`) called through ctypes. It is
compiled on first use with the system C compiler and cached as a shared
library under the user cache directory (`$XDG_CACHE_HOME/tagtopics`, by
default `~/.cache/tagtopics`), named by a hash of the C source, the compiler
flags and the platform, so it also works from a source checkout with no
install step. When no compiler is found or the build fails, a pure-Python
kernel over plain lists runs instead, with bit-identical results, some 60
times slower: about 590 ns per token and sweep against 10 ns for the C
kernel over a 2000-sweep training on acceptance criterion 1's corpus, both
timed in one session (2 cores, Python 3.11.7, numpy 2.4.6). Both run one
algorithm: beside each count table they keep its float64 factor (count +
prior), the old topic's weight lowers its counts inline, and counts,
factors and the assignment are written only when a token moves. The sweep
walks the documents by their offsets, strictly in token order, and draws
one uniform per token from the generator, the doubles ``rng.random(N)``
gives: the Python backend calls that, and the C kernel calls the bit
generator's own ``next_double`` through numpy's ``BitGenerator.ctypes``
once per token. So results are deterministic given the generator, whatever
its bit generator, and a sweep leaves it where ``rng.random(N)`` would.

A training sweeps through one sampler over its :class:`SweepState`:

    with open_sampler(SweepState(z, offsets, word_of, word_prior,
                                 prior_total, alpha)) as sampler:
        for _ in range(sweeps):
            run_sweep(sampler, rng)

Each backend is one factory, :func:`_compiled_sampler` or
:func:`_python_sampler`, returning the one sampler class, :class:`_Sampler`.
:func:`backends` lists the factories that run here, the compiled one first,
and is the only code that picks one; :func:`open_sampler` opens its first.

The state is checked once, when the sampler opens, by :func:`check_tokens`,
as the model is, and by :func:`check_weights`. The sampler copies z,
offsets and word_of, so the indices it follows stay as checked whatever the
caller writes, and counts its own n_dt, n_tw and n_t from the copies with
:func:`count_tables`; no caller passes or receives a count table. Until it
closes, it owns z and these tables. Closing, also when a sweep raised,
drops the sweep with every table, copy and pointer it holds, then writes z
back; if no sweep raised, it then checks its tables.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import Field, dataclass, field, fields, replace
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_gibbs.c")
# no FMA contraction: a fused multiply-add rounds differently from the
# pure-Python kernel and would break bit-identity between backends
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the sampler's own arrays, after the state's fields in the kernel's
# parameters, and then the generator's next_double and its state
_OWN_ARRAYS = ("n_dt", "n_tw", "n_t", "f_dt", "f_tw", "f_t", "weights")
_GENERATOR = ("next_double", "bitgen")


def check_tokens(offsets, word_of, z, v: int, k: int) -> None:
    """The token layout both the sampler and the model rely on: offsets, of
    at least one entry, rise from 0 to N == len(word_of) == len(z) without
    a decrease, word ids lie in [0, v) and topic ids in [0, k). Raises
    ValueError if one does not hold."""
    n = len(z)
    if (len(word_of) != n or not len(offsets) or offsets[0] != 0 or offsets[-1] != n
            or (np.diff(offsets) < 0).any()):
        raise ValueError("offsets, word_of and z disagree in length: offsets must "
                         f"rise from 0 to {n} tokens without a decrease")
    # plain lists accept negative indices and bincount counts any id
    # somewhere, so every id is checked up front
    for name, ids, bound in (("word", word_of, v), ("topic", z, k)):
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ValueError(f"{name} id outside [0, {bound})")


def count_tables(offsets, word_of, z, v: int, k: int):
    """n_dt (D, K), n_tw (V, K) and n_t (K,), int64, of the tokens offsets
    cut into D documents, yielded in turn, so a caller that needs only n_dt
    builds no other table: the only code that counts. Raises ValueError if
    :func:`check_tokens` rejects the layout, which bincount would miscount."""
    check_tokens(offsets, word_of, z, v, k)
    d = len(offsets) - 1
    docs = np.repeat(np.arange(d, dtype=np.int64), np.diff(offsets))
    yield np.bincount(docs * k + z, minlength=d * k).reshape(d, k)
    yield np.bincount(word_of.astype(np.int64) * k + z, minlength=v * k).reshape(v, k)
    yield np.bincount(z, minlength=k)


def _array(dtype, dims: tuple[str, ...]):
    """A :class:`SweepState` array field: its dtype and dimension names."""
    return field(metadata={"dtype": np.dtype(dtype), "dims": dims})


@dataclass(frozen=True, eq=False)
class SweepState:
    """The inputs of one training's sweeps, in the C kernel's parameter
    order after n_docs and k: N tokens in D documents, document d tokens
    offsets[d] up to offsets[d + 1] of z and word_of, and over V words and
    K topics the priors B and Bsum and the alpha of :func:`run_sweep`."""

    z: np.ndarray = _array(np.int32, ("N",))  # the one array the sampler writes
    offsets: np.ndarray = _array(np.int64, ("D+1",))
    word_of: np.ndarray = _array(np.int32, ("N",))
    word_prior: np.ndarray = _array(np.float64, ("V", "K"))
    prior_total: np.ndarray = _array(np.float64, ("K",))
    alpha: float

    def items(self) -> list[tuple[Field, object]]:
        """(field, value) per field, in order; astuple would deep-copy every array."""
        return [(f, getattr(self, f.name)) for f in fields(self)]


def check_weights(state: SweepState) -> None:
    """Raise ValueError unless every weight a sweep of `state` can compute is
    positive and finite. With N tokens, at most L in a document, alpha > 0 and
    monotone rounding, a weight is at least alpha * min(B) / (N + max Bsum),
    required > 0, and, its numerator too, at most (L + alpha) * (N + max B) /
    min(1, min Bsum), required below max float / 2K. Python floats overflow
    without warning."""
    if not len(state.z):  # no token, no weight
        return
    n, b, bsum, alpha = len(state.z), state.word_prior, state.prior_total, float(state.alpha)
    if not bsum.min() > 0.0:
        raise ValueError("prior_total must be positive")
    low = alpha * float(b.min()) / (n + float(bsum.max()))
    high = (len(bsum) * (int(np.diff(state.offsets).max()) + alpha) * (n + float(b.max()))
            / min(1.0, float(bsum.min())))
    if not (alpha > 0.0 and low > 0.0 and high < sys.float_info.max / 2):
        raise ValueError(f"sampling weight bounds {low:g} to {high:g} leave 0 or inf possible")


def _own_state(state: SweepState) -> tuple[SweepState, tuple[np.ndarray, ...]]:
    """Every factory's start: the state over the sampler's own copies of z,
    offsets and word_of, and the count tables :func:`count_tables` counts
    from them. Rejects arrays the C kernel cannot read safely, as their
    fields declare them: TypeError for another type or dtype, ValueError for
    other dimensions, a layout other than C-contiguous, a read-only z, or
    what :func:`check_tokens` or :func:`check_weights` rejects."""
    arrays = [(f.name, f.metadata, a) for f, a in state.items() if f.metadata]
    for name, meta, arr in arrays:
        if not isinstance(arr, np.ndarray) or arr.dtype != meta["dtype"]:
            got = arr.dtype if isinstance(arr, np.ndarray) else type(arr).__name__
            raise TypeError(f"{name} must be a {meta['dtype']} array, got {got}")
        if arr.ndim != len(meta["dims"]) or not arr.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous {len(meta['dims'])}-d array")
    if not state.z.flags.writeable:
        raise ValueError("z must be writeable")
    v, k = len(state.word_prior), len(state.prior_total)
    size = {"N": len(state.z), "D+1": len(state.offsets), "V": v, "K": k}
    for name, meta, arr in arrays:
        if arr.shape != (shape := tuple(size[dim] for dim in meta["dims"])):
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    own = replace(state, z=state.z.copy(), offsets=state.offsets.copy(),
                  word_of=state.word_of.copy())
    counts = tuple(count_tables(own.offsets, own.word_of, own.z, v, k))
    check_weights(own)
    return own, counts


def _sweep_source(k: int) -> str:
    """Source of a sweep over plain lists for exactly k >= 1 topics: the
    loops over topics unrolled into straight-line code on locals, in the
    operation order of the C kernel.

    Documents are walked by their offsets, each over shared iterators of
    words and draws (range leads the zip, so none is read past its end),
    with its factors (d0..) and the topic totals' (s0..) in locals,
    reloaded only at a new document or when a token moves. The old topic's
    own weight term lowers its three counts inline instead of removing the
    token, one block per old topic, so lists are written only on a move."""
    ts = range(k)

    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{t}" for t in ts) + ("," if k == 1 else "")

    def move(topic: str, step: str) -> list[str]:
        # update the three counts of a topic and the factors read from them
        return [
            f"c = cd[{topic}] {step} 1", f"cd[{topic}] = c", f"fd[{topic}] = c + alpha",
            f"c = cw[{topic}] {step} 1", f"cw[{topic}] = c", f"fw[{topic}] = c + pw[{topic}]",
            f"c = tot[{topic}] {step} 1", f"tot[{topic}] = c",
            f"tot_f[{topic}] = c + prior_sum[{topic}]",
        ]

    def weights(old: int) -> list[str]:
        # a{t} is both the running sum the draw is compared with and, at
        # t = k-1, the total; weights are positive, so a0 is 0.0 + w0 as in C
        lines = []
        for t in ts:
            term = (f"((cd[{t}] - 1) + alpha) * ((cw[{t}] - 1) + pw[{t}])"
                    f" / ((tot[{t}] - 1) + p{t})" if t == old else f"d{t} * w{t} / s{t}")
            lines.append(f"a{t} = {f'a{t - 1} + ' if t else ''}{term}")
        return lines

    # one block per old topic, and the first running sum above r picks the
    # new topic; flat ifs that break out of one pass, as an elif chain this
    # deep would not compile for large k
    by_old = ["while True:"] + [
        line for t in ts[:-1]
        for line in (f"    if t == {t}:", *(f"        {w}" for w in weights(t)),
                     "        break")
    ] + [f"    {w}" for w in weights(k - 1)] + ["    break"]
    pick = ["while True:"] + [
        line for t in ts[:-1]
        for line in (f"    if r < a{t}:", f"        n = {t}", "        break")
    ] + [f"    n = {k - 1}", "    break"]
    body = [
        "t = zs[i]",
        "cw = tw[w]", "fw = tw_f[w]", "pw = prior[w]",
        f"{names('w')} = fw",
        *by_old,
        f"r *= a{k - 1}",
        *pick,
        "if n != t:",
        "    zs[i] = n",
        *(f"    {line}" for line in (*move("t", "-"), *move("n", "+"))),
        f"    {names('d')} = fd",
        f"    {names('s')} = tot_f",
    ]
    return "\n".join([
        "def sweep(zs, offsets, words, prior, prior_sum, alpha, dt, tw, tot,",
        "          dt_f, tw_f, tot_f, draws):",
        f"    {names('p')} = prior_sum",
        f"    {names('s')} = tot_f",
        "    words, draws = iter(words), iter(draws)",
        "    for cd, fd, a, b in zip(dt, dt_f, offsets, offsets[1:]):",
        f"        {names('d')} = fd",
        "        for i, w, r in zip(range(a, b), words, draws):",
        *(f"            {line}" for line in body),
        "",
    ])


@functools.cache
def _unrolled_sweep(k: int) -> Callable[..., None]:
    """The list sweep for k topics, compiled once per process and k."""
    namespace: dict = {}
    exec(compile(_sweep_source(k), f"<gibbs sweep, k={k}>", "exec"), namespace)
    return namespace["sweep"]


class _Sampler:
    """The one sampler class: a backend's sweep, which draws its uniforms
    from the generator it is given, the caller's z, and its own z, offsets,
    word_of, n_dt, n_tw and n_t, arrays or lists. A context manager whose
    exit is the only close: it drops the sweep, with every table, copy and
    pointer it holds, writes z back and, if no sweep raised (one that did
    may have left a token uncounted), raises AssertionError naming a table
    its recount disagrees with."""

    def __init__(self, sweep: Callable[[np.random.Generator], None], z: np.ndarray,
                 ids: tuple, tables: tuple):
        self._sweep, self._z, self._ids, self._tables = sweep, z, ids, tables

    def __len__(self) -> int:
        return len(self._z)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # the factor tables go with the sweep, before the write-back and
        # the recount build their temporary arrays
        self._sweep = None
        (z, offsets, word_of), tables = map(np.asarray, self._ids), self._tables
        self._ids = self._tables = None
        self._z[:] = z
        if exc_type is None:
            recount = count_tables(offsets, word_of, z, len(tables[1]), len(tables[2]))
            for name, table, count in zip(("n_dt", "n_tw", "n_t"), tables, recount):
                if not np.array_equal(table, count):
                    raise AssertionError(f"{name} disagrees with the assignments")


def _factor_tables(state: SweepState, counts: tuple[np.ndarray, ...]):
    """The float64 factor each count enters the weights with: n_dt + alpha,
    n_tw + word_prior and n_t + prior_total. Both backends recompute an entry
    whenever its count changes, so every factor is the very double the
    formula in :func:`run_sweep` gives, as int + float is in numpy, Python
    and C. Yielded one at a time, so a caller converting each frees it first."""
    for count, prior in zip(counts, (float(state.alpha), state.word_prior, state.prior_total)):
        yield count + prior


def _python_sampler(state: SweepState) -> _Sampler:
    """A sampler on the pure-Python backend over :func:`_own_state`. It
    copies each field, alpha as a float, the count tables and the factor
    tables of :func:`_factor_tables` to plain lists, where element access is
    far cheaper than on numpy scalars.

    The loop body is generated by :func:`_sweep_source` for the number of
    topics K and compiled once per K: a loop over topics costs CPython an
    iteration, list reads and a list build per topic and token, while
    straight-line code on locals does the same arithmetic, in the same
    order, without them. The source is built from K alone, never from input
    data."""
    own, counts = _own_state(state)
    n = len(own.z)
    values = [v.tolist() if f.metadata else float(v) for f, v in own.items()]
    tables = [t.tolist() for t in chain(counts, _factor_tables(own, counts))]
    # no tokens: nothing to sample, and k may be 0, with no sweep source
    fn = _unrolled_sweep(len(own.prior_total)) if n else lambda *args: None
    # the draws' list is a call argument, freed when the sweep returns
    return _Sampler(lambda rng: fn(*values, *tables, rng.random(n).tolist()),
                    state.z, values[:3], tables[:3])


def _compiled_sampler(fn, state: SweepState) -> _Sampler:
    """A sampler on the compiled kernel `fn` over :func:`_own_state`. It
    makes the factor tables of :func:`_factor_tables` and the kernel's
    weights buffer and takes every array pointer; a sweep passes only the
    generator's ``next_double`` and state, from ``rng.bit_generator.ctypes``,
    and holds the bit generator's lock for the call, as numpy's own draws
    do, since ctypes releases the GIL. Only the sampler holds its copies
    and only the kernel writes them, with topics in [0, k), so the indices
    the kernel follows stay in range without a check per sweep."""
    own, counts = _own_state(state)
    k = len(own.prior_total)
    # data_as pointers keep their arrays alive, so the sweep holds every
    # array whose pointer it passes, the copies and tables it made among them
    head = [len(own.offsets) - 1, k, *(
        a.ctypes.data_as(ctypes.c_void_p) if f.metadata else float(a) for f, a in own.items()),
        *(a.ctypes.data_as(ctypes.c_void_p) for a in chain(
            counts, _factor_tables(own, counts), [np.empty(k, dtype=np.float64)]))]

    def sweep(rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        interface = bit_generator.ctypes
        with bit_generator.lock:
            fn(*head, ctypes.cast(interface.next_double, ctypes.c_void_p),
               interface.state_address)

    return _Sampler(sweep, state.z, (own.z, own.offsets, own.word_of), counts)


def _library_path() -> Path:
    """Cache location of the compiled kernel for this source, flags and
    platform."""
    key = hashlib.sha256()
    key.update(_SOURCE.read_bytes())
    key.update("\0".join(_CFLAGS).encode())
    key.update(sysconfig.get_platform().encode())
    cache = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(cache) if os.path.isabs(cache) else Path.home() / ".cache"
    return root / "tagtopics" / f"_gibbs-{key.hexdigest()[:16]}.so"


def _build() -> Path:
    """Compile the kernel into the cache unless it is already there. The
    library is written to a temporary file and moved into place, so a
    concurrent process never loads a half-written file."""
    target = _library_path()
    if target.exists():
        return target
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, encoding="utf-8", errors="replace", timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@functools.cache
def _compiled_kernel() -> Callable[..., _Sampler] | None:
    """Build and bind the C kernel once per process: the factory of samplers
    on it, or None if that fails."""
    try:
        path = _build()
        # the function keeps its library loaded
        fn = ctypes.CDLL(str(path)).tagtopics_sweep
    except subprocess.CalledProcessError as exc:
        reason = f"compiler failed: {exc.stderr.strip() or exc}"
    except (OSError, subprocess.SubprocessError) as exc:
        reason = str(exc)
    else:
        # n_docs and k, the state's fields, the sampler's own arrays, then
        # the generator's function pointer and state
        fn.argtypes = ([ctypes.c_int64] * 2 + [
            ctypes.c_void_p if f.metadata else ctypes.c_double for f in fields(SweepState)]
            + [ctypes.c_void_p] * (len(_OWN_ARRAYS) + len(_GENERATOR)))
        fn.restype = None
        logger.info("Gibbs sweep backend: c (%s)", path)
        return functools.partial(_compiled_sampler, fn)
    logger.warning("C sweep kernel unavailable (%s); falling back to the "
                   "pure-Python kernel", reason)
    logger.info("Gibbs sweep backend: python")
    return None


def backends() -> dict[str, Callable[..., _Sampler]]:
    """Every sampler backend that runs here, by name, the one
    :func:`open_sampler` uses first; each takes a :class:`SweepState`. The
    only code that picks a backend."""
    compiled = _compiled_kernel()
    return ({} if compiled is None else {"c": compiled}) | {"python": _python_sampler}


def open_sampler(state: SweepState) -> _Sampler:
    """A sampler over one training's state on the first of :func:`backends`:
    the C kernel, or the pure-Python one when it could not be built. Use it
    as a context manager; its exit, normal or by an exception, is the only
    close and leaves z, which belongs to the sampler until then, holding its
    state. ``len(sampler)`` is the token count.

    The arrays must be C-contiguous and of the dtypes and dimensions their
    fields declare, and z writeable; anything else raises TypeError or
    ValueError, and so does a token layout or priors :func:`check_tokens`
    or :func:`check_weights` rejects, before z changes. They are checked
    here, not when the record is built, as the caller may write them in
    between and the sampler follows the ids it copies here."""
    return next(iter(backends().values()))(state)


def run_sweep(sampler: _Sampler, rng: np.random.Generator) -> None:
    """One full sweep: for each token position i, in order, and its
    document d, remove the token from the counts, weight every topic by

        (n_dt[d, t] + alpha) * (n_tw[w, t] + B[w, t]) / (n_t[t] + Bsum[t])

    and reassign by inverse transform on draw i, where the N draws are the
    doubles ``rng.random(N)`` gives, and rng is left as that call leaves it,
    on either backend. A closed sampler raises ValueError before rng is
    drawn from."""
    if sampler._sweep is None:
        raise ValueError("sweep on a closed sampler")
    sampler._sweep(rng)
