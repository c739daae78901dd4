"""Benchmark of the tagtopics CLI pipeline.

    python3 bench/run.py --workload covid_tweets --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed, then runs the ten subcommands
one after another, each in its own process, the way a user runs them, and
repeats that pass until --seconds have gone by. Every artifact of the first
pass is checked against what the generator planted (checks.py); every later
pass must write the same bytes. One process runs at a time.

--trace 0 prints the end-to-end metrics, medians over the passes. --trace 1
alternates untraced and traced passes and prints per-layer self times and
call counts (medians over the traced passes) and the tracing overhead. The
last line of standard output is the result object; a fuller record, with
the sweep backend, the Python version and the core count, is written to
.bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from checks import ARTIFACTS, run_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
RUNS = ROOT / ".bench_runs"

COMMANDS = tuple(ARTIFACTS)
GROUPS = {
    "scan_s": ("trends", "sentiment"),
    "lexical_s": ("words", "bigrams"),
    "syntax_s": ("verbs", "pairs"),
    "train_s": ("topics-train",),
    "apply_s": ("topics-classify", "topics-eval", "report"),
}
SETUP_REPS = {"full": 7, "smoke": 1}
PROCESS_TIMEOUT = 150  # seconds; one subcommand never takes this long here


def pipeline_argv(workload: str, data: Path, out: Path, smoke: bool) -> list[list[str]]:
    """The ten subcommand invocations of one pass, in order."""
    size = workloads.SIZES[workload]["smoke" if smoke else "full"]
    base = ["--corpus", str(data / "corpus.jsonl"), "--taxonomy", str(data / "taxonomy.json")]
    parses = ["--parses", str(data / "parses.conllu")]
    dest = ["--out", str(out)]
    iters = [] if size.iters is None else ["--iters", str(size.iters)]
    argv = {
        "trends": [*base, *dest],
        "words": [*base, *dest],
        "bigrams": [*base, *dest],
        "sentiment": [*base, *dest],
        "verbs": [*base, *parses, *dest],
        "pairs": [*base, *parses, *dest],
        "topics-train": [*base, "--seed-file", str(data / "seeds.json"), *iters, *dest],
        "topics-classify": [*dest],
        "topics-eval": [*base, *dest],
        "report": [*dest],
    }
    return [[command, *argv[command]] for command in COMMANDS]


def sweeps(workload: str, smoke: bool) -> int:
    iters = workloads.SIZES[workload]["smoke" if smoke else "full"].iters
    return 2000 if iters is None else iters  # the program's default


class Runner:
    """Spawns worker processes in one scratch directory of the checkout."""

    def __init__(self, work: Path, no_compiler: bool):
        self.work = work
        self.count = 0
        tmp = work / "tmp"  # the compiler's scratch files stay in the checkout
        tmp.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        if no_compiler:
            empty_bin = work / "empty_bin"
            empty_bin.mkdir()
            env["PATH"] = str(empty_bin)  # no cc or gcc
        self.env = env

    def spawn(self, args: list[str], cache: Path, trace: bool) -> tuple[dict | None, float, str]:
        """Run one worker; returns its result (None if it crashed), its wall
        time and its standard error."""
        self.count += 1
        result = self.work / f"r{self.count}.json"
        cmd = [sys.executable, str(WORKER), "--src", str(SRC), "--result", str(result)]
        cmd += ["--trace"] if trace else []
        env = dict(self.env, XDG_CACHE_HOME=str(cache))
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd + args, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            return None, time.perf_counter() - start, f"timed out: {exc}"
        wall = time.perf_counter() - start
        if not result.exists():
            return None, wall, proc.stderr
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if trace:
            spans = Path(str(result) + ".npz")
            data["layers"] = layer_times(data, spans)
            spans.unlink()
        return data, wall, proc.stderr

    def setup(self, trace: bool = False) -> tuple[dict | None, float, str]:
        """A fresh process with an empty kernel cache readies the kernel."""
        cache = self.work / f"cache{self.count}"
        cache.mkdir()
        try:
            return self.spawn(["--setup"], cache, trace)
        finally:
            shutil.rmtree(cache)


def layer_times(result: dict, spans_path: Path) -> dict[str, float]:
    """Self time and call count of every span name in one process, plus the
    process's own counts. Self time is a span's duration minus the spans
    directly inside it."""
    with np.load(spans_path) as spans:
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
    nested = parent >= 0
    inner = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - inner
    names = result["span_names"]
    self_s = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    out = {}
    for i, span in enumerate(names):
        out[f"{span}.s"] = float(self_s[i])
        out[f"{span}.calls"] = int(calls[i])
    out.update(result["counts"])
    out["cli.self_s"] = result["seconds"] - float(dur[~nested].sum())
    return out


def digest(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS.values() if (out / name).exists()}


def changed_artifacts(reference: dict[str, str], out: Path) -> set[str]:
    """Artifacts in `out` whose bytes differ from the reference digests."""
    return {name for name, h in digest(out).items() if reference.get(name) != h}


class Pass:
    """One run of the ten subcommands into its own output directory."""

    def __init__(self, runner: Runner, workload: str, data: Path, out: Path,
                 cache: Path, smoke: bool, trace: bool):
        self.times: dict[str, float] = {}
        self.rss_kb: list[int] = []
        self.layers: list[dict] = []
        self.failed: set[str] = set()
        self.errors: list[str] = []
        for argv in pipeline_argv(workload, data, out, smoke):
            result, _, stderr = runner.spawn(["--", *argv], cache, trace)
            if result is None or result["rc"] != 0:
                self.failed.add(argv[0])
                self.errors.append(f"{argv[0]} failed: {stderr.strip()[-500:]}")
                continue
            self.times[argv[0]] = result["seconds"]
            self.rss_kb.append(result["maxrss_kb"])
            if trace:
                self.layers.append(result["layers"])

    def group(self, commands) -> float:
        return sum(self.times.get(c, 0.0) for c in commands)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[Pass], setup: list[float], model_bytes: int) -> dict:
    metrics = {"setup_s": (median(setup), "s"),
               "pipeline_s": (median(p.group(COMMANDS) for p in passes), "s")}
    for name, commands in GROUPS.items():
        metrics[name] = (median(p.group(commands) for p in passes), "s")
    metrics["peak_rss_mb"] = (median(max(p.rss_kb) / 1024 for p in passes), "MB")
    metrics["model_bytes"] = (float(model_bytes), "bytes")
    return metrics


def per_layer(traced: list[Pass], setups: list[dict], overhead: float) -> dict:
    """Sum each layer figure over one traced set-up and one traced pass, then
    take the median over rounds."""
    rounds = []
    for p, setup in zip(traced, setups):
        total: dict[str, float] = {}
        for layers in [setup] + p.layers:
            for key, value in layers.items():
                if key == "cli.self_s" and layers is setup:
                    continue
                total[key] = total.get(key, 0) + value
        rounds.append(total)
    metrics = {}
    for key in rounds[0]:
        if key == "gibbs.tokens":
            continue
        unit = "s" if key.endswith(".s") or key == "cli.self_s" else "count"
        metrics[key] = (median(r.get(key, 0.0) for r in rounds), unit)
    metrics["porter.stem.useful_ratio"] = (
        median(r["porter.stem.distinct"] / r["porter.stem.calls"] for r in rounds), "ratio")
    metrics["gibbs.ns_per_token"] = (
        median(r["gibbs.run_sweep.s"] / r["gibbs.tokens"] * 1e9 for r in rounds), "ns")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work: Path) -> tuple[dict, dict]:
    no_compiler = workload == "no_compiler"
    runner = Runner(work, no_compiler)
    warm = work / "kernel_cache"  # stays empty when there is no compiler
    warm.mkdir()
    first, _, stderr = runner.spawn(["--setup"], warm, False)  # also writes .pyc files
    if first is None:
        raise RuntimeError(f"kernel set-up failed: {stderr}")
    backend = first["backend"]

    data = work / "data"
    truth = workloads.generate(workload, data, seed, smoke)
    reps = SETUP_REPS["smoke" if smoke else "full"]
    setup_times = [] if trace else [runner.setup()[1] for _ in range(reps)]

    passes: list[Pass] = []
    traced: list[Pass] = []
    traced_setups: list[dict] = []
    reference: dict[str, str] = {}
    failures: list[str] = []
    attempted = failed = 0
    kinds = [False, True] if trace else [False]  # untraced, then traced
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if trace:
            result, _, stderr = runner.setup(trace=True)
            if result is None:
                raise RuntimeError(f"traced kernel set-up failed: {stderr}")
            traced_setups.append(result["layers"])
        for traced_pass in kinds:
            out = work / f"out{len(passes) + len(traced)}"
            p = Pass(runner, workload, data, out, warm, smoke, traced_pass)
            bad = set(p.failed)
            failures += p.errors
            if not reference:
                found = run_checks(out, truth, sweeps(workload, smoke))
                failures += [str(f) for f in found]
                bad |= {c for c in COMMANDS if ARTIFACTS[c] in {f.artifact for f in found}}
                reference = digest(out)
                kept = out
            else:
                changed = changed_artifacts(reference, out)
                failures += [f"{name}: bytes differ from the first pass" for name in sorted(changed)]
                bad |= {c for c in COMMANDS if ARTIFACTS[c] in changed}
                shutil.rmtree(out)
            attempted += len(COMMANDS)
            failed += len(bad)
            (traced if traced_pass else passes).append(p)

    if no_compiler:
        # untimed: the same training on the C kernel must give the same model
        c_out = work / "c_kernel"
        train = pipeline_argv(workload, data, c_out, smoke)[COMMANDS.index("topics-train")]
        (work / "c_runner").mkdir()
        c_runner = Runner(work / "c_runner", False)
        c_cache = work / "c_cache"
        c_cache.mkdir()
        result, _, stderr = c_runner.spawn(["--", *train], c_cache, False)
        if result is None or result["rc"] != 0 or changed_artifacts(reference, c_out):
            failures.append(f"model.json: the C kernel's model differs ({stderr.strip()[-300:]})")
            failed += 1

    model_bytes = (kept / "model.json").stat().st_size if (kept / "model.json").exists() else 0
    if trace:
        overhead = (median(p.group(COMMANDS) for p in traced)
                    - median(p.group(COMMANDS) for p in passes))
        metrics = per_layer(traced, traced_setups, overhead)
    else:
        metrics = end_to_end(passes, setup_times, model_bytes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "backend": backend, "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": len(passes), "traced_passes": len(traced),
        "setup_times": setup_times, "failures": failures,
        "pass_times": [p.times for p in passes + traced],
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload and check in seconds")
    args = parser.parse_args()
    if not (SRC / "tagtopics" / "cli.py").is_file():
        print(f"error: no tagtopics sources under {SRC}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "backend", "python", "nproc",
                                              "passes", "traced_passes")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
