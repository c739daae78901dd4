"""Self-tests of the benchmark: every artifact check passes on the program's
output and fails on a deliberately corrupted copy of that artifact, and the
smoke mode runs every workload clean.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tagtopics import cli, corpus, porter, textprep  # noqa: E402


@pytest.fixture(scope="module", params=["covid_tweets", "planted_topics"])
def pipeline(request, tmp_path_factory):
    """One smoke-size pass of the ten subcommands, run in this process."""
    root = tmp_path_factory.mktemp(request.param)
    truth = workloads.generate(request.param, root / "data", seed=7, smoke=True)
    old_cache = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(root / "cache")
    try:
        for argv in run.pipeline_argv(request.param, root / "data", root / "out", True):
            assert cli.main(argv) == 0, argv
    finally:
        if old_cache is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = old_cache
    return request.param, truth, root / "out"


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _set(rows, row, col, value):
    rows[row][col] = value
    return rows


def _move_share(rows):
    # keeps the category's sum at 100, so only the planted-share test sees it
    rows[1][2] = f"{float(rows[1][2]) + 1:.6f}"
    rows[2][2] = f"{float(rows[2][2]) - 1:.6f}"
    return rows


PLANTED_VERBS = {verb for _, verb, _ in workloads.PLANTED.values()}

CORRUPTIONS = {
    "trends.csv": lambda out: _edit_csv(
        out / "trends.csv", lambda r: _set(r, 1, 2, str(int(r[1][2]) + 1))),
    "words.csv": lambda out: _edit_csv(out / "words.csv", lambda r: _set(r, 1, 2, "stayhom")),
    "bigrams.csv": lambda out: _edit_csv(
        out / "bigrams.csv", lambda r: _set(r, 1, 2, r[2][2])),
    "sentiment.csv": lambda out: _edit_csv(out / "sentiment.csv", _move_share),
    "verbs.csv": lambda out: _edit_csv(
        out / "verbs.csv", lambda r: [row for row in r if row[2] not in PLANTED_VERBS]),
    "pairs.csv": lambda out: _edit_csv(
        out / "pairs.csv", lambda r: _set(r, 1, 3, str(int(r[1][3]) + 1))),
    "model.json": lambda out: _edit_json(
        out / "model.json", lambda d: d.update(iterations=d["iterations"] + 1)),
    "assignments.csv": lambda out: _edit_csv(out / "assignments.csv", lambda r: r[:-1]),
    "report.json": lambda out: _edit_json(
        out / "report.json", lambda d: d.update(accuracy=d["accuracy"] - 1e-9)),
    "summary.json": lambda out: _edit_json(
        out / "summary.json", lambda d: d["trends.csv"].update(rows=d["trends.csv"]["rows"] + 1)),
}


def test_clean_output_passes(pipeline):
    workload, truth, out = pipeline
    assert checks.run_checks(out, truth, run.sweeps(workload, True)) == []


@pytest.mark.parametrize("artifact", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails(pipeline, artifact, tmp_path):
    workload, truth, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    CORRUPTIONS[artifact](copy)
    failed = {f.artifact for f in checks.run_checks(copy, truth, run.sweeps(workload, True))}
    assert artifact in failed


def test_wrong_topics_fail_planted_accuracy(pipeline, tmp_path):
    workload, truth, out = pipeline
    if not truth.planted:
        pytest.skip("only planted workloads know each tweet's topic")
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    _edit_csv(copy / "assignments.csv",
              lambda r: r[:1] + [[row[0], "unassigned"] for row in r[1:]])
    with pytest.raises(checks.CheckFailed, match="planted-topic accuracy"):
        checks.check_assignments(copy, truth)


def test_changed_bytes_are_found(pipeline, tmp_path):
    _, _, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    reference = run.digest(out)
    assert run.changed_artifacts(reference, copy) == set()
    with open(copy / "model.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert run.changed_artifacts(reference, copy) == {"model.json"}


def test_hand_written_stems_match_the_stemmer():
    taxonomy = corpus.CategoryTaxonomy.from_mapping(workloads.TAXONOMY)
    assert set(workloads.ECHO_STEMS) | set(workloads.ECHO_STEMS.values()) == \
        textprep._echo_terms(taxonomy, ())
    assert all(porter.stem(t) == s for t, s in workloads.ECHO_STEMS.items())
    for cat, (bigram, _, _) in workloads.PLANTED.items():
        assert " ".join(porter.stem(w) for w in bigram) == workloads.BIGRAM_STEMS[cat]


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_smoke_run_is_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 2 * len(run.COMMANDS)
