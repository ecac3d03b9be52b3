import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402

# The digests at seed 1 of the artifacts that no model output reaches. The
# others depend on the BLAS build, so they are compared between checkouts,
# not pinned.
TEXT_ARTIFACT_DIGESTS = Path(__file__).with_name("text_artifact_digests.txt")


def test_line_coverage_names_the_lines_that_never_ran(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""A module."""\n'
        "\n"
        "\n"
        "def called(x):\n"
        "    y = x + 1\n"
        "    return y\n"
        "\n"
        "\n"
        "def uncalled(x):\n"
        '    """Never called."""\n'
        "    y = [x * 2 for _ in range(3)]\n"
        "    return y\n",
        encoding="utf-8",
    )
    (tmp_path / "test_mod.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "\n"
        "sys.path.insert(0, str(Path(__file__).parent / 'src'))\n"
        "\n"
        "import mod\n"
        "\n"
        "\n"
        "def test_called():\n"
        "    assert mod.called(1) == 2\n",
        encoding="utf-8",
    )
    argv = [sys.executable, str(TOOLS / "line_coverage.py"), "--src", str(tmp_path / "src"), "-q", "-p", "no:cacheprovider",
            str(tmp_path / "test_mod.py")]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert [line for line in run.stdout.splitlines() if line.startswith("src/")] == ["src/mod.py:11", "src/mod.py:12"]


def test_artifact_digest_prints_one_sha256_per_artifact():
    run = subprocess.run([sys.executable, str(TOOLS / "artifact_digest.py")], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    expected = ["kb/contexts.tsv", "kb/meta.json", "kb/surfaces.tsv", "pairs.jsonl", "plan.json"]
    runs = ["build-kb", "retrieve", "split", "coverage"]
    for mode in ("default", "strict-paper"):
        expected += [f"test.{mode}.aug.jsonl", f"train.{mode}.aug.jsonl", f"ab.{mode}.json", f"{mode}.voted.tsv"]
        expected += [f"{mode}.seed{seed}{suffix}" for seed in (1, 2) for suffix in (".bin", ".tsv", ".tsv.dist.jsonl")]
        runs += [f"augment.train.{mode}", f"augment.test.{mode}", f"vote.{mode}", f"synthetic-ab.{mode}"]
        runs += [f"{command}.{mode}.seed{seed}" for command in ("train", "predict") for seed in (1, 2)]
        runs += [f"score.{mode}.{report}" for report in ("json", "text")]
    expected += [f"log/{run}.{stream}" for run in runs for stream in ("stdout", "stderr")]
    assert [line.split()[0] for line in lines] == sorted(expected)
    pinned = dict(line.split() for line in TEXT_ARTIFACT_DIGESTS.read_text(encoding="utf-8").splitlines())
    assert len(pinned) == 12
    assert {name: digest for name, digest in map(str.split, lines) if name in pinned} == pinned


def test_bench_pairs_alternates_which_side_runs_first():
    assert bench_pairs.schedule(4, first_seed=4) == [
        (4, ("parent", "change")), (5, ("change", "parent")), (6, ("parent", "change")), (7, ("change", "parent")),
    ]


def test_bench_pairs_quartiles_and_wins():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    parent, change = [1.0, 2.0, 3.0], [2.0, 2.0, 1.0]  # the tie in the middle counts for neither side
    assert (bench_pairs.wins(parent, change, "higher"), bench_pairs.wins(parent, change, "lower")) == (1, 1)


PARENT = [float(v) for v in range(100, 110)]  # quartiles 102.25 and 106.75: IQR 4.5


@pytest.mark.parametrize("change,better,verdict,change_wins", [
    ([v + 20 for v in PARENT], "higher", "gain", 10),
    ([v - 20 for v in PARENT], "lower", "gain", 10),
    ([v + 4 for v in PARENT], "higher", "", 10),  # every pair won, by less than the IQR
    ([v + 20 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], "higher", "", 8),  # 8 of 10 pairs won
    ([v + 20 for v in PARENT[:9]] + [PARENT[9]], "higher", "gain", 9),  # 9 of 10 won, 1 tied
    ([v - 10 for v in PARENT], "higher", "", 0),  # the median 9.6% worse, inside the bound of 10%
    ([v - 11 for v in PARENT], "higher", "past bound", 0),  # 10.5% worse
    ([v + 11 for v in PARENT], "lower", "past bound", 0),
])
def test_bench_pairs_verdict(change, better, verdict, change_wins):
    summary = bench_pairs.summarize(PARENT, change, {"better": better, "bound": 0.1})
    assert summary["iqr"] == 4.5 and summary["parent"] == (102.25, 104.5, 106.75)
    assert (summary["verdict"], summary["wins"]) == (verdict, change_wins)


def test_bench_pairs_claims_no_gain_from_fewer_than_ten_pairs():
    summary = bench_pairs.summarize(PARENT[:9], [v + 20 for v in PARENT[:9]], {"better": "higher"})
    assert (summary["verdict"], summary["wins"]) == ("", 9)


def test_bench_pairs_table_reads_canned_results():
    def result(rate, failed=0, **more):
        metrics = {"vote_sentences_per_s": {"value": rate, "unit": "1/s"}, **more}
        return {"metrics": metrics, "failed": failed, "attempted": 10}

    extra = {"setup_s": {"value": 1.0, "unit": "s"}}
    runs = {"parent": [result(100.0 + i) for i in range(10)],
            "change": [result(130.0 + i, **extra) for i in range(9)] + [result(139.0, failed=1)]}
    benchmark = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                                {"name": "vote_sentences_per_s", "better": "higher", "bound": 0.25}], "per_layer": []}
    header, row, parent_failed, change_failed = bench_pairs.table(runs, benchmark)
    assert row.split()[0] == "vote_sentences_per_s" and row.split()[-3:] == ["+28.7%", "10/10", "gain"]  # medians 104.5 and 134.5
    assert "setup_s" not in "".join([header, row])  # the parent's runs do not report it
    assert (parent_failed, change_failed) == ("parent failed 0 of 100 checked operations",
                                              "change failed 1 of 100 checked operations")


def test_bench_pairs_header_and_json_keep_every_run(tmp_path, monkeypatch, capsys):
    """With canned runs in place of ``bench/run.py``: the header names nproc
    and both commits, and ``--json`` keeps each run in the order it ran and
    the summary rows that the table prints."""
    def run_bench(root, workload, seed, seconds, trace):
        rate = 100.0 + seed if root == tmp_path else 130.0 + seed
        return {"metrics": {"vote_sentences_per_s": {"value": rate, "unit": "1/s"}}, "failed": 0, "attempted": 10}

    @contextlib.contextmanager
    def worktree(rev):
        yield tmp_path

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "worktree", worktree)
    monkeypatch.setattr(bench_pairs, "commits", lambda rev: {"parent": "a" * 40, "change": "b" * 40, "uncommitted": True})
    out = tmp_path / "pairs.json"
    argv = ["--parent", "HEAD~1", "--workload", "predict-vote", "--pairs", "10", "--first-seed", "3", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert header == (f"predict-vote: 10 pairs, seeds 3-12, --seconds 12 --trace 0, nproc {nproc}, parent HEAD~1 = "
                      f"{'a' * 12}, change {'b' * 12} with uncommitted edits")
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["parent"], report["change"], report["nproc"], report["parent_rev"]) == ("a" * 40, "b" * 40, nproc, "HEAD~1")
    assert [(run["pair"], run["seed"], run["side"], run["order"]) for run in report["runs"][:4]] == [
        (1, 3, "parent", 0), (1, 3, "change", 1), (2, 4, "change", 0), (2, 4, "parent", 1)]
    assert len(report["runs"]) == 20 and report["runs"][1]["metrics"]["vote_sentences_per_s"]["value"] == 133.0
    [row] = report["summary"]
    assert (row["metric"], row["parent"], row["change"], row["wins"], row["pairs"], row["verdict"]) == (
        "vote_sentences_per_s", [105.25, 107.5, 109.75], [135.25, 137.5, 139.75], 10, 10, "gain")
    assert lines[1].split()[0] == "vote_sentences_per_s" and lines[1].split()[-1] == "gain"
