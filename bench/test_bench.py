"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q

They run the real program from ``src/`` through every stage in smoke mode,
check the result format against BENCHMARK.json, and check that the output
checks catch wrong outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.PROFILES)


@pytest.mark.parametrize("workload", list(workloads.PROFILES))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_accounts_for_all_time():
    proc = _bench("--workload", "predict-vote", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = {name: m["value"] for name, m in _result(proc)["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    own = sum(metrics[f"{module}.self_s"] for module in run.MODULES + ("bench",))
    assert own == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    # The CLI predict path runs the forward pass twice per input today.
    assert metrics["encoder.forward.calls_per_input"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "kb-compile", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_retrieval_check_catches_a_wrong_selection():
    truth = {"a": ["Q1"], "a b": ["Q2"], "b c": ["Q3"]}
    contexts = {"Q1": "x", "Q2": "y", "Q3": "z"}
    tokens = ["A", "B", "C"]
    right = checks.brute_force_pairs(tokens, truth, contexts, 2)
    assert right == [(0, 2, "Q2", "y")]
    assert checks.check_retrieval([(tokens, right)], truth, contexts, 2) == []
    assert checks.check_retrieval([(tokens, [(1, 3, "Q3", "z")])], truth, contexts, 2)


def test_vote_check_catches_missing_tags(tmp_path):
    gold = [("s1", ["a", "b"], ["O", "O"]), ("s2", ["c"], ["O"])]
    path = tmp_path / "voted.tsv"
    path.write_text("# id s1\na\tO\nb\tO\n\n# id s2\nc\tO\n\n")
    assert checks.check_voted(path, gold) == []
    path.write_text("# id s1\na\tO\n\n# id s2\nc\tO\n\n")
    assert checks.check_voted(path, gold)


def test_generator_is_seeded():
    first = workloads.generate(workloads.SMOKE, 5)
    again = workloads.generate(workloads.SMOKE, 5)
    other = workloads.generate(workloads.SMOKE, 6)
    assert first.dump_lines == again.dump_lines and first.aug_sentences == again.aug_sentences
    assert first.dump_lines != other.dump_lines
