import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
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
