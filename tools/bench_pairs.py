"""Run the benchmark in alternating pairs on a parent commit and on this
checkout, and print each metric's medians, quartiles and wins.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N [--first-seed S] [--trace 0|1] [--json FILE]

The parent is checked out with ``git worktree add`` into a temporary
directory, which is removed when the tool ends, on an error too. The change
is the working tree that holds this tool, uncommitted edits included. Pair
``i`` (from 0) runs ``bench/run.py`` at seed ``first_seed + i`` on both
sides with the same arguments, each side with its own ``bench/`` and the
run length of ``BENCHMARK.json``. The parent runs first in even pairs and
the change in odd ones, so a drift in machine speed favours neither side.

For each metric that ``BENCHMARK.json`` names and a run reports (the
end-to-end ones, or with ``--trace 1`` the per-layer ones), the tool prints
each side's median and quartiles, the parent's interquartile range (IQR),
the change of the median and the pairs the change won by the metric's
direction; a tie counts for neither side. The last column reads ``gain``
when at least ten pairs ran, the change won at least nine tenths of them
and its median is better than the parent's by more than the parent's IQR,
the rule a claimed gain must meet, and ``past bound`` when the change's median is worse than
the parent's by more than the metric's bound in ``BENCHMARK.json``.

The report's first line names the workload, the seeds, the host's CPU count
(``nproc``), the parent's commit and the change's, with a mark when the
working tree has uncommitted edits. ``--json FILE`` also writes every run
(its pair, seed, side, place in its pair's order, metrics and failures) and
the summary rows to FILE, so that a claim can cite the file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def schedule(pairs: int, first_seed: int) -> list[tuple[int, tuple[str, str]]]:
    """Each pair's seed and the order in which its two sides run."""
    return [(first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``,
    interpolated between the sorted values (``statistics.quantiles``'
    inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better than the parent."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summarize(parent: list[float], change: list[float], metric: dict) -> dict:
    """Both sides' quartiles, the parent's IQR, the change's wins and the
    verdict, ``gain``, ``past bound`` or an empty string, for a metric of
    ``BENCHMARK.json`` (its ``better`` and, if it has one, its ``bound``)."""
    p_q, c_q = quartiles(parent), quartiles(change)
    iqr = p_q[2] - p_q[0]
    change_wins = wins(parent, change, metric["better"])
    gap = (c_q[1] - p_q[1]) * (1 if metric["better"] == "higher" else -1)
    verdict = ""
    if len(parent) >= 10 and 10 * change_wins >= 9 * len(parent) and gap > iqr:
        verdict = "gain"
    elif "bound" in metric and -gap > metric["bound"] * abs(p_q[1]):
        verdict = "past bound"
    return {"parent": p_q, "change": c_q, "iqr": iqr, "wins": change_wins, "verdict": verdict}


def summary_rows(runs: dict[str, list[dict]], benchmark: dict) -> list[dict]:
    """One row for each metric of ``benchmark`` that every run in ``runs``
    reports, each side's list of run results in pair order: its name, the
    ``summarize`` figures and the relative change of the median, or None
    when the parent's median is 0."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for name in metrics:
        if not all(name in run["metrics"] for side in SIDES for run in runs[side]):
            continue
        parent, change = ([run["metrics"][name]["value"] for run in runs[side]] for side in SIDES)
        s = summarize(parent, change, metrics[name])
        rel = (s["change"][1] - s["parent"][1]) / s["parent"][1] if s["parent"][1] else None
        rows.append({"metric": name, **s, "pairs": len(parent), "relative_change": rel})
    return rows


def table(runs: dict[str, list[dict]], benchmark: dict) -> list[str]:
    """The report lines for ``runs``, each side's list of run results in pair
    order, over the metrics of ``benchmark`` that every run reports."""
    lines = [f"{'metric':40s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
             f"{'parent IQR':>10s} {'change':>8s} {'wins':>6s} verdict"]
    for row in summary_rows(runs, benchmark):
        rel = "n/a" if row["relative_change"] is None else f"{row['relative_change']:+.1%}"
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["parent"], row["change"])]
        lines.append(f"{row['metric']:40s} {cells[0]:>32s} {cells[1]:>32s} {row['iqr']:10.4g} {rel:>8s} "
                     f"{row['wins']:>2d}/{row['pairs']:<3d} {row['verdict']}")
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        lines.append(f"{side} failed {failed} of {attempted} checked operations")
    return lines


def header(args, commits: dict, nproc: int, seconds: float) -> str:
    """The report's first line: what ran, on how many CPUs, and which two
    commits."""
    edits = " with uncommitted edits" if commits["uncommitted"] else ""
    return (f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
            f"--seconds {seconds} --trace {args.trace}, nproc {nproc}, parent {args.parent} = "
            f"{commits['parent'][:12]}, change {commits['change'][:12]}{edits}")


def commits(parent: str) -> dict:
    """The parent's commit, this checkout's ``HEAD`` and whether its working
    tree, which is what the change runs, has uncommitted edits."""

    def git(*argv: str) -> str:
        return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()

    return {"parent": git("rev-parse", "--verify", f"{parent}^{{commit}}"), "change": git("rev-parse", "HEAD"),
            "uncommitted": bool(git("status", "--porcelain"))}


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in the checkout at ``root``: the JSON object
    of its last stdout line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    try:
        return json.loads(run.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: {root}: bench/run.py exited {run.returncode} with no result:\n{run.stderr}") from None


@contextlib.contextmanager
def worktree(rev: str):
    """A detached checkout of ``rev`` in a temporary directory, removed
    with its ``git worktree`` entry on exit."""
    path = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(path), rev], cwd=ROOT, check=True,
                       capture_output=True, text=True)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, capture_output=True)
        shutil.rmtree(path, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run and the summary rows to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    revisions = commits(args.parent)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    log = []  # every run in the order it ran
    with worktree(args.parent) as parent_root:
        roots = {"parent": parent_root, "change": ROOT}
        for number, (seed, order) in enumerate(schedule(args.pairs, args.first_seed), start=1):
            for place, side in enumerate(order):
                print(f"pair {number}/{args.pairs} seed {seed}: {side}", file=sys.stderr, flush=True)
                result = run_bench(roots[side], args.workload, seed, benchmark["run_seconds"], args.trace)
                log.append({"pair": number, "seed": seed, "side": side, "order": place, "metrics": result["metrics"],
                            "failed": result["failed"], "attempted": result["attempted"]})
    runs = {side: [run for run in log if run["side"] == side] for side in SIDES}  # each side's runs in pair order
    print(header(args, revisions, nproc, benchmark["run_seconds"]))
    print("\n".join(table(runs, benchmark)))
    if args.json:
        report = {"workload": args.workload, "pairs": args.pairs, "first_seed": args.first_seed,
                  "seconds": benchmark["run_seconds"], "trace": args.trace, "nproc": nproc, "parent_rev": args.parent,
                  **revisions, "runs": log, "summary": summary_rows(runs, benchmark)}
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
