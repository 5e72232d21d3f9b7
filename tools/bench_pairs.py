"""Alternated benchmark runs of two commits, summed up as a BENCH file's benchmark_pairs block.

Usage, from anywhere in a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds 25] > pairs.json

Each commit is unpacked with git archive into .bench_build/pairs/<sha>/.
For each of the three workloads, pair N, for N = 1..pairs, runs

    python3 perfbench/run.py --workload W --seed N --seconds S

once in each checkout, the parent first in odd pairs and the change first in
even ones, and reads the JSON summary on the last line of its stdout.  For
each workload and each metric the runs report, the block holds both sides'
runs, their medians, the parent's interquartile range and the number of
pairs in which the change read lower; and each side's failed and attempted
ops.  Runs that print "correct": false, or no summary, are listed under
"incorrect", and the tool then exits 1.  Stdout is one JSON object,
{"benchmark_pairs": block}; each run's metrics go to stderr as it ends.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-evolve-json", "cli-timeavg-csv", "lib-evolve-dense")


def checkout(rev: str) -> tuple[str, pathlib.Path]:
    """(sha, directory) of rev's files, unpacked once under .bench_build/pairs/."""
    parsed = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True)
    if parsed.returncode:
        sys.exit(f"error: {rev!r} names no commit")
    sha = parsed.stdout.strip()
    where = ROOT / ".bench_build" / "pairs" / sha
    if not where.is_dir():  # unpacked beside it, then renamed: an interrupted unpack is never used
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
        partial = where.with_name(sha + ".partial")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the data filter (Python 3.12, and backported) refuses links and paths out of the directory
            tar.extractall(partial, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        partial.rename(where)
    return sha, where


def run(where: pathlib.Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run's summary, or {"correct": False, "reason": ...}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=where, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except ValueError:
        summary = None
    if not isinstance(summary, dict):
        return {"correct": False, "reason": f"exit {done.returncode}, no summary: {done.stderr.strip()[-300:]}"}
    return summary if done.returncode == 0 else {**summary, "correct": False, "reason": f"exit {done.returncode}"}


def summed_up(runs: dict[str, list[dict]]) -> dict:
    """The block of one workload from each side's run summaries, pair by pair."""
    block = {}
    for name in dict.fromkeys(name for r in runs["parent"] + runs["change"] for name in r.get("metrics", {})):
        # the pairs in which both runs report the metric
        both = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in both]
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        quartiles = statistics.quantiles(parent, n=4) if len(pairs) > 1 else None
        block[name] = {
            "parent_runs": parent,
            "change_runs": change,
            "parent_median": statistics.median(parent) if pairs else None,
            "change_median": statistics.median(change) if pairs else None,
            "parent_iqr": quartiles[2] - quartiles[0] if quartiles else None,
            "change_lower_in": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
        }
    for key in ("failed", "attempted"):
        block[f"{key}_ops"] = {side: sum(r.get(key, 0) for r in runs[side]) for side in runs}
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    sides = {"parent": checkout(args.parent), "change": checkout(args.change)}
    block = {
        "how": (
            f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds}, N = 1-{args.pairs}, "
            f"in git archives of the parent ({sides['parent'][0][:7]}) and the change ({sides['change'][0][:7]}), "
            "alternated, the parent first in odd pairs; 'change_lower_in' counts the pairs the change read lower"
        ),
        "workloads": {},
        "incorrect": [],
    }
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                summary = run(sides[side][1], workload, seed, args.seconds)
                runs[side].append(summary)
                print(f"{workload} seed {seed} {side}: {json.dumps(summary.get('metrics', summary))}", file=sys.stderr)
                if summary.get("correct") is not True:
                    block["incorrect"].append({"workload": workload, "seed": seed, "side": side, "reason": summary.get("reason", "correct is not true")})
        block["workloads"][workload] = summed_up(runs)
    print(json.dumps({"benchmark_pairs": block}, indent=1))
    return 1 if block["incorrect"] else 0


if __name__ == "__main__":
    sys.exit(main())
