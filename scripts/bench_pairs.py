#!/usr/bin/env python3
"""Paired benchmark comparison of a parent revision and this checkout.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train-adapter \\
        --seed 1 --pairs 10 --seconds 20

The parent revision is exported with `git archive` (local git only) into a
temporary directory, and so is `--change REV` when given; without it the
change is this checkout, uncommitted changes included. Each pair runs the
parent's and the change's own `perfbench/run.py --trace 0` once, each in its
own process and from its own tree; even pairs run the parent first and odd
pairs the change first, so a drift of the host's speed does not favour one
side.

For `wall_s`, `setup_s` and each step's median time over a run's passes, it
reports the parent's and the change's median over the pairs, the parent's
quartiles, how many pairs each side won, and whether every run's outputs
(perfbench's fingerprint) were equal.

The verdict rule, one for every metric: a gain counts only when there are
at least 10 pairs, the change is faster in at least 9 of 10 of them (90 %;
a tie counts for neither side), and its median is lower than the parent's
by more than the parent's quartile spread (upper minus lower quartile). A
loss is the same rule the other way round. Anything else is "unresolved":
the pairs do not tell the two apart.

The record is added to `BENCH_<short-sha>_<workload>.json` in `--out` (by
default the repository root), where `<short-sha>` is the change's commit,
with `-dirty` appended when the change is this checkout and its tracked files
hold uncommitted changes (as `git describe --dirty` does); each invocation
appends one comparison, with the CPUs, numpy version, BLAS and its thread
count that perfbench reported. The exit code is 0 when every run was
correct and every fingerprint equal.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9
MIN_PAIRS = 10
SIDES = ("parent", "change")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def change_identity(change: str | None, cwd: Path = ROOT) -> tuple[str, bool]:
    """The short sha of the change's commit (`change`, or HEAD when the
    change is the checkout at `cwd`), and whether the change is that
    checkout with uncommitted changes to tracked files."""
    sha = git("rev-parse", "--short", f"{change or 'HEAD'}^{{commit}}", cwd=cwd)
    dirty = change is None and bool(
        git("status", "--porcelain", "--untracked-files=no", cwd=cwd))
    return sha, dirty


def export(rev: str, dest: Path) -> Path:
    """The files of `rev`, as committed, under `dest`; returns `dest`."""
    archive = dest.with_name(dest.name + ".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def parse_run(stdout: str) -> dict:
    """The JSON line, environment, fingerprint and per-pass step times that
    `perfbench/run.py` prints."""
    lines = stdout.strip().splitlines()
    run = {"result": json.loads(lines[-1]), "env": {}, "fingerprint": None,
           "passes": []}
    for line in lines[:-1]:
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.startswith("fingerprint "):
            run["fingerprint"] = json.loads(line[12:])
        elif line.startswith("pass "):
            steps = {}
            # "pass 3: ingest 0.012 s, evaluate:fixed,oracle 0.345 s"
            for part in line.split(": ", 1)[1].split(", "):
                label, seconds, _ = part.rsplit(" ", 2)
                steps[label] = float(seconds)
            run["passes"].append(steps)
    return run


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"perfbench in {tree} printed nothing "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}")
    run = parse_run(done.stdout)
    run["exit"] = done.returncode
    metrics = run["result"]["metrics"]
    values = {name: metrics[name]["value"] for name in ("wall_s", "setup_s")
              if name in metrics}
    for label in (run["passes"][0] if run["passes"] else {}):
        values[f"step.{label}"] = float(np.median(
            [p[label] for p in run["passes"]]))
    run["values"] = values
    return run


def verdict(parent: list[float], change: list[float]) -> dict:
    """Medians, the parent's quartiles, wins and the rule's verdict for one
    lower-is-better metric over paired runs."""
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    q1, q3 = (float(q) for q in np.percentile(parent, [25, 75]))
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    enough = len(parent) >= MIN_PAIRS
    need = math.ceil(WIN_SHARE * len(parent))
    spread = q3 - q1
    if enough and wins >= need and p_med - c_med > spread:
        outcome = "gain"
    elif enough and losses >= need and c_med - p_med > spread:
        outcome = "loss"
    else:
        outcome = "unresolved"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_q1": q1, "parent_q3": q3, "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses,
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": outcome}


def compare(runs: list[dict]) -> dict:
    """Every metric that all runs report, in the order the first run has."""
    names = [n for n in runs[0]["parent"]["values"]
             if all(n in r[s]["values"] for r in runs for s in SIDES)]
    return {n: verdict([r["parent"]["values"][n] for r in runs],
                       [r["change"]["values"][n] for r in runs])
            for n in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", help="git revision (default: this "
                        "checkout, uncommitted changes included)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="perfbench's --seconds for every run")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH_*.json record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent_sha = git("rev-parse", "--short", f"{args.parent}^{{commit}}")
    change_sha, dirty = change_identity(args.change)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": ROOT if args.change is None
                 else export(args.change, Path(tmp) / "change")}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed,
                                      args.seconds)
            runs.append(pair)
            print(f"pair {i} ({order[0]} first): " + ", ".join(
                f"{s} wall_s {pair[s]['values'].get('wall_s', float('nan')):.3f}"
                for s in SIDES), flush=True)

    all_runs = [r[s] for r in runs for s in SIDES]
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in all_runs}
    correct = all(r["result"]["correct"] and r["exit"] == 0 for r in all_runs)
    metrics = compare(runs)
    env = runs[0]["change"]["env"]
    record = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"rev": args.change, "sha": change_sha,
                   "uncommitted_changes": dirty},
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds,
        "rule": f"gain: at least {MIN_PAIRS} pairs, the change wins >= "
                f"{WIN_SHARE:.0%} of them (ties count for neither) and the "
                "medians differ by more than the parent's quartile spread; "
                "loss: the same the other way",
        "env": {k: env.get(k) for k in ("nproc", "cpu", "python", "numpy",
                                        "blas", "blas_threads")},
        "correct": correct, "fingerprints_equal": len(fingerprints) == 1,
        "metrics": metrics,
        "runs": [{"pair": r["pair"], "first": r["first"],
                  **{s: r[s]["values"] for s in SIDES}} for r in runs],
    }

    for name, m in metrics.items():
        print(f"{name}: parent {m['parent_median']:.4f} "
              f"[{m['parent_q1']:.4f}, {m['parent_q3']:.4f}] -> change "
              f"{m['change_median']:.4f} ({m['change_pct']:+.1f} %), "
              f"wins {m['wins']}/{args.pairs}, {m['verdict']}")
    print(f"correct {correct}, fingerprints equal "
          f"{record['fingerprints_equal']}")

    args.out.mkdir(parents=True, exist_ok=True)
    label = change_sha + ("-dirty" if dirty else "")
    path = args.out / f"BENCH_{label}_{args.workload}.json"
    comparisons = json.loads(path.read_text())["comparisons"] \
        if path.is_file() else []
    comparisons.append(record)
    path.write_text(json.dumps({"workload": args.workload, "change": label,
                                "comparisons": comparisons},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if correct and record["fingerprints_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
