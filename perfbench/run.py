#!/usr/bin/env python3
"""Benchmark of the planlm pipeline.

    python3 perfbench/run.py --workload train-adapter --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload seed makes the synthetic corpus
and the run's master seed; the program sees only the corpus file. One run
sets up (the corpus, a trained run directory where the workload needs one,
and one untimed warm-up pass), then repeats the workload's timed pipeline
steps, each pass in a fresh run directory, until `--seconds` have passed,
and reports medians over the passes. Every pass must give the same outputs (the fingerprint) and meet
the output invariants. With `--trace 1` one more pass runs with every traced
layer wrapped, and the per-layer metrics come from it.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` steps, and `metrics` (the end-to-end metrics untraced, the
per-layer metrics traced). The lines before it print every metric of the
workload by name and unit, and the environment. The full record is also
written to `.perfbench/results/` in the repository root. The exit code is 0
only when every step succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# the end-to-end metrics every workload reports untraced; the workload's other
# end-to-end metrics are printed and recorded, but only these are produced
# by every workload and steady across seeds
END_TO_END = {"wall_s": "s", "setup_s": "s"}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use, or lower when the
    environment asks for fewer; must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--desk", action="store_true",
                        help="run on the ROADMAP's 400-article desk corpus "
                             "and desk_config (adapter workloads only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "planlm" / "__init__.py").is_file():
        print(f"no planlm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.desk:
        workload = workloads.desk(workload)

    env = bench.environment(blas_threads, workload,
                            workload.run_config(args.seed))
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    record = bench.measure(workload, args.seed, args.seconds, bool(args.trace),
                           OUT / "work")
    env["loadavg_end"] = list(os.getloadavg())
    print("loadavg_end " + json.dumps(env["loadavg_end"]))

    runs = [(f"pass {i}", p) for i, p in enumerate(record["passes"])]
    if "warmup" in record:
        runs.insert(0, ("warm-up", record["warmup"]))
    if "traced" in record:
        runs.append(("traced", record["traced"]))
    for kind, p in runs:
        print(f"{kind}: " + ", ".join(f"{label} {s:.3f} s"
                                      for label, s in p["steps"].items()))
    stage = record["stage_metrics"]
    for name, value in stage.items():
        print(f"metric {name} {value:.6g} {workloads.unit_of(name)}")
    if record["passes"]:
        print("fingerprint " + json.dumps(record["passes"][0]["fingerprint"],
                                          sort_keys=True))
    if args.trace:
        metrics = record.get("layers", {})
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {n: {"value": stage[n], "unit": u}
                   for n, u in END_TO_END.items() if n in stage}
    for problem in record["problems"]:
        print(f"FAILED {problem}")

    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        import numpy as np
        np.savez_compressed(results / f"{name}-spans.npz", **spans)
    (results / f"{name}.json").write_text(json.dumps(
        {"env": env, **record}, indent=1, sort_keys=True) + "\n")

    correct = not record["problems"] and record["failed"] == 0 \
        and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
