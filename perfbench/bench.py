"""Measuring one workload: set-up, timed passes, checks, the traced pass."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import (check_outputs, decoded_tokens, fingerprint,
                       lm_target_tokens, stage_metrics)

ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(blas_threads: int, workload, config) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "corpus": {"articles": workload.articles,
                   "sentences_per_article": workload.sentences,
                   "n_val": config.n_val, "n_test": config.n_test, "k": config.k},
        "loadavg_start": list(os.getloadavg()),
    }


class StepFailed(Exception):
    pass


class Run:
    """One benchmark invocation: its passes, checks and step accounting."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.config = workload.run_config(seed)
        self.seed = seed
        self.work = work
        self.corpus = work / "corpus.jsonl"
        self.base: Path | None = None
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def steps(self, steps, out_dir: Path, tracer=None) -> list:
        done = []
        for step in steps:
            self.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is None:
                    extra = step.run(self.config, out_dir, self.corpus)
                else:
                    with tracer.span(f"pipeline.{step.stage}"):
                        extra = step.run(self.config, out_dir, self.corpus)
            except Exception as exc:
                self.failed += 1
                raise StepFailed(f"{step.label}: {type(exc).__name__}: {exc}") \
                    from exc
            done.append((step, time.perf_counter() - started, extra))
        return done

    def setup(self) -> dict:
        """Build the inputs (the corpus, and the trained run directory when
        the workload starts from one), then run one untimed warm-up pass, so
        that caches fill and lazy initialisation finishes before timing.
        Returns the warm-up pass; `setup_s` is the time of all of it."""
        started = time.perf_counter()
        self.workload.write_corpus(self.seed, self.corpus)
        if self.workload.setup:
            self.base = self.work / "trained"
            self.steps(self.workload.setup, self.base)
        built = time.perf_counter() - started
        warmup = self.one_pass("warmup")
        self.setup_s = built + warmup["metrics"]["wall_s"]
        return warmup

    def one_pass(self, index, tracer=None) -> dict:
        out_dir = self.work / f"pass-{index}"
        if self.base is not None:
            shutil.copytree(self.base, out_dir)
        done = self.steps(self.workload.timed, out_dir, tracer)
        fp = fingerprint(out_dir, done)
        self.problems += [f"pass {index}: {p}"
                          for p in check_outputs(self.config, out_dir, fp)]
        metrics = stage_metrics(done, fp,
                                lm_target_tokens(self.config, out_dir, done),
                                decoded_tokens(out_dir))
        shutil.rmtree(out_dir)
        return {"steps": {step.label: seconds for step, seconds, _ in done},
                "fingerprint": fp, "metrics": metrics}


def measure(workload, seed: int, seconds: float, traced: bool,
            work_root: Path) -> dict:
    """Set up, time passes for `seconds`, optionally trace one more pass.

    Returns the run's record: per-pass step times, fingerprints and metrics,
    `stage_metrics` (medians over the timed passes), and when traced the
    per-layer metrics (`layers`) and the span arrays (`spans`).
    """
    work_root.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, Path(tempfile.mkdtemp(
        prefix=f"{workload.name}-{seed}-", dir=work_root)))
    record: dict = {"workload": workload.name, "seed": seed, "passes": []}
    tracer = None
    try:
        record["warmup"] = run.setup()
        record["setup_s"] = run.setup_s
        # set-up holds one whole pipeline run; later passes only add
        # allocator noise
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        started = time.perf_counter()
        while not record["passes"] or time.perf_counter() - started < seconds:
            record["passes"].append(run.one_pass(len(record["passes"])))
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                record["traced"] = run.one_pass(len(record["passes"]), tracer)
            finally:
                tracer.uninstall()
            silent = tracing.silent_spans(tracer, workload.idle)
            if silent:
                run.problems.append(
                    "traced layers recorded no call: " + ", ".join(silent))
    except StepFailed as exc:
        run.problems.append(f"step failed: {exc}")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    runs = [record[k] for k in ("warmup", "traced") if k in record] \
        + record["passes"]
    if len({json.dumps(r["fingerprint"], sort_keys=True) for r in runs}) > 1:
        run.problems.append("fingerprint differs between passes")
    record.update(attempted=run.attempted, failed=run.failed,
                  problems=run.problems)
    record["stage_metrics"] = stage = summarize(record)
    if "traced" in record:
        overhead = record["traced"]["metrics"]["wall_s"] - stage["wall_s"]
        record["layers"] = {
            name: {"value": value, "unit": tracing.PER_LAYER[name]}
            for name, value in tracing.layer_metrics(tracer, overhead).items()}
        record["spans"] = tracer.span_arrays()
    return record


def summarize(record: dict) -> dict[str, float]:
    """Median over the timed untraced passes of every end-to-end metric the
    workload produces, with set-up time and the peak memory of set-up."""
    passes = [p["metrics"] for p in record["passes"]]
    out = {}
    if passes:
        out = {name: statistics.median(p[name] for p in passes)
               for name in passes[0] if all(name in p for p in passes)}
    for name in ("setup_s", "peak_rss_mb"):
        if name in record:
            out[name] = record[name]
    return out
