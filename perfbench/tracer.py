"""Outside-in tracer for the planlm benchmark.

The tracer never edits `planlm`: it replaces each traced public function or
method with a wrapper that records a span (name, start, end, parent span),
and puts the original back when uninstalled. A function is replaced at every
`planlm` module attribute that binds it, so a name imported with
`from .x import f` is traced as well as `x.f`. Spans are kept in memory; the
per-layer table and the span arrays are produced once, at the end.

Per-layer times are self times (a span's duration minus its traced
children), except `pipeline.<step>_s`, which is the duration of that step.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

import numpy as np

# pipeline steps in run order; a span "pipeline.<step>" wraps each step call
STEPS = ("ingest", "embed", "cluster", "actions", "pretrain_lm",
         "train_planner", "finetune", "generate", "evaluate", "scan_oracle")

# autodiff forward ops, grouped as reported
OP_GROUPS = {
    "matmul": ("matmul",), "gelu": ("gelu",), "layer_norm": ("layer_norm",),
    "softmax": ("softmax",), "embedding": ("embedding",),
    "cross_entropy": ("cross_entropy",),
    "elementwise": ("add", "mul", "scale"),
    "shape": ("reshape", "swapaxes", "reduce_sum"),
}

# the caller an LM forward is attributed to: its nearest enclosing span
TOKEN_KINDS = {"lm.train": "train", "evaluation.corpus_nll": "score",
               "generation.generate": "decode",
               "evaluation.oracle_scan": "scan", "evaluation.noise_scan": "scan"}

# name -> unit of every per-layer metric, in report order
PER_LAYER: dict[str, str] = {
    **{f"pipeline.{step}_s": "s" for step in STEPS},
    **{f"autodiff.{group}.{field}": unit for group in OP_GROUPS
       for field, unit in (("fwd_s", "s"), ("calls", "count"))},
    "autodiff.backward_s": "s", "autodiff.backward_calls": "count",
    "autodiff.adam_s": "s",
    "nn.attention_s": "s", "nn.block_self_s": "s",
    "lm.forward_s": "s", "lm.forward_calls": "count",
    **{f"lm.forward_tokens.{kind}": "count"
       for kind in ("train", "score", "decode", "scan")},
    "generation.generate_s": "s", "generation.decoded_tokens": "count",
    "generation.forward_tokens_per_decoded_token": "ratio",
    "generation.replans": "count",
    "planner.logits_s": "s", "planner.rows": "count", "planner.train_s": "s",
    "planner.predict_repeat_ratio": "ratio",
    "evaluation.hmm_fit_s": "s", "evaluation.hmm_iterations": "count",
    "evaluation.corpus_nll_s": "s", "evaluation.scored_tokens": "count",
    "evaluation.oracle_scan_s": "s", "evaluation.noise_scan_s": "s",
    "encoder.embed_s": "s", "encoder.sentences": "count",
    "actions.kmeans_s": "s", "actions.kmeans_iterations": "count",
    "corpus.tokenize_s": "s", "corpus.tokenize_repeat_ratio": "ratio",
    "storage.read_s": "s", "storage.write_s": "s",
    "storage.bytes_read": "count", "storage.bytes_written": "count",
    "storage.sha256_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# per-layer time metric -> the spans whose self time it sums
SELF_TIMES = {
    **{f"autodiff.{group}.fwd_s": (f"autodiff.{group}",) for group in OP_GROUPS},
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.adam_s": ("autodiff.adam",),
    "nn.attention_s": ("nn.attention",), "nn.block_self_s": ("nn.block",),
    "lm.forward_s": ("lm.forward",),
    "generation.generate_s": ("generation.generate",),
    "planner.logits_s": ("planner.logits",),
    "planner.train_s": ("planner.train",),
    "evaluation.hmm_fit_s": ("evaluation.hmm_fit",),
    "evaluation.corpus_nll_s": ("evaluation.corpus_nll",),
    "evaluation.oracle_scan_s": ("evaluation.oracle_scan",),
    "evaluation.noise_scan_s": ("evaluation.noise_scan",),
    "encoder.embed_s": ("encoder.embed", "encoder.sentence"),
    "actions.kmeans_s": ("actions.kmeans",),
    "corpus.tokenize_s": ("corpus.tokenize",),
    "storage.read_s": ("storage.read",), "storage.write_s": ("storage.write",),
    "storage.sha256_s": ("storage.sha256",),
}

# per-layer count metric -> the span whose number of calls it is
CALL_COUNTS = {
    **{f"autodiff.{group}.calls": f"autodiff.{group}" for group in OP_GROUPS},
    "autodiff.backward_calls": "autodiff.backward",
    "lm.forward_calls": "lm.forward",
    "encoder.sentences": "encoder.sentence",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span that is one of `names`."""
        for idx in reversed(self.stack):
            if self.names[idx] in names:
                return self.names[idx]
        return None

    def wrap(self, fn, name: str, after=None):
        """`fn` recording one span per call; `after(tracer, args, result)`
        runs once the span has closed, so its cost lands on the caller."""
        names, parents, starts, ends = (self.names, self.parents, self.starts,
                                        self.ends)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installing --------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Trace `module.attr` at every planlm module attribute bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, after)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "planlm"
                                   or mod_name.startswith("planlm.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, after))
        self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.asarray(self.names),
                "parents": np.asarray(self.parents, dtype=np.int64),
                "starts": np.asarray(self.starts, dtype=np.float64),
                "ends": np.asarray(self.ends, dtype=np.float64)}

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        if not self.names:
            return {}
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = (np.asarray(self.ends, dtype=np.float64)
                    - np.asarray(self.starts, dtype=np.float64))
        children = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        labels, inverse = np.unique(np.asarray(self.names), return_inverse=True)
        totals = np.bincount(inverse, weights=duration - children,
                             minlength=len(labels))
        return {str(label): float(t) for label, t in zip(labels, totals)}

    def step_durations(self) -> dict[str, float]:
        """Summed duration of the "pipeline.<step>" spans, per step."""
        out: dict[str, float] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            if name.startswith("pipeline."):
                out[name] = out.get(name, 0.0) + end - start
        return out

    def calls(self) -> dict[str, int]:
        labels, counts = np.unique(np.asarray(self.names), return_counts=True)
        return {str(label): int(c) for label, c in zip(labels, counts)}


# -- the traced layers -----------------------------------------------------------


def _after_forward(tracer: Tracer, args, result) -> None:
    kind = TOKEN_KINDS.get(tracer.enclosing(TOKEN_KINDS), "other")
    tracer.count(f"lm.forward_tokens.{kind}", int(np.asarray(args[1]).size))


def _after_generate(tracer: Tracer, args, result) -> None:
    tracer.count("generation.decoded_tokens", len(result.token_ids))


def _after_predict_next(tracer: Tracer, args, result) -> None:
    if tracer.enclosing(("generation.generate",)):
        tracer.count("generation.replans")


def _after_logits(tracer: Tracer, args, result) -> None:
    tracer.count("planner.rows", int(args[2]))


def _after_predict_article(tracer: Tracer, args, result) -> None:
    tracer.count("planner.predict_calls")
    tracer.distinct.setdefault("planner.articles", set()).add(
        hash(np.asarray(args[1]).tobytes()))


def _after_tokenize(tracer: Tracer, args, result) -> None:
    tracer.count("corpus.tokenize_calls")
    tracer.distinct.setdefault("corpus.articles", set()).add(args[0].id)


def _iterations(key: str):
    def after(tracer: Tracer, args, result) -> None:
        tracer.count(key, result.iterations_run)
    return after


def _after_corpus_nll(tracer: Tracer, args, result) -> None:
    tracer.count("evaluation.scored_tokens", result[1])


def _file_bytes(key: str, resolve=None):
    def after(tracer: Tracer, args, result) -> None:
        path = resolve(args[0]) if resolve is not None else args[0]
        if os.path.exists(path):
            tracer.count(key, os.path.getsize(path))
    return after


def install(tracer: Tracer) -> None:
    """Wrap every traced planlm function and method."""
    from planlm import (actions, autodiff, corpus, encoder, evaluation,
                        generation, lm, nn, planner, storage)

    for group, ops in OP_GROUPS.items():
        for op in ops:
            tracer.patch_function(autodiff, op, f"autodiff.{group}")
    tracer.patch_function(autodiff, "backward", "autodiff.backward")
    tracer.patch_method(autodiff.Adam, "step", "autodiff.adam")
    tracer.patch_method(nn.SelfAttention, "__call__", "nn.attention")
    tracer.patch_method(nn.Block, "__call__", "nn.block")
    tracer.patch_method(lm.BaseLM, "forward", "lm.forward", _after_forward)
    tracer.patch_function(lm, "train_lm", "lm.train")
    tracer.patch_function(generation, "generate", "generation.generate",
                          _after_generate)
    tracer.patch_method(planner.PlannerModel, "logits_batch", "planner.logits",
                        _after_logits)
    tracer.patch_method(planner.PlannerModel, "predict_next_action",
                        "planner.predict_next", _after_predict_next)
    tracer.patch_function(planner, "predict_actions_for_article",
                          "planner.predict_article", _after_predict_article)
    tracer.patch_function(planner, "train_planner", "planner.train")
    tracer.patch_function(evaluation, "hmm_fit", "evaluation.hmm_fit",
                          _iterations("evaluation.hmm_iterations"))
    tracer.patch_function(evaluation, "corpus_nll", "evaluation.corpus_nll",
                          _after_corpus_nll)
    tracer.patch_function(evaluation, "oracle_scan", "evaluation.oracle_scan")
    tracer.patch_function(evaluation, "noise_scan", "evaluation.noise_scan")
    tracer.patch_function(encoder, "embed_corpus", "encoder.embed")
    tracer.patch_method(encoder.SentenceEncoder, "embed_sentence",
                        "encoder.sentence")
    tracer.patch_function(actions, "kmeans_fit", "actions.kmeans",
                          _iterations("actions.kmeans_iterations"))
    tracer.patch_function(corpus, "tokenize", "corpus.tokenize",
                          _after_tokenize)
    for fn in ("read_matrix", "read_matrix_index", "read_checkpoint",
               "read_action_sequences"):
        tracer.patch_function(storage, fn, "storage.read",
                              _file_bytes("storage.bytes_read"))
    tracer.patch_function(storage, "read_manifest", "storage.read",
                          _file_bytes("storage.bytes_read",
                                      storage.manifest_path))
    for fn in ("write_matrix", "write_matrix_index", "write_checkpoint",
               "write_action_sequences"):
        tracer.patch_function(storage, fn, "storage.write",
                              _file_bytes("storage.bytes_written"))
    tracer.patch_function(storage, "write_manifest", "storage.write",
                          _file_bytes("storage.bytes_written",
                                      storage.manifest_path))
    tracer.patch_function(storage, "file_sha256", "storage.sha256")


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    self_times = tracer.self_times()
    durations = tracer.step_durations()
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for step in STEPS:
        out[f"pipeline.{step}_s"] = durations.get(f"pipeline.{step}", 0.0)
    for metric, spans in SELF_TIMES.items():
        out[metric] = sum(self_times.get(s, 0.0) for s in spans)
    for metric, span in CALL_COUNTS.items():
        out[metric] = calls.get(span, 0)
    for key in ("lm.forward_tokens.train", "lm.forward_tokens.score",
                "lm.forward_tokens.decode", "lm.forward_tokens.scan",
                "generation.decoded_tokens", "generation.replans",
                "planner.rows", "evaluation.hmm_iterations",
                "evaluation.scored_tokens", "actions.kmeans_iterations",
                "storage.bytes_read", "storage.bytes_written"):
        out[key] = counts.get(key, 0)
    out["generation.forward_tokens_per_decoded_token"] = ratio(
        counts.get("lm.forward_tokens.decode", 0),
        counts.get("generation.decoded_tokens", 0))
    out["planner.predict_repeat_ratio"] = ratio(
        counts.get("planner.predict_calls", 0),
        len(tracer.distinct.get("planner.articles", ())))
    out["corpus.tokenize_repeat_ratio"] = ratio(
        counts.get("corpus.tokenize_calls", 0),
        len(tracer.distinct.get("corpus.articles", ())))
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.names)
    return {name: out[name] for name in PER_LAYER}


def silent_spans(tracer: Tracer, idle: frozenset[str]) -> list[str]:
    """Traced spans that recorded no call although the workload uses them."""
    calls = tracer.calls()
    expected = ({f"autodiff.{g}" for g in OP_GROUPS}
                | {s for spans in SELF_TIMES.values() for s in spans}
                | {"lm.train", "planner.predict_next", "planner.predict_article"})
    return sorted(s for s in expected - idle if calls.get(s, 0) == 0)
