"""Spans recorded from outside the package, by wrapping its functions.

Each wrapped function is replaced where its caller looks the name up: a
module global (``reuselab.reuse.reuse_set`` is what ``reuse._decide``
calls) or the layer-step table ``reuselab.reuse._LAYER_STEPS`` that
``model_step`` indexes. A span records name, start, end and the index of
its parent span; spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

from reuselab import reuse


def _rows_scored(args, result):
    q_t, q_prev, tau = args[:3]
    scored = 0 if tau is None or q_prev is None else len(q_t)
    return {"drift.reuse_set.rows_scored": scored}


def _attention_rows(args, result):
    return {"model.attention_rows.rows": len(args[0])}


def _layer_step_rows(args, result):
    decision = result[1]
    if not decision.eligible:
        return {}
    return {"reuse.rows_reused": decision.reused_count,
            "reuse.rows_refreshed": decision.refreshed_count}


# (span name, modules whose global is the caller's lookup, counter that
# maps a call's arguments and result to counter increments).
# The span name is <defining module>.<function>.
TARGETS = (
    ("linalg.cosine", ("drift",), None),
    ("linalg.spectral_norm", ("linalg", "theory"), None),
    ("model.attention_rows", ("model", "reuse"), _attention_rows),
    ("model.mlp", ("model", "reuse"), None),
    ("model.unembed", ("model", "reuse"), None),
    ("model.embed_tokens", ("sampler", "cli"), None),
    ("model.forward_full", ("sampler", "cli"), None),
    ("drift.reuse_set", ("reuse",), _rows_scored),
    ("drift.layerwise_drift", ("cli",), None),
    ("reuse.model_step", ("sampler",), None),
    ("sampler.diffusion_generate", ("sampler", "cli"), None),
    ("sampler.coupled_generate", ("theory", "cli"), None),
    ("sampler.maximal_coupling_sample", ("sampler",), None),
    ("theory.kv_step_bound", ("theory",), None),
    ("theory.o_step_bound", ("theory",), None),
    ("theory.lipschitz_G", ("theory", "cli"), None),
    ("theory.verify_run", ("theory", "cli"), None),
    ("analysis.drift_scores_for_layer", ("analysis", "cli"), None),
    ("analysis.temporal_similarity", ("cli",), None),
    ("analysis.write_csv_with_metadata", ("analysis", "cli"), None),
    ("cli.cmd_init_model", ("cli",), None),
    ("cli.cmd_calibrate", ("cli",), None),
    ("cli.cmd_generate", ("cli",), None),
    ("cli.cmd_verify", ("cli",), None),
    ("cli.cmd_analyze", ("cli",), None),
    ("cli.cmd_bench", ("cli",), None),
)

# model_step looks the layer step up in this table by mode.
LAYER_STEPS = {
    "full": "reuse.full_layer_step",
    "kv": "reuse.dare_kv_layer_step",
    "o": "reuse.dare_o_layer_step",
}


class Tracer:
    """Collects spans and counters while installed (a context manager)."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, result))
            return result
        return traced

    def __enter__(self):
        for name, sites, counter in TARGETS:
            func = name.split(".", 1)[1]
            for site in sites:
                module = importlib.import_module(f"reuselab.{site}")
                original = getattr(module, func)
                self._restore.append((module.__dict__, func, original))
                setattr(module, func, self._wrap(name, original, counter))
        for mode, name in LAYER_STEPS.items():
            original = reuse._LAYER_STEPS[mode]
            self._restore.append((reuse._LAYER_STEPS, mode, original))
            reuse._LAYER_STEPS[mode] = self._wrap(name, original,
                                                  _layer_step_rows)
        return self

    def __exit__(self, *exc) -> None:
        for table, key, original in reversed(self._restore):
            table[key] = original
        self._restore.clear()

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans[first:last]: calls, inclusive seconds
        and self seconds (no wrapped function calls itself, so inclusive
        times of one name never overlap)."""
        spans = self.spans
        last = len(spans) if last is None else last
        child_time = defaultdict(float)
        for i in range(first, last):
            name, start, end, parent = spans[i]
            if parent >= first:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(first, last):
            name, start, end, parent = spans[i]
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
