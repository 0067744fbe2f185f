"""Layer spans recorded from outside the package.

The traced run replaces the public functions each layer calls through, as
they are looked up in the calling module's namespace, with wrappers that
record a span (id, parent id, name, start, end) and update counters from the
call's arguments and result.  Nothing in ``src/`` changes.

These outside-in spans are a stop-gap: once the package has its own stage
timers (one instrumentation path, ROADMAP item 4), the traced run should read
those instead and this module should go.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter, defaultdict

from spikelab import cli, detect, estimate, experiments, model, pricing, simulate


def _spikes_counts(counts, args, result):
    path, truth = result
    counts["simulate.jumps"] += len(truth)
    counts["simulate.steps"] += path.grid.n


def _mpv_counts(counts, args, result):
    counts["detect.mpv.increments"] += args[0].grid.n


def _flag_counts(counts, args, result):
    counts[f"detect.flags.{result.mode}"] += result.count


def _beta_counts(counts, args, result):
    counts["estimate.undefined"] += int(result.flags.undefined)
    counts["estimate.floored"] += int(result.flags.floored)


def _strip_counts(counts, args, result):
    spec = args[4]  # price_strip_mc(two_factor, curve, spikes, grid, spec, ...)
    counts["pricing.paths_simulated"] += result.num_sims
    counts["pricing.exercise_points"] += result.num_sims * spec.exercise_times.size


def _ingest_counts(counts, args, result):
    counts["cli.ingest.rows"] += result[1].rows_read
    counts["cli.ingest.bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, counter update): every place a layer is
# entered on the three workloads' call paths (all their jump laws are mixtures)
LAYERS = (
    (experiments, "run_estimation_study", "experiments.estimation_study", None),
    (experiments, "run_pricing_study", "experiments.pricing_study", None),
    (experiments, "simulate_spot", "simulate.spot", None),
    (simulate, "simulate_exp_ou", "simulate.exp_ou", None),
    (simulate, "simulate_spikes", "simulate.spikes", _spikes_counts),
    (pricing, "simulate_spikes", "simulate.spikes", _spikes_counts),
    (model.SignedExponentialMixture, "sample", "model.law_sample", None),
    (experiments, "multipower_variation", "detect.mpv", _mpv_counts),
    (detect, "multipower_variation", "detect.mpv", _mpv_counts),
    (experiments, "detect_jumps", "detect.jumps", _flag_counts),
    (cli, "detect_jumps", "detect.jumps", _flag_counts),
    (experiments, "estimate_lambda", "estimate.lambda", None),
    (estimate, "estimate_lambda", "estimate.lambda", None),
    (experiments, "estimate_beta", "estimate.beta", _beta_counts),
    (estimate, "estimate_beta", "estimate.beta", _beta_counts),
    (cli, "estimate_spikes", "estimate.spikes", None),
    (experiments, "price_strip_mc", "pricing.strip", _strip_counts),
    (cli, "load_spot_csv", "cli.ingest", _ingest_counts),
    (cli, "dispatch", "cli.dispatch", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))
COUNTERS = (
    "simulate.jumps",
    "simulate.steps",
    "detect.mpv.increments",
    "detect.flags.plain",
    "detect.flags.signfiltered",
    "estimate.undefined",
    "estimate.floored",
    "pricing.paths_simulated",
    "pricing.exercise_points",
    "cli.ingest.rows",
    "cli.ingest.bytes",
)
# spans with a per-call latency metric: p99 needs at least 1000 calls
PERCENTILE_SPANS = (
    "simulate.spot",
    "simulate.exp_ou",
    "simulate.spikes",
    "model.law_sample",
    "detect.mpv",
    "detect.jumps",
    "estimate.lambda",
    "estimate.beta",
)
PERCENTILE_MIN_CALLS = 1_000


class Recorder:
    """Span and counter store for one traced run; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn, update):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if update is not None:
                update(counts, args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, update in LAYERS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, update))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def write_csv(self, handle, repeat: int) -> None:
        """Append this recorder's spans as CSV rows: repeat,id,parent,name,start,end."""
        for span_id, parent, name, start, end in self.spans:
            handle.write(f"{repeat},{span_id},{parent},{name},{start!r},{end!r}\n")


def summarize(recorder: Recorder) -> dict:
    """Per span name: calls, self seconds and per-call durations; plus counters."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in recorder.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for span_id, _, name, start, end in recorder.spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[span_id]
        durations[name].append(end - start)
    return {"calls": calls, "self_s": self_s, "durations": durations, "counts": Counter(recorder.counts)}


def layer_metrics(summaries: list, traced_walls: list, untraced_walls: list, items: int) -> dict:
    """Per-layer metrics over the traced repeats of one run.

    Self times are medians over repeats; counts come from the first repeat
    (they repeat exactly for a fixed seed); per-call percentiles pool every
    traced call of a span with at least PERCENTILE_MIN_CALLS of them.
    """
    first = summaries[0]
    out = {}

    def self_time(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (self_time(name), "s")
    for name in ("simulate.spot", "simulate.spikes", "model.law_sample", "detect.mpv", "pricing.strip"):
        out[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
    for key in COUNTERS:
        out[key] = (first["counts"].get(key, 0), "bytes" if key.endswith("bytes") else "count")
    simulated = first["counts"].get("pricing.paths_simulated", 0)
    out["pricing.path_reuse"] = (items / simulated if simulated else 0.0, "ratio")
    for name in PERCENTILE_SPANS:
        pooled = sorted(d for s in summaries for d in s["durations"].get(name, ()))
        if len(pooled) >= PERCENTILE_MIN_CALLS:
            q = statistics.quantiles(pooled, n=100, method="inclusive")
            p50, p99 = 1e3 * q[49], 1e3 * q[98]
        else:
            p50 = p99 = 0.0
        out[f"{name}.p50_ms"] = (p50, "ms")
        out[f"{name}.p99_ms"] = (p99, "ms")
    traced = statistics.median(traced_walls)
    self_total = statistics.median(sum(s["self_s"].values()) for s in summaries)
    out["trace.wall_s"] = (traced, "s")
    out["trace.coverage"] = (self_total / traced, "ratio")
    out["trace.overhead_s"] = (traced - statistics.median(untraced_walls), "s")
    return out
