"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``spatialfl`` from outside the
package: every module attribute through which the pipeline looks a
function up is replaced by a wrapper that records one span per call
(name, start, end, parent span, op id) and a few counts taken from the
arguments or the result. Spans stay in memory; :func:`summarize` turns
them into the per-layer metrics that ``BENCHMARK.json`` lists.

Metric names are ``<module>.<function>.<stat>``. Unless noted, a value is
the mean per traced op: ``calls`` counts calls, ``s`` is time inside the
call including called layers, and ``self_s`` is ``s`` minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

# Span records are plain lists, [name, start, end, parent index, op id],
# because the wrapper appends one per call (about 100k per op on the
# fan-out workload) and must stay cheap.
NAME, START, END, PARENT, OP = range(5)

SETUP_OP = "setup"


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else len(value)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _count_train(args, kwargs, result, state):
    init, features, config = _arg(args, kwargs, 0, "init"), _arg(args, kwargs, 1, "features"), \
        _arg(args, kwargs, 3, "config")
    n = _rows(features)
    d_in, hidden, classes = init.dims
    return {
        "steps": config.epochs * math.ceil(n / config.batch_size),
        # Computed, not measured: 2 flops per multiply-add forward, twice
        # that backward, over every weight, row and epoch.
        "flop": 6 * config.epochs * n * (d_in * hidden + hidden * classes),
    }


def _count_predict_batch(args, kwargs, result, state):
    return {"rows": _rows(result)}


def _count_encode_rows(args, kwargs, result, state):
    attr = _arg(args, kwargs, 0, "attr")
    rows = _rows(_arg(args, kwargs, 1, "features"))
    state.setdefault("pairs", set()).add((attr.leaf, rows))
    return {"rows": rows, "attempts": 1}


def _finish_encode_rows(state):
    return {"distinct": len(state.get("pairs", ()))}


def _count_ensemble(args, kwargs, result, state):
    models = _arg(args, kwargs, 0, "models")
    batch = _arg(args, kwargs, 1, "batch")
    members = tuple(id(m) for m in models)
    groups = state.setdefault("groups", {})
    groups.setdefault(members, set()).update(row.tobytes() for row in batch)
    rows = _rows(batch)
    return {"rows": rows, "member_rows": rows * len(models), "attempts": rows * len(models)}


def _finish_ensemble(state):
    """Distinct (member, row) predictions over the op."""
    seen: dict[int, list[set]] = {}
    for members, rows in state.get("groups", {}).items():
        for member in set(members):
            seen.setdefault(member, []).append(rows)
    distinct = 0
    for row_sets in seen.values():
        distinct += len(row_sets[0]) if len(row_sets) == 1 else len(set().union(*row_sets))
    return {"distinct": distinct}


def _count_serialize(args, kwargs, result, state):
    return {"bytes": len(result)}


def _count_ingest(args, kwargs, result, state):
    return {"rows": len(result)}


def _count_files(args, kwargs, result, state):
    return {"files": len(result), "bytes": _file_bytes(result)}


@dataclass(frozen=True)
class Target:
    """One function to wrap, named ``<module>.<attribute path>``."""

    name: str
    count: Callable | None = None
    finish: Callable | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def path(self) -> list[str]:
        return self.name.split(".")[1:]


TARGETS = (
    Target("nn.train", _count_train),
    Target("nn.predict_batch", _count_predict_batch),
    Target("spatial.encode_rows", _count_encode_rows, _finish_encode_rows),
    Target("federation.run_tier_round"),
    Target("federation.local_train"),
    Target("federation.aggregate_tree"),
    Target("federation.TierTopology.subtree_clients"),
    Target("federation.serialize_model", _count_serialize),
    Target("federation.deserialize_model"),
    Target("data.generate_synthetic"),
    Target("data.ingest_csv", _count_ingest),
    Target("data.preprocess"),
    Target("data.partition_clients"),
    Target("data.train_valid_split"),
    Target("baselines.train_centralized"),
    Target("baselines.train_client_models"),
    Target("baselines.flat_fedavg"),
    Target("baselines.ensemble_predict_batch", _count_ensemble, _finish_ensemble),
    Target("harness.run_experiment"),
    Target("harness.evaluate"),
    Target("harness.evaluate_predictor"),
    Target("harness.emit_report", _count_files),
    Target("harness.write_models", _count_files),
    Target("harness.config_from_dict"),
    Target("cli.cmd_run"),
    Target("cli.cmd_evaluate_model"),
)

# Mean per call, not per op: on the synthetic workloads validation runs
# only in set-up, which is where it moves setup_s.
PER_CALL_METRICS = {"harness.config_from_dict.s"}


@dataclass
class Tracer:
    """Wraps :data:`TARGETS` and records spans while installed."""

    spans: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)   # op id -> [start, end]
    absent: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # (op, name) -> {stat: value}
    state: dict = field(default_factory=dict)  # (op, name) -> counter state
    _stack: list = field(default_factory=list)
    _op: str | None = None
    _restore: list = field(default_factory=list)
    _finishers: dict = field(default_factory=dict)

    def install(self, targets: Iterable[Target] = TARGETS, package: str = "spatialfl") -> None:
        """Wrap every target at each module attribute bound to it.

        A target that does not exist is recorded in :attr:`absent` and
        skipped, so the benchmark survives a function being deleted.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target in targets:
            owner = sys.modules.get(f"{package}.{target.module}")
            for part in target.path[:-1]:
                owner = getattr(owner, part, None)
            attr = target.path[-1]
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if target.finish is not None:
                self._finishers[target.name] = target.finish
            if isinstance(owner, type):
                self._restore.append((owner, attr, vars(owner).get(attr, original)))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, clock, name, count = self.spans, self._stack, time.perf_counter, target.name, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                key = (self._op, name)
                stats = self.counts.setdefault(key, {})
                for stat, value in count(args, kwargs, result, self.state.setdefault(key, {})).items():
                    stats[stat] = stats.get(stat, 0) + value
            return result

        return wrapper

    def begin(self, op_id: str) -> None:
        self._op = op_id
        self.ops[op_id] = [time.perf_counter(), None]

    def end(self) -> None:
        self.ops[self._op][1] = time.perf_counter()
        self._op = None

    def finished_counts(self) -> dict:
        """Per-op counts, with each target's end-of-op totals folded in."""
        counts = {key: dict(stats) for key, stats in self.counts.items()}
        for (op, name), state in self.state.items():
            finish = self._finishers.get(name)
            if finish is not None:
                counts.setdefault((op, name), {}).update(finish(state))
        return counts


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(
    spans: Sequence[Sequence],
    ops: dict,
    counts: dict,
    absent: Sequence[str] = (),
    targets: Iterable[Target] = TARGETS,
) -> dict[str, float]:
    """Per-layer metrics from spans, op intervals and per-op counts.

    ``ops`` maps op id to (start, end); spans of the set-up pseudo-op feed
    only the per-call metrics. ``s`` sums spans with no same-name ancestor,
    so a recursive layer is not counted twice. A counter that reports
    ``attempts`` and an end-of-op ``distinct`` gets ``useful_ratio`` =
    distinct / attempts.
    """
    timed_ops = [op for op in ops if op != SETUP_OP]
    n_ops = len(timed_ops) or 1
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)

    totals: dict[str, dict[str, float]] = {}
    per_call: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        name, start, end = span[NAME], span[START], span[END]
        duration = end - start
        per_call.setdefault(name, []).append(duration)
        if span[OP] == SETUP_OP or span[OP] not in ops:
            continue
        stats = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        covered = union_length(((spans[c][START], spans[c][END]) for c in children.get(index, ())),
                               start, end)
        stats["self_s"] += duration - covered
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            stats["s"] += duration
    for (op, name), stats in counts.items():
        if op == SETUP_OP or op not in ops:
            continue
        bucket = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat, value in stats.items():
            bucket[stat] = bucket.get(stat, 0) + value

    metrics: dict[str, float] = {}
    for target in targets:
        stats = totals.get(target.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat, value in stats.items():
            metrics[f"{target.name}.{stat}"] = value / n_ops
        if stats.get("attempts"):
            metrics[f"{target.name}.useful_ratio"] = stats.get("distinct", 0) / stats["attempts"]
        if "steps" in stats:
            metrics[f"{target.name}.us_per_step"] = 1e6 * stats["s"] / stats["steps"] if stats["steps"] else 0.0
    for name in PER_CALL_METRICS:
        durations = per_call.get(name.rsplit(".", 1)[0], [])
        metrics[name] = sum(durations) / len(durations) if durations else 0.0

    coverage = []
    for op in timed_ops:
        lo, hi = ops[op]
        top = [(s[START], s[END]) for s in spans if s[OP] == op and s[PARENT] is None]
        coverage.append(union_length(top, lo, hi) / (hi - lo) if hi > lo else 0.0)
    metrics["trace.coverage"] = sum(coverage) / len(coverage) if coverage else 0.0
    metrics["trace.absent"] = float(len(absent))
    return metrics
