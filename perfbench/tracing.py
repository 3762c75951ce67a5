"""Spans around the calls into each randhelm module, recorded from outside.

``instrument(tracer)`` replaces, for the length of a ``with`` block, the
names that ``randhelm.multimodes`` and ``randhelm.classical`` import from
the other modules, the two drivers themselves, and the ``Assembler``
methods, with wrappers that record one span per call.  Leaving the block
puts every original back; no source under ``src/`` changes.  Names a later
version of the package no longer has are skipped.

The wrappers keep one stack of open spans, so they assume the traced
calls run on one thread (the benchmark runs every workload with
``threads=1``).
"""
from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import randhelm.assembly as assembly
import randhelm.classical as classical
import randhelm.multimodes as multimodes
import randhelm.randomness as randomness
import randhelm.space as space

# Names the drivers import from other modules, by span name.
_IMPORTED = {
    "build_uniform_mesh": "mesh.build",
    "get_assembler": "assembly.get",
    "lu_factorize": "linalg.factorize",
    "lu_solve": "linalg.solve",
    "sample_media": "randomness.sample_media",
    "source_volume": "sources.source_volume",
    "broken_norms": "space.broken_norms",
}


def _solve_note(args, result):
    """Right-hand sides, and the computed flops: 8 per factor nonzero and column."""
    b = np.asarray(args[1])
    cols = 1 if b.ndim == 1 else b.shape[1]
    return {"cols": cols, "flops": 8 * args[0].nnz * cols}


def _targets():
    """(owner, attribute, span name, note) for every traced call."""
    for module in (multimodes, classical):
        for attr, name in _IMPORTED.items():
            yield module, attr, name, _solve_note if attr == "lu_solve" else None
    yield multimodes, "run_multimodes", "multimodes.run", None
    yield classical, "run_classical", "classical.run", None
    yield classical, "compare_fields", "classical.compare_fields", None
    yield space, "_norm_forms", "space.norm_forms", None
    yield space.DGSpace, "__init__", "space.init", None
    yield randomness.MediaSample, "fingerprint", "randomness.fingerprint", None
    for attr in ("__init__", "constant", "variable", "rhs", "eval_volume", "eval_boundary"):
        yield assembly.Assembler, attr, f"assembly.{attr.strip('_')}", None


@dataclass
class Span:
    name: str
    start: float
    parent: int                  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Spans of one traced workload call, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if note is not None:
                span.info = note(args, result)
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers for the length of the block."""
    saved = []
    try:
        for owner, attr, name, note in _targets():
            original = vars(owner).get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a function that does nothing."""
    noop = Tracer().wrap("noop", lambda: None)
    t = perf_counter()
    for _ in range(calls):
        noop()
    return (perf_counter() - t) / calls


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_totals(spans: list[Span]) -> dict:
    """Per span name: inclusive seconds, self seconds, calls and summed info.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)
    totals = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        t = totals[s.name]
        t["s"] += s.end - s.start
        t["self_s"] += s.end - s.start - _covered(
            (spans[c].start, spans[c].end) for c in children[i]
        )
        t["calls"] += 1
        for key, value in s.info.items():
            t[key] += value
    roots = [spans[i] for i in children[-1]]
    totals["<roots>"]["s"] = sum(s.end - s.start for s in roots)
    return totals


def layer_metrics(totals: dict, wall: float) -> dict:
    """Per-layer figures of one traced call."""
    def get(name, key="s"):
        return float(totals[name][key]) if name in totals else 0.0

    solve_s, cols = get("linalg.solve"), get("linalg.solve", "cols")
    driver = get("multimodes.run")
    return {
        "linalg.solve_s": solve_s,
        "linalg.solve_calls": get("linalg.solve", "calls"),
        "linalg.solve_cols": cols,
        "linalg.solve_ms_per_col": 1e3 * solve_s / cols if cols else 0.0,
        "linalg.solve_gflops_computed":
            get("linalg.solve", "flops") / solve_s / 1e9 if solve_s else 0.0,
        "linalg.factorize_s": get("linalg.factorize"),
        "linalg.factorize_calls": get("linalg.factorize", "calls"),
        "multimodes.driver_s": driver,
        "multimodes.self_s": get("multimodes.run", "self_s"),
        "multimodes.self_share": get("multimodes.run", "self_s") / driver if driver else 0.0,
        "classical.driver_s": get("classical.run"),
        "classical.self_s": get("classical.run", "self_s")
        + get("classical.compare_fields", "self_s"),
        "assembly.variable_s": get("assembly.variable"),
        "assembly.rhs_s": get("assembly.rhs"),
        "space.norm_forms_s": get("space.norm_forms"),
        "randomness.sample_media_s": get("randomness.sample_media"),
        "randomness.sample_media_calls": get("randomness.sample_media", "calls"),
        "randomness.fingerprint_s": get("randomness.fingerprint"),
        "sources.source_volume_s": get("sources.source_volume"),
        "sources.source_volume_calls": get("sources.source_volume", "calls"),
        "trace.spans": float(sum(t["calls"] for n, t in totals.items() if n != "<roots>")),
        "trace.span_sum_ratio": get("<roots>") / wall,
    }
