"""Outside-in spans: timing wrappers around rwlab's public functions, and
the aggregation of the recorded spans into per-layer metrics.

`install(recorder)` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, job).  Because
`cli` and `asymptotics` bind names with `from .x import f`, the wrapper is
installed in every rwlab module namespace (and module-level dict, such as
the CLI's handler table) that bound the function, including its own module,
so internal calls are traced too.  Nothing in rwlab changes; the wrappers
call the original functions with the original arguments.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("recover", "polynomials", "tridiagonal", "measures", "chains",
          "asymptotics", "limits", "cli", "fileformats")


class Recorder:
    """Spans and counters of one job, kept in memory until `dump`."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.captured: dict[str, object] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"job": self.job, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"job": self.job, "counters": self.counters}) + "\n")


def _after_call(rec: Recorder, name: str, args, kwargs, result) -> None:
    """Counts taken at the layer boundaries, from arguments and results."""
    if name == "recover.discretize_weight":
        rec.count("recover.grid_nodes", len(result))
    elif name == "recover.chain_from_recurrence" and result.ok:
        rec.captured["recovered_chain"] = result.chain
    elif name == "polynomials.support_edges" and result.method == "cross-checked":
        rec.count("polynomials.edges_cross_checked")
    elif name == "measures.cn_series":
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        rec.count("measures.cn_terms", len(args[0]) * (n_max + 1))
    elif name == "fileformats.atomic_write":
        content = args[1] if len(args) > 1 else kwargs["content"]
        rec.count("fileformats.bytes_written", len(content.encode("utf-8")))


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        rec.count(name + ".calls")
        _after_call(rec, name, args, kwargs, result)
        return result
    return wrapper


class _CountingGenerator:
    """A numpy Generator that counts the uniforms drawn through `random`:
    one per live walker per Monte Carlo step."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def random(self, size=None, *args, **kwargs):
        self._rec.count("measures.mc_walker_steps", 1 if size is None else int(size))
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _counting_numpy(np_module, rec: Recorder):
    """A stand-in for `numpy` inside rwlab.measures whose random.Generator
    counts walker steps; every other attribute is numpy's own."""
    random_ns = types.SimpleNamespace(**vars(np_module.random))
    random_ns.Generator = lambda bitgen: _CountingGenerator(np_module.random.Generator(bitgen), rec)
    view = types.ModuleType("numpy")
    view.__dict__.update(vars(np_module))
    view.random = random_ns
    return view


def install(rec: Recorder) -> int:
    """Wrap every public function of the layer modules; returns the number
    of functions wrapped."""
    import importlib

    mods = [importlib.import_module(f"rwlab.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, mods):
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[id(obj)] = _wrap(rec, f"{layer}.{attr}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rwlab" or mod_name.startswith("rwlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    measures = sys.modules["rwlab.measures"]
    measures.np = _counting_numpy(measures.np, rec)
    return len(wrapped)


# --- aggregation ----------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span of one job: its duration minus the part of
    its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for idx, s in enumerate(spans):
        covered = _union_length(children.get(idx, []), s["start"], s["end"])
        out.append(s["end"] - s["start"] - covered)
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def top_level_cover(spans: list[dict]) -> float:
    """Seconds of one job covered by its top-level spans."""
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] < 0]
    if not tops:
        return 0.0
    return _union_length(tops, min(a for a, _ in tops), max(b for _, b in tops))


def read_spans(path: str) -> tuple[list[dict], dict]:
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return spans, counters


def ratio_passes(spans: list[dict]) -> tuple[int, int]:
    """(useful, attempted) Christoffel ratio passes of one job.

    Each `ratio_limit_with_edge_spread` call makes up to three passes; only
    the last call under one parent (the one whose result is kept) is
    useful, so a bisection-η fallback in `conjecture_report` doubles the
    attempts."""
    calls: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s["name"] == "asymptotics.ratio_limit_with_edge_spread":
            calls.setdefault(s["parent"], []).append(idx)
    passes: dict[int, int] = {}
    for s in spans:
        if s["name"] == "polynomials.christoffel_ratio_sequence" and s["parent"] >= 0:
            passes[s["parent"]] = passes.get(s["parent"], 0) + 1
    useful = attempted = 0
    for idxs in calls.values():
        for k, idx in enumerate(idxs):
            attempted += passes.get(idx, 0)
            if k == len(idxs) - 1:
                useful += passes.get(idx, 0)
    return useful, attempted
