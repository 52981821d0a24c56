"""Traced runs: spans around avfield's layer functions and an FFT counter.

``Tracer.install`` wraps each public layer function named in LAYER_FUNCTIONS
and every FFT entry point of ``numpy.fft`` and ``scipy.fft``.  It rebinds the
wrapper wherever avfield holds the original, so names a module imported with
``from .x import y`` are traced too.  Nothing inside avfield changes; a
name that no longer exists is reported as absent, and the metrics that need
it read 0.

A span is (name, start, end, parent, operation id, attributes).  An FFT call
is not a span: it increments the counters of every open span, so each span
carries the transforms made beneath it.  Spans stay in memory until
``write`` puts them in a JSON-lines file at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name, attributes taken from the bound arguments
# and the return value)
LAYER_FUNCTIONS = [
    ("avfield.cli", "main", "cli.main", None),
    ("avfield.solver", "minimize", "solver.minimize",
     lambda a, r: {"iterations": r.iterations, "converged": r.converged}),
    ("avfield.functional", "energy", "functional.energy", None),
    ("avfield.functional", "energy_and_gradient", "functional.energy_and_gradient", None),
    ("avfield.fields", "vector_potential", "fields.vector_potential", None),
    ("avfield.fields", "current", "fields.current", None),
    ("avfield.grid", "convolve", "grid.convolve", None),
    ("avfield.manybody", "product_state_energy", "manybody.product_state_energy", None),
    ("avfield.stateio", "save_state", "stateio.save_state",
     lambda a, r: {"bytes": Path(a["path"]).stat().st_size}),
    ("avfield.stateio", "load_state", "stateio.load_state", None),
    ("avfield.geometry", "counterexample_probe", "geometry.counterexample_probe",
     lambda a, r: {"triangles": a["samples"]}),
    ("avfield.geometry", "regime_triangles", "geometry.regime_triangles",
     lambda a, r: {"regime": a["regime"], "triangles": len(r)}),
    ("avfield.geometry", "batch_cyclic_sum", "geometry.batch_cyclic_sum", None),
    ("avfield.geometry", "batch_rho_sq", "geometry.batch_rho_sq", None),
    ("avfield.geometry", "batch_circumradius", "geometry.batch_circumradius",
     lambda a, r: {"triangles": len(r)}),
]

FFT_MODULES = ("numpy.fft", "scipy.fft")
# name -> (kind, default number of transformed axes, None for all);
# kind is c2c, r2c (real input) or c2r (real output)
FFT_FUNCTIONS = {
    "fft": ("c2c", 1), "ifft": ("c2c", 1), "rfft": ("r2c", 1), "irfft": ("c2r", 1),
    "fft2": ("c2c", 2), "ifft2": ("c2c", 2), "rfft2": ("r2c", 2), "irfft2": ("c2r", 2),
    "fftn": ("c2c", None), "ifftn": ("c2c", None),
    "rfftn": ("r2c", None), "irfftn": ("c2r", None),
}
# counter slots of a span
N2, PAD, AXIS, OTHER, POINTS = range(5)
REGIMES = ("all_long", "all_short", "two_short", "one_short", "mixed")


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "op", "attrs", "fft")

    def __init__(self, name, t0, parent, op):
        self.name, self.t0, self.t1, self.parent, self.op = name, t0, None, parent, op
        self.attrs = {}
        self.fft = [0, 0, 0, 0, 0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _transform_shape(kind, naxes, out, args, kwargs):
    """Logical lengths of the transformed axes and the number of such transforms.

    ``args`` are the positional arguments after the input array.

    For a real-input transform the logical length of the last axis is
    recovered from the half spectrum as 2 (m - 1), exact for the even grid
    sizes avfield uses.
    """
    if naxes == 1:
        axes = (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
    else:
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        if axes is None:
            s = kwargs.get("s", args[0] if args else None)
            count = len(s) if s is not None else (naxes or out.ndim)
            axes = range(-count, 0)
    axes = [ax % out.ndim for ax in axes]
    lengths = [out.shape[ax] for ax in axes]
    if kind == "r2c":
        lengths[-1] = 2 * (lengths[-1] - 1)
    batch = out.size // max(math.prod(out.shape[ax] for ax in axes), 1)
    return tuple(lengths), batch


class Tracer:
    def __init__(self, grid_n: int):
        self.grid_n = grid_n
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._in_fft = False

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, op: int):
        """Root span of operation ``op``; layer calls outside one are not traced."""
        self.op = op
        root = self.open("op")
        try:
            yield root
        finally:
            self.close(root)

    def _layer_wrapper(self, fn, name, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs:
                # a changed signature or result type loses the attributes,
                # not the operation
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = attrs(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    pass
            return result

        return traced

    def _fft_wrapper(self, fn, kind, naxes):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_fft or not self.stack:
                return fn(*args, **kwargs)
            self._in_fft = True
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_fft = False
            lengths, batch = _transform_shape(kind, naxes, out, args[1:], kwargs)
            n = self.grid_n
            if len(lengths) == 1:
                slot = AXIS
            elif lengths == (n, n):
                slot = N2
            elif lengths == (2 * n, 2 * n):
                slot = PAD
            else:
                slot = OTHER
            points = batch * math.prod(lengths)
            for span in self.stack:
                span.fft[slot] += 1
                span.fft[POINTS] += points
            return out

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "avfield" or name.startswith("avfield.")]
        replace: dict[int, object] = {}
        for mod_name, attr, name, attrs in LAYER_FUNCTIONS:
            try:
                fn = getattr(importlib.import_module(mod_name), attr, None)
            except ModuleNotFoundError:
                fn = None
            if fn is None:
                self.absent.append(name)
                continue
            replace[id(fn)] = self._layer_wrapper(fn, name, attrs)
        fft_modules = []
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            fft_modules.append(mod)
            for attr, (kind, naxes) in FFT_FUNCTIONS.items():
                fn = getattr(mod, attr)
                replace[id(fn)] = self._fft_wrapper(fn, kind, naxes)
        for mod in modules + fft_modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: Path, header: dict) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.t0, "end": s.t1,
                    "parent": index.get(id(s.parent)), "op": s.op,
                    "attrs": s.attrs, "fft": s.fft,
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _rate(spans) -> float:
    """Triangles per second over spans that carry a triangle count."""
    busy = sum(s.dur for s in spans)
    return sum(s.attrs.get("triangles", 0) for s in spans) / busy if busy > 0 else 0.0


def _ancestor(span: Span, name: str) -> Span | None:
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics; a layer the run did not exercise reads 0."""
    by = defaultdict(list)
    child = defaultdict(float)
    for s in spans:
        by[s.name].append(s)
        if s.parent is not None:
            child[id(s.parent)] += s.dur

    def self_time(s):
        return s.dur - child[id(s)]

    m: dict[str, float] = {}
    energy, eg = by["functional.energy"], by["functional.energy_and_gradient"]
    for suffix, group in (("energy", energy), ("eg", eg)):
        m[f"grid.fft_n2_per_{suffix}"] = _mean(s.fft[N2] for s in group)
        m[f"grid.fft_pad_per_{suffix}"] = _mean(s.fft[PAD] for s in group)
        m[f"grid.fft_axis_per_{suffix}"] = _mean(s.fft[AXIS] for s in group)
    m["grid.fft_points_per_eg"] = _mean(s.fft[POINTS] for s in eg)
    m["grid.convolve_s"] = _mean(s.dur for s in by["grid.convolve"])
    m["fields.vector_potential_s"] = _mean(s.dur for s in by["fields.vector_potential"])
    m["fields.current_s"] = _mean(s.dur for s in by["fields.current"])
    m["functional.energy_s"] = _mean(self_time(s) for s in energy)
    m["functional.energy_and_gradient_s"] = _mean(self_time(s) for s in eg)
    m["functional.energy_calls"] = len(energy) / ops if ops else 0.0
    m["functional.eg_calls"] = len(eg) / ops if ops else 0.0

    solves = by["solver.minimize"]
    inside = defaultdict(lambda: [0, 0, 0.0])  # energy calls, eg calls, functional time
    for s in energy + eg:
        top = _ancestor(s, "solver.minimize")
        if top is not None:
            acc = inside[id(top)]
            acc[0 if s.name == "functional.energy" else 1] += 1
            if _ancestor(s, "functional.energy") is None and \
                    _ancestor(s, "functional.energy_and_gradient") is None:
                acc[2] += s.dur
    iters = sum(s.attrs.get("iterations", 0) for s in solves)
    line_search = sum(inside[id(s)][0] for s in solves)
    accepted = sum(max(inside[id(s)][1] - 1, 0) for s in solves)
    m["solver.iterations"] = iters / len(solves) if solves else 0.0
    m["solver.converged_frac"] = _mean(float(s.attrs.get("converged", 0)) for s in solves)
    m["solver.energy_calls_per_iter"] = line_search / iters if iters else 0.0
    m["solver.armijo_accept_ratio"] = accepted / line_search if line_search else 0.0
    m["solver.self_s"] = _mean(s.dur - inside[id(s)][2] for s in solves)

    m["manybody.product_state_energy_s"] = _mean(
        s.dur for s in by["manybody.product_state_energy"])
    m["stateio.save_s"] = _mean(s.dur for s in by["stateio.save_state"])
    m["stateio.load_s"] = _mean(s.dur for s in by["stateio.load_state"])
    m["stateio.bytes_written"] = _mean(s.attrs.get("bytes", 0) for s in by["stateio.save_state"])

    m["geometry.probe_tri_per_s"] = _rate(by["geometry.counterexample_probe"])
    m["geometry.circumradius_tri_per_s"] = _rate(
        [s for s in by["geometry.batch_circumradius"]
         if s.parent is None or not s.parent.name.startswith("geometry.")])
    # a regime's work is its generator call and the batch evaluations that
    # follow it outside a probe, up to the next generator call
    busy, count = defaultdict(float), defaultdict(int)
    regime = None
    for s in spans:
        if not s.name.startswith("geometry.") or (
                s.parent is not None and s.parent.name.startswith("geometry.")):
            continue
        if s.name == "geometry.regime_triangles":
            regime = s.attrs.get("regime")
            count[regime] += s.attrs.get("triangles", 0)
        elif s.name in ("geometry.counterexample_probe", "geometry.batch_circumradius"):
            regime = None
            continue
        if regime is not None:
            busy[regime] += s.dur
    for r in REGIMES:
        m[f"geometry.regime_tri_per_s.{r}"] = count[r] / busy[r] if busy[r] > 0 else 0.0

    overhead = []
    for s in by["cli.main"]:
        solve = [c for c in solves if _ancestor(c, "cli.main") is s]
        if solve:
            overhead.append(s.dur - sum(c.dur for c in solve))
    m["cli.overhead_s"] = _mean(overhead)
    return m
