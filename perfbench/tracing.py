"""Spans and counters recorded from outside the program.

The tracer replaces functions at the module attributes their callers look
up at call time, so the program runs unchanged: every wrapper calls the
original with the same arguments and returns its result untouched. A span
is only recorded while an op is active (``Tracer.op`` is set); calls the
benchmark makes to check results are not traced.

Each span carries the layer that defines the wrapped function (the last
part of its ``__module__``), not the layer of its caller, so a layer's
self time is the time spent in its own code: span duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (module whose attribute is replaced, attribute): the attributes a caller
# resolves at call time. ``pulsegate.sweep`` the attribute is the function
# re-exported by ``__init__``, hence import_module.
WRAP_SITES = (
    ("pulsegate.sweep", "default_grid_for"),
    ("pulsegate.sweep", "sample_pulse"),
    ("pulsegate.sweep", "solve_chain"),
    ("pulsegate.sweep", "assemble_outputs"),
    ("pulsegate.sweep", "decompose"),
    ("pulsegate.sweep", "limit_report"),
    ("pulsegate.sweep", "run_point"),
    ("pulsegate.sweep", "find_peak_c12"),
    ("pulsegate.bloch", "linear_response"),
    ("pulsegate.bloch", "second_order_excitation"),
    ("pulsegate.bloch", "third_order_response"),
    ("pulsegate.bloch", "full_bloch"),
    ("pulsegate.bloch", "perturbative_extraction"),
    ("pulsegate.twophoton", "inner_product"),
    ("pulsegate.twophoton", "norm_sq"),
    ("pulsegate.output", "norm_sq"),
    ("pulsegate.cli", "solve_point"),
    ("pulsegate.cli", "solve_spec"),
    ("pulsegate.cli", "find_peak_c12"),
    ("pulsegate.cli", "main"),
)

LAYERS = ("pulses", "signal", "bloch", "output", "twophoton", "sweep", "cli")


def _layer_of(func) -> str:
    return func.__module__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span store plus the work counters read at layer boundaries."""

    def __init__(self):
        # span: [name, layer, parent index, op id, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples_max = 0
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr in WRAP_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, attr))
        signal_cls = importlib.import_module("pulsegate.signal").ComplexSignal
        orig_post = signal_cls.__post_init__
        self._saved.append((signal_cls, "__post_init__", orig_post))
        tracer = self

        def post_init(sig):
            orig_post(sig)
            if tracer.op is not None:
                tracer.counts["signals"] += 1
                tracer.counts["signal_bytes"] += sig.values.nbytes

        signal_cls.__post_init__ = post_init

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def _wrap(self, orig, attr: str):
        tracer = self
        layer = _layer_of(orig)
        name = f"{layer}.{attr}"
        count = _COUNTERS.get(attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return orig(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, layer, stack[-1] if stack else None, tracer.op, 0.0, 0.0]
            tracer.spans.append(span)
            stack.append(idx)
            span[4] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                # the innermost traced layer the exception left is charged
                if not hasattr(exc, "perfbench_layer"):
                    exc.perfbench_layer = layer
                raise
            finally:
                span[5] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, layer, parent, op, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i, (name, layer, parent, op, t0, t1) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, layer, parent, op, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def span_counts(self, nested_only: bool = False) -> Counter:
        return Counter(s[0] for s in self.spans
                       if not nested_only or s[2] is not None)

    def dump(self, path) -> None:
        """Write the spans as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_grid(tracer, args, grid):
    tracer.counts["samples"] += grid.n
    tracer.samples_max = max(tracer.samples_max, grid.n)


def _count_chain(tracer, args, chain):
    tracer.counts["chain_samples"] += args[0].grid.n


def _count_rk4(tracer, args, state):
    tracer.counts["rk4_steps"] += args[0].grid.n - 1


_COUNTERS = {
    "default_grid_for": _count_grid,
    "solve_chain": _count_chain,
    "full_bloch": _count_rk4,
}
