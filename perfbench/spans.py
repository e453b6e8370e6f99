"""Span tracing of the program's public functions, from outside the program.

`Tracer.install` replaces each listed function with a wrapper in every
module namespace it is looked up from (`training` imports `forward` and
`collect_gradients` by name), records one span per call while an
operation is open, and restores the originals on `uninstall`. Spans stay
in memory as (name, start, end, parent, op) and are written as JSONL when
the run ends. The schema is meant to be reused by a tracing hook inside
the program.
"""

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from unrolled_deblur import (autodiff, cli, imaging, kernelgen, metrics,
                             spectral, training, unroll)

# (layer, function) pairs that get a span; the name is "<layer>.<function>"
TRACED = [
    (autodiff, "backward"), (autodiff, "conv_full"),
    (unroll, "forward"), (unroll, "build_filters"), (unroll, "g_update"),
    (unroll, "z_update"), (unroll, "k_update"), (unroll, "k_project"),
    (unroll, "reconstruct"), (unroll, "collect_gradients"),
    (spectral, "fft2"), (spectral, "ifft2"),
    (metrics, "align_shift"), (metrics, "kernel_rmse"), (metrics, "ssim"),
    (metrics, "psnr"),
    (training, "loss_terms"), (training, "adam_step"),
    (training, "save_checkpoint"), (training, "load_checkpoint"),
    (imaging, "load_image"), (imaging, "save_image"), (imaging, "save_kernel"),
    (kernelgen, "load_manifest"),
    (cli, "main"),
]

# names bound by `from ... import` elsewhere: (module, local name, span name)
ALIASES = [
    (training, "forward", "unroll.forward"),
    (training, "collect_gradients", "unroll.collect_gradients"),
]

SPAN_NAMES = ["%s.%s" % (m.__name__.rsplit(".", 1)[1], f) for m, f in TRACED]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> n
        self.op = None
        self._stack = []
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        originals = {}
        for name, (module, attr) in zip(SPAN_NAMES, TRACED):
            originals[name] = getattr(module, attr)
            self._patch(module, attr, self._wrap(name, originals[name]))
        for module, attr, name in ALIASES:
            self._patch(module, attr, self._wrap(name, originals[name]))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    key, amount = counter(args, kwargs)
                    self.counts[self.op][key] += amount

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- operations -------------------------------------------------------

    def begin(self, op):
        self.op = op

    def end(self):
        self.op = None
        self._stack = []

    # -- results ----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def per_op(self, op_seconds):
        """Per-layer values of each traced operation.

        `op_seconds` maps op id to its wall time. Self time is a span's
        duration minus the durations of its direct children.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        rows = {op: defaultdict(float) for op in op_seconds}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in rows:
                continue
            self_s = (end - start) - child_s[idx]
            rows[op][name + ".calls"] += 1
            rows[op][name + ".self_s"] += self_s
            rows[op]["trace.self_total_s"] += self_s
        for op, row in rows.items():
            for key, n in self.counts[op].items():
                row[key] += n
            row["trace.coverage"] = row.pop("trace.self_total_s", 0.0) \
                / op_seconds[op]
        return rows


def _fft_points(args, kwargs):
    shape = np.shape(args[0])
    return "spectral.fft_points", int(shape[-2]) * int(shape[-1])


def _tape_nodes(args, kwargs):
    state = args[1] if len(args) > 1 else kwargs["state"]
    return "autodiff.tape_nodes", len(state.tape)


_COUNTERS = {
    "spectral.fft2": _fft_points,
    "spectral.ifft2": _fft_points,
    "unroll.collect_gradients": _tape_nodes,
}

# per-layer metrics that are not a wrapped function's .calls or .self_s
EXTRA_METRICS = [
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.peak_traced_mib", "MiB", "lower"),
    ("spectral.fft_points", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def per_layer_names():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    return out + EXTRA_METRICS


def medians(rows):
    """Median over operations of every per-layer metric (0 when absent)."""
    names = [n for n, _, _ in per_layer_names()
             if n not in ("trace.overhead", "autodiff.peak_traced_mib")]
    return {n: statistics.median([row.get(n, 0.0) for row in rows.values()])
            for n in names}
