"""The program surface the benchmark in perfbench/ relies on.

perfbench/spans.py wraps functions by (module, name) and reads the
ForwardState a forward pass returns; a rename or deletion there would only
fail a traced benchmark run. These checks keep that contract in tier-1.
"""

import importlib.util
import pathlib

import numpy as np

from unrolled_deblur import autodiff as ad
from unrolled_deblur import unroll
from unrolled_deblur.training import TrainConfig, init_params

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = _spans()
    for module, name in spans.TRACED:
        assert callable(getattr(module, name, None)), \
            "%s.%s is gone" % (module.__name__, name)
    by_span = dict(zip(spans.SPAN_NAMES, spans.TRACED))
    for module, name, span in spans.ALIASES:
        owner, attr = by_span[span]
        assert getattr(module, name, None) is getattr(owner, attr), \
            "%s.%s no longer aliases %s" % (module.__name__, name, span)


def test_forward_returns_what_the_benchmark_reads(rng):
    cfg = TrainConfig(layers=2, channels=2, kernel_support=5)
    out = unroll.forward(rng.random((12, 12)), init_params(cfg), tape=ad.Tape())
    assert isinstance(out, tuple) and len(out) == 4
    kernel, g, x_hat, state = out
    assert kernel.shape == (5, 5) and x_hat.shape == (12, 12)
    assert len(state.kernel_planes) == 2
    assert all(np.shape(p) == (12, 12) for p in state.kernel_planes)
    assert len(state.tape) > 0
