"""Central-difference verification of the analytic parameter gradients.

For every sampled scalar parameter, compares the tape gradient against
(L(p+h) - L(p-h)) / 2h, where L is training.objective, the loss that
training optimizes. Kinked primitives make finite differences locally
meaningless, so a sample is skipped (and reported) when either perturbed
forward's activation pattern differs from the nominal one: the shrinkage's
|g| > b bits (ForwardState.kink_signature) or the kernel clamp's bits, read
off each layer's projected kernel in kernel_planes.

Two error figures are reported per sample: the raw relative error
|a - n| / max(|a|, |n|, 1e-8), and an effective error whose denominator is
floored at 1e-3 so that parameters with near-zero gradients are judged by
the absolute criterion |a - n| < 1e-7 instead of a meaningless ratio.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import kernelgen, training
from .errors import InvalidParameter
from .unroll import ModelParams

REL_FLOOR = 1e-8
EFFECTIVE_FLOOR = 1e-3


@dataclass
class GradCheckEntry:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float
    effective_err: float


@dataclass
class GradCheckResult:
    entries: list
    skipped: list          # (name, index, reason)
    max_rel_err: float
    max_effective_err: float

    @property
    def checked(self):
        return len(self.entries)


@dataclass
class CheckInstance:
    """A randomized small problem for gradient verification."""

    record: kernelgen.DatasetRecord
    params: ModelParams
    kappa: float


def make_check_instance(size=8, layers=2, channels=2, seed=0):
    """Random image/target/params away from init-time degeneracies.

    b, lam, eta are drawn strictly positive so no parameter starts on the
    projection boundary, and the image is plain uniform noise so threshold
    activations are generic. The kernel weight kappa is 1e5 and the kernel
    support the largest odd size up to 5 that fits the image.
    """
    kappa = 1e5
    kernel_support = min(size - 1 if size % 2 == 0 else size, 5)
    rng = np.random.default_rng([seed, layers, channels, size])
    cfg = training.TrainConfig(layers=layers, channels=channels,
                               kernel_support=kernel_support, kappa=kappa)
    params = training.init_params(cfg, seed=seed)
    params.b = rng.uniform(0.5, 1.5, (layers, channels))
    params.lam = rng.uniform(0.1, 0.5, (layers, channels))
    params.eta = rng.uniform(10.0, 30.0, channels)
    blurred = rng.random((size, size))
    sharp = rng.random((size, size))
    kernel = rng.random((kernel_support, kernel_support))
    kernel /= kernel.sum()
    record = kernelgen.DatasetRecord(blurred_path="check instance",
                                     blurred=blurred, sharp=sharp,
                                     kernel=kernel)
    return CheckInstance(record=record, params=params.validate(), kappa=kappa)


def finite_diff_check(inst, h=1e-5, samples=200, seed=0):
    """Check up to `samples` distinct scalar parameters of the instance."""
    if samples < 0:
        raise InvalidParameter("samples must be >= 0, got %d" % samples)
    if not 0 < h < math.inf:  # NaN fails the comparison too
        raise InvalidParameter("h must be finite and positive, got %r" % h)
    params = inst.params
    total, _, _, state = training.objective(inst.record, params, inst.kappa,
                                            tape=ad.Tape(), track_kinks=True)
    grads = training.collect_gradients(total, state)
    nominal_kinks = _kinks(state)

    coords = [(name, i) for name, g in grads.items() for i in range(g.size)]
    rng = np.random.default_rng(seed)
    if samples < len(coords):
        chosen = [coords[i] for i in
                  sorted(rng.choice(len(coords), size=samples, replace=False))]
    else:
        chosen = coords

    entries = []
    skipped = []
    for name, flat in chosen:
        analytic = float(grads[name].flat[flat])
        work = replace(params, **{name: getattr(params, name).copy()})
        arr = getattr(work, name)
        base = arr.flat[flat]
        arr.flat[flat] = base + h
        loss_hi, _, _, state_hi = training.objective(
            inst.record, work, inst.kappa, track_kinks=True)
        arr.flat[flat] = base - h
        loss_lo, _, _, state_lo = training.objective(
            inst.record, work, inst.kappa, track_kinks=True)
        if _kinks(state_hi) != nominal_kinks or _kinks(state_lo) != nominal_kinks:
            skipped.append((name, flat, "activation pattern changes within h"))
            continue
        numeric = (float(loss_hi) - float(loss_lo)) / (2.0 * h)
        diff = abs(analytic - numeric)
        rel = diff / max(abs(analytic), abs(numeric), REL_FLOOR)
        eff = diff / max(abs(analytic), abs(numeric), EFFECTIVE_FLOOR)
        entries.append(GradCheckEntry(name=name, index=flat,
                                      analytic=analytic, numeric=numeric,
                                      rel_err=rel, effective_err=eff))
    max_rel = max((e.rel_err for e in entries), default=0.0)
    max_eff = max((e.effective_err for e in entries), default=0.0)
    return GradCheckResult(entries=entries, skipped=skipped,
                           max_rel_err=max_rel, max_effective_err=max_eff)


def _kinks(state):
    """The shrinkage bits of a forward, then each layer's clamp bits."""
    return state.kink_signature + b"".join(
        np.packbits(kernel > 0).tobytes() for kernel in state.kernel_planes)
