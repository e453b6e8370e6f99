"""Benchmark of unrolled-deblur: end-to-end metrics and a traced per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,eval,deblur} --seed N \
        --seconds S --trace {0,1}

One process, one worker thread, closed loop: each operation starts when
the previous one returns. The timed inputs are generated from the seed.
Set-up (input loading plus one warm-up operation on the fixed reference
input) runs three times and `setup_s` is its median; the quality figures
come from the reference warm-ups. Operations on the timed inputs then run
for S seconds. Every output is checked afterwards; a DeblurError, a
non-zero exit code or a failed check counts as a failed operation. The
end-to-end times are scaled to a reference machine speed (PROBE_REF_S).
`--trace 1` runs half the time untraced and half with every public layer
function wrapped in a span, and reports per-layer medians instead.

A table goes to stdout first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import os
import sys

# one worker thread: pin every BLAS/OpenMP pool before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import unrolled_deblur
except ImportError as exc:
    sys.exit("perfbench: cannot import unrolled_deblur from %s (%s)" % (SRC, exc))
if not os.path.abspath(unrolled_deblur.__file__).startswith(SRC + os.sep):
    sys.exit("perfbench: unrolled_deblur resolved outside %s" % SRC)

# the benchmark's own modules import the program, so they come after the check
import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from unrolled_deblur import DeblurError  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# the tail percentile must leave at least this many operations beyond it
TAIL_BEYOND = 10
MIB = 1024.0 * 1024.0

# On a shared virtual machine speed drifts by up to 1.6x over minutes,
# more than any useful bound, and it moves the program and a fixed probe
# alike. So a probe runs before every set-up and operation, outside their
# timing, and every end-to-end time is scaled by
# PROBE_REF_S / median(probe seconds): seconds at the probe's reference
# speed. The probe is FFTs on an L2-sized and a larger plane plus
# interpreter-bound summation, and calls no program code.
PROBE_REF_S = 0.1
# probe for at least this share of the previous operation's time, so long
# operations get as many probe samples per second as short ones
PROBE_SHARE = 0.05
_PROBE_SMALL = np.random.default_rng(1).random((256, 256)) + 0j
_PROBE_LARGE = np.random.default_rng(2).random((512, 512)) + 0j
_PROBE_VALUES = np.random.default_rng(3).random(160000)

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
    ("op_s.tail", "s"), ("peak_rss_mib", "MiB"), ("psnr_db", "dB"),
    ("kernel_rmse", "1"),
]
# printed where the workload has them, not bounded (see README.md)
REPORTED = [("failed_ops_frac", "1"), ("isnr_db", "dB"), ("train_loss", "1")]


@dataclass
class Op:
    id: int
    ins: inputs.InputSet
    rec: int
    out: str
    seconds: float
    error: str | None = None


def run_op(wl, ins, op_id, rec, out, tracer=None):
    """One timed operation on record `rec` of `ins`, writing under `out`."""
    os.makedirs(out)
    arg = wl.prepare(ins, rec)
    if tracer is not None:
        tracer.begin(op_id)
    t0 = time.perf_counter()
    error = None
    try:
        wl.run(ins, rec, out, arg)
    except (DeblurError, workloads.OpFailed) as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    return Op(op_id, ins, rec, out, seconds, error)


def probe():
    """Seconds taken by the fixed machine-speed probe."""
    t0 = time.perf_counter()
    for _ in range(8):
        np.fft.ifft2(np.fft.fft2(_PROBE_SMALL) * _PROBE_SMALL)
    for _ in range(2):
        np.fft.ifft2(np.fft.fft2(_PROBE_LARGE) * _PROBE_LARGE)
    math.fsum(_PROBE_VALUES)
    return time.perf_counter() - t0


def run_loop(wl, seconds, ops_dir, first_id, tracer=None, probes=None):
    """Closed loop over the timed records for `seconds`.

    With `probes`, the probe runs before each operation, once and then
    until PROBE_SHARE of the previous operation's time has passed; each
    probe time is appended there and left out of the returned loop time.
    """
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    probe_s = 0.0
    while not ops or time.perf_counter() < deadline:
        budget = PROBE_SHARE * ops[-1].seconds if ops else 0.0
        spent = 0.0
        while probes is not None and (spent == 0.0 or spent < budget):
            probes.append(probe())
            spent += probes[-1]
        probe_s += spent
        op_id = first_id + len(ops)
        ops.append(run_op(wl, wl.timed, op_id, op_id % wl.sizes.records,
                          os.path.join(ops_dir, "op_%04d" % op_id), tracer))
    return ops, time.perf_counter() - start - probe_s


def verify(wl, ops, digests):
    """Check every operation's output and mark failures on the ops.

    Every operation on one record must give the same bytes as the first
    (`digests` maps (set name, record) to them). Returns the quality
    figures of each good operation.
    """
    quality = []
    for op in ops:
        if op.error is not None:
            continue
        try:
            digest, q = wl.check(op.ins, op.rec, op.out)
        except (workloads.CheckFailed, DeblurError, OSError, ValueError) as exc:
            op.error = "check: %s: %s" % (type(exc).__name__, exc)
            continue
        if digests.setdefault((op.ins.name, op.rec), digest) != digest:
            op.error = "check: output differs from an earlier operation"
            continue
        quality.append(q)
    return quality


def set_up(wl, work, index, digests):
    """Load the inputs and run one warm-up operation on the reference input.

    Returns (seconds, quality figures of the reference output).
    """
    t0 = time.perf_counter()
    wl.load()
    warm = run_op(wl, wl.reference, -1 - index, 0,
                  os.path.join(work, "warmup_%d" % index))
    seconds = time.perf_counter() - t0
    quality = verify(wl, [warm], digests)
    if warm.error is not None:
        sys.exit("perfbench: warm-up operation failed: %s" % warm.error)
    return seconds, quality[0]


def tail(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, or the median when there are too few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / n, ordered[rank - 1]


def report_failures(ops):
    for op in ops:
        if op.error is not None:
            print("FAILED op %d (record %d): %s" % (op.id, op.rec, op.error))
    return sum(op.error is not None for op in ops)


def end_to_end(wl, work, seconds):
    digests = {}
    probes = []
    setups = []
    for i in range(SETUP_REPEATS):
        probes.append(probe())
        setups.append(set_up(wl, work, i, digests))
    ops, loop_s = run_loop(wl, seconds, os.path.join(work, "ops"), 0,
                           probes=probes)
    verify(wl, ops, digests)
    failed = report_failures(ops)
    good = [op.seconds for op in ops if op.error is None] or [0.0]
    pct, tail_s = tail(good)
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": (len(ops) - failed) / loop_s,
        "op_s.p50": statistics.median(good),
        "op_s.tail": tail_s,
    }
    scale = PROBE_REF_S / statistics.median(probes)
    values = {name: v / scale if name == "ops_per_s" else v * scale
              for name, v in raw.items()}
    values.update({
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024.0 / MIB,
        "failed_ops_frac": failed / len(ops),
    })
    values.update(setups[0][1])
    notes = {name: "raw %.4g," % v for name, v in raw.items()}
    notes["setup_s"] += " median of %s" % ", ".join("%.3f" % s for s, _ in setups)
    notes["ops_per_s"] += " %d good of %d in %.2f s" % (
        len(ops) - failed, len(ops), loop_s)
    notes["op_s.p50"] += " range %.3f to %.3f" % (min(good), max(good))
    notes["op_s.tail"] += " p%.0f of %d operations" % (pct, len(ops) - failed)
    for name in ("psnr_db", "kernel_rmse", "isnr_db", "train_loss"):
        notes[name] = "reference input"
    joined = "".join(digests[k] for k in sorted(digests))
    print("%-18s %s" % ("output digest",
                        hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]))
    print("%-18s %14.6g %-4s median of %d probes; times below are scaled by %.4f"
          % ("probe_s", statistics.median(probes), "s", len(probes), scale))
    for name, unit in END_TO_END + REPORTED:
        if name in values:
            print("%-18s %14.6g %-4s %s" % (name, values[name], unit,
                                             notes.get(name, "")))
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    return failed == 0, len(ops), failed, metrics


def per_layer(wl, work, seconds):
    digests = {}
    set_up(wl, work, 0, digests)
    ops_dir = os.path.join(work, "ops")
    plain, _ = run_loop(wl, seconds / 2.0, ops_dir, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = run_loop(wl, seconds / 2.0, ops_dir, len(plain),
                             tracer=tracer)
    finally:
        tracer.uninstall()
    ops = plain + traced
    peak_mib = 0.0
    if wl.records_tape:
        # tracemalloc slows allocation-heavy code by up to 10x, so the peak
        # comes from one extra operation outside the timed spans
        tracemalloc.start()
        try:
            ops.append(run_op(wl, wl.timed, len(ops), 0,
                              os.path.join(ops_dir, "op_%04d" % len(ops))))
            peak_mib = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    verify(wl, ops, digests)
    failed = report_failures(ops)
    good_plain = [op.seconds for op in plain if op.error is None]
    good_traced = {op.id: op.seconds for op in traced if op.error is None}
    values = {}
    if good_plain and good_traced:
        values = spans.medians(tracer.per_op(good_traced))
        values["trace.overhead"] = (statistics.median(good_traced.values())
                                    / statistics.median(good_plain))
    values["autodiff.peak_traced_mib"] = peak_mib
    trace_path = os.path.join(work, "spans.jsonl")
    tracer.write_jsonl(trace_path)
    print("spans: %d in %s (%d traced, %d untraced operations)"
          % (len(tracer.spans), os.path.relpath(trace_path, ROOT),
             len(traced), len(plain)))
    metrics = {}
    for name, unit, _ in spans.per_layer_names():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print("%-34s %14.6g %s" % (name, value, unit))
    correct = failed == 0 and bool(good_plain) and bool(good_traced)
    return correct, len(ops), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    sizes = (inputs.TOY if args.toy else inputs.FULL)[args.workload]
    work = os.path.join(ROOT, ".perfbench", "%s-seed%d-trace%d%s" % (
        args.workload, args.seed, args.trace, "-toy" if args.toy else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, sizes)
    except inputs.ModelCheckFailed as exc:
        sys.exit("perfbench: the generated model is degenerate: %s" % exc)
    print("workload %s, seed %d, %d px, %d records, %s" % (
        args.workload, args.seed, sizes.image, sizes.records, wl.describe()))
    measure = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = measure(wl, work, args.seconds)
    shutil.rmtree(os.path.join(work, "ops"), ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
