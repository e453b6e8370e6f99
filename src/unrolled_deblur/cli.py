"""Command line interface.

Exit codes: 0 success, 1 domain error (bad or missing file, singular math,
non-finite loss), 2 usage error. Diagnostics go to stderr; result data and
paths go to stdout. All randomness flows from --seed, which defaults to 0
so runs are reproducible by default.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import gradcheck, imaging, kernelgen, metrics, training, unroll
from .errors import DeblurError


def _build_parser():
    # no prefix matching: an abbreviated flag would bind to whichever flag it
    # prefixes (--kernel to --kernel-out), and a flag added later could
    # change what an old abbreviation means
    parser = argparse.ArgumentParser(
        prog="unrolled-deblur",
        description="Blind motion deblurring with an unrolled "
                    "half-quadratic splitting solver.", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-kernels", allow_abbrev=False,
                       help="write synthetic motion kernels")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--angles", type=int, default=16,
                   help="linear kernel angle count over [0, pi)")
    p.add_argument("--lengths", type=int, default=16,
                   help="linear kernel length count over [5, 20]")
    p.add_argument("--support", type=int, default=31,
                   help="odd kernel support in pixels")
    p.add_argument("--trajectories", type=int, default=0,
                   help="number of random-walk kernels to add")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("gen-dataset", allow_abbrev=False,
                       help="blur images into training records")
    p.add_argument("--images", required=True, help="directory of PGM images")
    p.add_argument("--kernels", required=True, help="directory of kernel files")
    p.add_argument("--sigma", type=float, default=0.01,
                   help="gaussian noise level")
    p.add_argument("--patch", type=int, default=128,
                   help="centered square crop size")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("train", allow_abbrev=False,
                       help="train solver parameters on a manifest")
    p.add_argument("--manifest", required=True, help="dataset manifest CSV")
    p.add_argument("--out", required=True, help="checkpoint/log directory")
    p.add_argument("--layers", type=int, default=10, help="unrolled layers")
    p.add_argument("--channels", type=int, default=16, help="filter channels")
    p.add_argument("--support", type=int, default=31,
                   help="odd kernel support of the deliverable estimate")
    p.add_argument("--kappa", type=float, default=1e5,
                   help="kernel loss weight")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam step size")
    p.add_argument("--decay", type=float, default=0.9,
                   help="per-epoch learning rate decay")
    p.add_argument("--epochs", type=int, default=20, help="training epochs")
    p.add_argument("--batch", type=int, default=1,
                   help="records per optimizer step")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from")

    p = sub.add_parser("deblur", allow_abbrev=False, help="restore one blurred image")
    p.add_argument("--in", dest="input", required=True, help="blurred PGM")
    p.add_argument("--ckpt", default=None, help="trained checkpoint")
    p.add_argument("--preset", choices=["tv-prewitt"], default=None,
                   help="classical parameter schedule instead of a checkpoint")
    p.add_argument("--out", required=True, help="restored PGM path")
    p.add_argument("--kernel-out", default=None,
                   help="write the kernel estimate here")
    p.add_argument("--support", type=int, default=None,
                   help="odd kernel support for the preset (default 31); "
                        "a checkpoint keeps its own")
    p.add_argument("--restrict-support", action="store_true",
                   help="accepted with --preset, whose layers always carry "
                        "the kernel as its projected support window; a "
                        "checkpoint carries the whole plane it was trained "
                        "on, so with --ckpt it is an error")

    p = sub.add_parser("eval", allow_abbrev=False, help="score a model over a manifest")
    p.add_argument("--manifest", required=True, help="dataset manifest CSV")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (default 1 keeps output "
                        "scheduler independent)")

    p = sub.add_parser("check-grad", allow_abbrev=False,
                       help="verify tape gradients against central differences")
    p.add_argument("--size", type=int, default=8, help="image side")
    p.add_argument("--layers", type=int, default=2, help="unrolled layers")
    p.add_argument("--channels", type=int, default=2, help="filter channels")
    p.add_argument("--samples", type=int, default=200,
                   help="parameter samples to test")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    return parser


def _cmd_gen_kernels(args):
    if args.support % 2 == 0 or args.support < 3:
        raise DeblurError("--support must be odd and >= 3")
    for flag in ("angles", "lengths", "trajectories"):
        if getattr(args, flag) < 0:
            raise DeblurError("--%s must be >= 0" % flag)
    angles = np.linspace(0.0, math.pi, args.angles, endpoint=False)
    lengths = np.linspace(5.0, 20.0, args.lengths)  # one count gives [5.0]
    # every kernel is made (and every length checked against the support)
    # before the first file is written, so a bad grid leaves nothing behind
    kernels = {"linear_a%02d_l%02d.txt" % (i, j):
               kernelgen.linear_motion_kernel(angle, length, args.support)
               for i, angle in enumerate(angles) for j, length in enumerate(lengths)}
    for t in range(args.trajectories):
        kernels["traj_%03d.txt" % t] = kernelgen.trajectory_motion_kernel(
            (args.seed, t), args.support)
    os.makedirs(args.out, exist_ok=True)
    for name, kernel in kernels.items():
        imaging.save_kernel(kernel, os.path.join(args.out, name))
    print("%d kernels -> %s" % (len(kernels), args.out))
    return 0


def _cmd_gen_dataset(args):
    names = sorted(n for n in os.listdir(args.kernels)
                   if n.lower().endswith(".txt"))
    if not names:
        raise DeblurError("no kernel files in %s" % args.kernels)
    kernels = [imaging.load_kernel(os.path.join(args.kernels, n))
               for n in names]
    count = kernelgen.write_records(args.images, kernels, args.sigma,
                                    args.patch, args.out, args.seed)
    print("%d records -> %s" % (count, os.path.join(args.out, "manifest.csv")))
    return 0


def _cmd_train(args):
    config = training.TrainConfig(
        layers=args.layers, channels=args.channels,
        kernel_support=args.support, kappa=args.kappa, lr=args.lr,
        decay=args.decay, epochs=args.epochs, batch_size=args.batch,
        seed=args.seed)
    ckpt = training.train(args.manifest, config, args.out, resume=args.resume)
    print(training.checkpoint_path(args.out, ckpt.epoch))
    return 0


def _cmd_deblur(args):
    if (args.ckpt is None) == (args.preset is None):
        raise DeblurError("give exactly one of --ckpt or --preset")
    if args.preset is not None:
        params = unroll.tv_prewitt_params(
            kernel_support=31 if args.support is None else args.support)
    elif args.support is not None:
        raise DeblurError("--support applies to --preset only; a checkpoint "
                          "keeps the support it was trained with")
    elif args.restrict_support:
        raise DeblurError("--restrict-support applies to --preset only; a "
                          "checkpoint carries the whole kernel plane it was "
                          "trained on")
    else:
        params = training.load_checkpoint(args.ckpt).params
    blurred = imaging.load_image(args.input)
    kernel, _, x_hat, _ = unroll.forward(blurred, params)
    imaging.save_image(x_hat, args.out, maxval=65535)
    print(args.out)
    if args.kernel_out is not None:
        imaging.save_kernel(kernel, args.kernel_out)
        print(args.kernel_out)
    return 0


def _cmd_eval(args):
    report = metrics.evaluate(args.manifest, args.ckpt, args.out,
                              threads=args.threads)
    print(args.out)
    print("mean psnr %.4f dB, isnr %.4f dB, ssim %.4f, kernel rmse %.6g"
          % (report.mean.psnr_db, report.mean.isnr_db, report.mean.ssim,
             report.mean.kernel_rmse), file=sys.stderr)
    return 0


def _cmd_check_grad(args):
    inst = gradcheck.make_check_instance(
        size=args.size, layers=args.layers, channels=args.channels,
        seed=args.seed)
    result = gradcheck.finite_diff_check(inst, samples=args.samples,
                                         seed=args.seed)
    print("checked %d parameters, skipped %d near kinks"
          % (result.checked, len(result.skipped)), file=sys.stderr)
    print("max relative error %.3e (raw %.3e)"
          % (result.max_effective_err, result.max_rel_err))
    return 0 if result.max_effective_err < 1e-4 and result.checked else 1


_COMMANDS = {
    "gen-kernels": _cmd_gen_kernels,
    "gen-dataset": _cmd_gen_dataset,
    "train": _cmd_train,
    "deblur": _cmd_deblur,
    "eval": _cmd_eval,
    "check-grad": _cmd_check_grad,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (DeblurError, OSError) as exc:  # OSError: a missing or unreadable file
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
