"""Command line interface, exit codes, and the end-to-end pipeline."""

import csv
import os
import re
import shlex
import struct
import types

import numpy as np
import pytest

from unrolled_deblur import cli, imaging, kernelgen, training, unroll
from unrolled_deblur.training import load_checkpoint

SUBCOMMANDS = ["gen-kernels", "gen-dataset", "train", "deblur", "eval",
               "check-grad"]


# ---------------------------------------------------------------------------
# argument plumbing


def test_top_level_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(name, capsys):
    assert cli.main([name, "--help"]) == 0


def test_help_documents_every_flag():
    import argparse
    parser = cli._build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == sorted(SUBCOMMANDS)
    for name, sub in subs.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text, (name, opt)


def _readme_commands():
    """Every `unrolled-deblur ...` line of README.md's sh blocks, as the
    argument list after the program name, backslash continuations joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["unrolled-deblur"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # every subcommand has an example, and each one parses as written
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(SUBCOMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: unrolled-deblur %s"
                        % " ".join(argv))


def test_train_flag_defaults_build_the_default_config(monkeypatch, capsys):
    # the train flags take their defaults from TrainConfig's fields, so a
    # run without them trains with exactly TrainConfig()
    seen = []
    monkeypatch.setattr(training, "train", lambda manifest, config, out, resume: (
        seen.append(config) or types.SimpleNamespace(epoch=0)))
    assert cli.main(["train", "--manifest", "m", "--out", "o"]) == 0
    assert seen == [training.TrainConfig()]


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["train", "--bogus"]) == 2


def test_missing_required_argument_is_usage_error(capsys):
    assert cli.main(["train"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_entry_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        import sys
        old = sys.argv
        sys.argv = ["unrolled-deblur", "--help"]
        try:
            cli.entry()
        finally:
            sys.argv = old


# ---------------------------------------------------------------------------
# kernel and dataset generation


def test_gen_kernels_writes_valid_files(tmp_path, capsys):
    out = str(tmp_path / "kernels")
    rc = cli.main(["gen-kernels", "--out", out, "--angles", "2",
                   "--lengths", "2", "--support", "23",
                   "--trajectories", "2"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert len(names) == 6
    for name in names:
        imaging.load_kernel(os.path.join(out, name))
    assert "6 kernels" in capsys.readouterr().out


def test_gen_kernels_rejects_even_support(tmp_path, capsys):
    rc = cli.main(["gen-kernels", "--out", str(tmp_path / "k"),
                   "--support", "8"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--angles", "--lengths", "--trajectories"])
def test_gen_kernels_rejects_negative_counts(tmp_path, capsys, flag):
    out = tmp_path / "k"
    assert cli.main(["gen-kernels", "--out", str(out), "--support", "9",
                     flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def test_gen_kernels_zero_lengths_writes_no_linear_kernels(tmp_path, capsys):
    out = tmp_path / "k"
    assert cli.main(["gen-kernels", "--out", str(out), "--support", "9",
                     "--angles", "2", "--lengths", "0",
                     "--trajectories", "1"]) == 0
    assert os.listdir(out) == ["traj_000.txt"]


def test_gen_kernels_trajectories_on_the_grid_edge(tmp_path, capsys):
    # trajectory 4 of seed 0 at support 31 reaches the grid edge only up
    # to rounding; it used to end the command after writing four files
    out = tmp_path / "k"
    assert cli.main(["gen-kernels", "--out", str(out), "--angles", "0",
                     "--lengths", "0", "--trajectories", "40",
                     "--support", "31", "--seed", "0"]) == 0
    assert len(os.listdir(out)) == 40


def test_gen_kernels_length_grid_beyond_support_writes_nothing(tmp_path, capsys):
    # the grid runs to 20 px, which needs support >= 22; the third length
    # fails, and no kernel of the first two (nor the directory) is left
    out = tmp_path / "k"
    assert cli.main(["gen-kernels", "--out", str(out), "--angles", "8",
                     "--lengths", "4", "--support", "21",
                     "--trajectories", "8", "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: support 21 < ceil(length) + 2 = 22")
    assert not out.exists()


def test_gen_kernels_readme_example_runs(tmp_path, capsys):
    out = tmp_path / "kernels"
    assert cli.main(["gen-kernels", "--out", str(out), "--angles", "8",
                     "--lengths", "4", "--support", "23",
                     "--trajectories", "8", "--seed", "0"]) == 0
    assert len(os.listdir(out)) == 8 * 4 + 8


def test_gen_dataset_requires_kernels(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    imgs = tmp_path / "imgs"
    imgs.mkdir()
    rc = cli.main(["gen-dataset", "--images", str(imgs),
                   "--kernels", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_gen_dataset_rejects_non_finite_kernel(tmp_path, capsys):
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    (kernels / "bad.txt").write_text("KERNEL v1\n1 1\nnan\n")
    imgs = tmp_path / "imgs"
    imgs.mkdir()
    imaging.save_image(np.full((24, 24), 0.5), str(imgs / "a.pgm"))
    out = tmp_path / "o"
    rc = cli.main(["gen-dataset", "--images", str(imgs), "--kernels",
                   str(kernels), "--patch", "16", "--out", str(out)])
    assert rc == 1
    assert "bad.txt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_gen_dataset_rejects_bad_sigma(tmp_path, capsys, sigma):
    # these used to write noise-free records labelled -1 and nan
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    imaging.save_kernel(np.pad([[1.0]], 1), str(kernels / "k.txt"))
    imgs = tmp_path / "imgs"
    imgs.mkdir()
    imaging.save_image(np.full((24, 24), 0.5), str(imgs / "a.pgm"))
    out = tmp_path / "o"
    rc = cli.main(["gen-dataset", "--images", str(imgs), "--kernels",
                   str(kernels), "--sigma", sigma, "--patch", "16",
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma" in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("flag, value", [("--sigma", "-1"), ("--patch", "0")])
def test_gen_dataset_bad_argument_creates_nothing(tmp_path, capsys, flag,
                                                  value):
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    imaging.save_kernel(np.pad([[1.0]], 1), str(kernels / "k.txt"))
    imgs = tmp_path / "imgs"
    imgs.mkdir()
    imaging.save_image(np.full((24, 24), 0.5), str(imgs / "a.pgm"))
    out = tmp_path / "o"
    args = {"--sigma": "0.01", "--patch": "16", flag: value}
    rc = cli.main(["gen-dataset", "--images", str(imgs), "--kernels",
                   str(kernels), "--out", str(out),
                   *(x for kv in args.items() for x in kv)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# full pipeline on a miniature problem


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-kernels -> gen-dataset -> train, shared across the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    rng = np.random.default_rng(77)

    imgs = str(root / "imgs")
    os.makedirs(imgs)
    for i in range(2):
        imaging.save_image(rng.random((24, 24)),
                           os.path.join(imgs, "img%d.pgm" % i), maxval=65535)

    kernels = str(root / "kernels")
    assert cli.main(["gen-kernels", "--out", kernels, "--angles", "1",
                     "--lengths", "1", "--support", "9"]) == 0

    data = str(root / "data")
    assert cli.main(["gen-dataset", "--images", imgs, "--kernels", kernels,
                     "--sigma", "0.01", "--patch", "16", "--out", data]) == 0
    manifest = os.path.join(data, "manifest.csv")
    assert os.path.exists(manifest)

    run = str(root / "run")
    assert cli.main(["train", "--manifest", manifest, "--out", run,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "1"]) == 0
    ckpt = os.path.join(run, "checkpoint_epoch_0001.ckpt")
    assert os.path.exists(ckpt)
    return {"root": root, "manifest": manifest, "ckpt": ckpt, "data": data}


def test_train_prints_final_checkpoint(pipeline, capsys):
    # the fixture consumed its own output; retrain one epoch to observe it
    out = str(pipeline["root"] / "run2")
    rc = cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                   "--layers", "1", "--channels", "1", "--support", "5",
                   "--epochs", "1"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed.endswith("checkpoint_epoch_0001.ckpt")
    assert os.path.exists(printed)
    load_checkpoint(printed)


def test_deblur_with_checkpoint_writes_outputs(pipeline, tmp_path, capsys):
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    with open(blurred, "rb") as fh:
        before = fh.read()

    out = str(tmp_path / "restored.pgm")
    kout = str(tmp_path / "kernel.txt")
    rc = cli.main(["deblur", "--in", blurred, "--ckpt", pipeline["ckpt"],
                   "--out", out, "--kernel-out", kout])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [out, kout]
    assert imaging.load_image(out).shape == (16, 16)
    imaging.check_kernel(imaging.load_kernel(kout), tol=1e-6)
    with open(blurred, "rb") as fh:
        assert fh.read() == before  # input untouched


def test_deblur_with_preset(pipeline, tmp_path, capsys):
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out = str(tmp_path / "restored.pgm")
    rc = cli.main(["deblur", "--in", blurred, "--preset", "tv-prewitt",
                   "--support", "7", "--restrict-support", "--out", out])
    assert rc == 0
    assert imaging.load_image(out).shape == (16, 16)


def test_deblur_needs_exactly_one_model_source(pipeline, tmp_path, capsys):
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out = str(tmp_path / "x.pgm")
    assert cli.main(["deblur", "--in", blurred, "--out", out]) == 1
    assert cli.main(["deblur", "--in", blurred, "--out", out,
                     "--ckpt", pipeline["ckpt"], "--preset", "tv-prewitt"]) == 1


@pytest.mark.parametrize("support", ["4", "17"])  # even; wider than the image
def test_deblur_rejects_bad_support(pipeline, tmp_path, capsys, support):
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out = str(tmp_path / "x.pgm")
    rc = cli.main(["deblur", "--in", blurred, "--preset", "tv-prewitt",
                   "--support", support, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(out)


def test_deblur_support_with_checkpoint_is_an_error(pipeline, tmp_path,
                                                   capsys):
    # a checkpoint keeps its own support; --support used to be ignored
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out, kout = str(tmp_path / "x.pgm"), str(tmp_path / "k.txt")
    rc = cli.main(["deblur", "--in", blurred, "--ckpt", pipeline["ckpt"],
                   "--support", "3", "--out", out, "--kernel-out", kout])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--support" in err
    assert not os.path.exists(out) and not os.path.exists(kout)


def test_deblur_restrict_support_with_checkpoint_is_an_error(pipeline, tmp_path,
                                                            capsys):
    # a checkpoint's trained layout carries the whole plane it was trained on
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out, kout = str(tmp_path / "x.pgm"), str(tmp_path / "k.txt")
    rc = cli.main(["deblur", "--in", blurred, "--ckpt", pipeline["ckpt"],
                   "--restrict-support", "--out", out, "--kernel-out", kout])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --restrict-support ") and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("abbreviated, full", [
    (["--kernel", "k.txt"], ["--kernel-out", "k.txt"]),
    (["--restrict"], ["--restrict-support"])])
def test_abbreviated_flags_are_usage_errors(pipeline, tmp_path, capsys,
                                            abbreviated, full):
    # prefix matching would bind --kernel to --kernel-out and --restrict to
    # --restrict-support; only the full flags, as the benchmark passes
    # them, parse
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    argv = ["deblur", "--in", blurred, "--preset", "tv-prewitt", "--support",
            "7", "--out", str(tmp_path / "o.pgm")]
    paths = [str(tmp_path / a) if a.endswith(".txt") else a for a in abbreviated]
    assert cli.main(argv + paths) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    cli._build_parser().parse_args(argv + full)


def test_deblur_preset_restrict_support_changes_no_byte(pipeline, tmp_path,
                                                       capsys):
    # the preset always carries the support window, so the flag names the
    # only behaviour
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    written = []
    for flags in ([], ["--restrict-support"]):
        out, kout = (str(tmp_path / ("%s%d" % (name, len(flags))))
                     for name in ("x.pgm", "k.txt"))
        assert cli.main(["deblur", "--in", blurred, "--preset", "tv-prewitt",
                         "--support", "7", *flags, "--out", out,
                         "--kernel-out", kout]) == 0
        with open(out, "rb") as fh, open(kout, "rb") as kh:
            written.append((fh.read(), kh.read()))
    assert written[0] == written[1]


def test_deblur_preset_row_blocks_change_no_byte(tmp_path, monkeypatch, capsys):
    # a 256 px image's half spectra (2,064 bytes a row) exceed the quotients'
    # row-block budget, so the default run takes three blocks a plane; with
    # the budget raised it takes one, and writes the same bytes
    n = 256
    rng = np.random.default_rng(5)
    sharp = np.kron(rng.random((n // 16, n // 16)), np.ones((16, 16)))
    kernel = kernelgen.linear_motion_kernel(0.4, 7.0, 9)
    blurred = str(tmp_path / "blurred.pgm")
    imaging.save_image(kernelgen.synthesize_blurred(sharp, kernel, 0.005, 3), blurred,
                       maxval=65535)
    assert len(unroll._row_blocks((n, n // 2 + 1))) == 3
    written = []
    for budget in (unroll.QUOTIENT_BLOCK_BYTES, 2 ** 62):
        monkeypatch.setattr(unroll, "QUOTIENT_BLOCK_BYTES", budget)
        out, kout = (str(tmp_path / ("%s%d" % (name, len(written))))
                     for name in ("x.pgm", "k.txt"))
        assert cli.main(["deblur", "--in", blurred, "--preset", "tv-prewitt",
                         "--support", "9", "--out", out, "--kernel-out", kout]) == 0
        with open(out, "rb") as fh, open(kout, "rb") as kh:
            written.append((fh.read(), kh.read()))
    assert written[0] == written[1]


def test_deblur_preset_keeps_its_default_support(pipeline, tmp_path, capsys):
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    blurred = os.path.join(pipeline["data"], row["blurred"])
    out, kout = str(tmp_path / "x.pgm"), str(tmp_path / "k.txt")
    # the default support 31 is wider than the 16 px record
    assert cli.main(["deblur", "--in", blurred, "--preset", "tv-prewitt",
                     "--out", out]) == 1
    assert "31" in capsys.readouterr().err
    big = str(tmp_path / "big.pgm")
    imaging.save_image(np.full((40, 40), 0.5), big)
    assert cli.main(["deblur", "--in", big, "--preset", "tv-prewitt",
                     "--out", out, "--kernel-out", kout]) == 0
    assert imaging.load_kernel(kout).shape == (31, 31)


@pytest.mark.parametrize("field, value", [
    ("kernel_support", 9.0), ("layers", 2.0), ("layers", True),
    ("layers", "x")])
def test_deblur_rejects_mistyped_checkpoint_config(pipeline, tmp_path, capsys,
                                                   rewrite_config, field,
                                                   value):
    bad = rewrite_config(pipeline["ckpt"], tmp_path / "bad.ckpt",
                         **{field: value})
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    out, kout = str(tmp_path / "x.pgm"), str(tmp_path / "k.txt")
    rc = cli.main(["deblur", "--in", os.path.join(pipeline["data"], row["blurred"]),
                   "--ckpt", bad, "--out", out, "--kernel-out", kout])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not os.path.exists(out) and not os.path.exists(kout)


def test_eval_writes_report(pipeline, tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    rc = cli.main(["eval", "--manifest", pipeline["manifest"],
                   "--ckpt", pipeline["ckpt"], "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == out
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["record", "psnr_db", "isnr_db", "ssim",
                       "kernel_rmse", "shift_dy", "shift_dx"]
    assert rows[-1][0] == "MEAN"
    assert len(rows) == 4  # header + 2 records + mean


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_eval_rejects_threads_below_one(pipeline, tmp_path, capsys, threads):
    out = str(tmp_path / "report.csv")
    rc = cli.main(["eval", "--manifest", pipeline["manifest"],
                   "--ckpt", pipeline["ckpt"], "--out", out,
                   "--threads", threads])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threads" in err
    assert not os.path.exists(out)


def test_check_grad_passes_on_default_instance(capsys):
    rc = cli.main(["check-grad", "--size", "6", "--layers", "1",
                   "--channels", "1", "--samples", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_check_grad_rejects_zero_channels(capsys):
    assert cli.main(["check-grad", "--size", "6", "--channels", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_train_rejects_zero_channels(pipeline, capsys):
    out = str(pipeline["root"] / "run_c0")
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "0", "--support", "5",
                     "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "checkpoint_epoch_0001.ckpt"))


def test_deblur_rejects_non_finite_checkpoint_weights(pipeline, tmp_path,
                                                     capsys):
    # an Inf eta used to exit 0 with an all-black image; save_checkpoint
    # refuses to write one, so overwrite eta[0] in a valid file: after the
    # magic, version, config block, epoch, step and lr come the
    # length-prefixed arrays w_top, w_mix, b, lam, eta
    ckpt = load_checkpoint(pipeline["ckpt"])
    with open(pipeline["ckpt"], "rb") as fh:
        data = bytearray(fh.read())
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    pos = 16 + cfg_len + 12 + 8
    for name in ("w_top", "w_mix", "b", "lam"):
        pos += 8 + 8 * getattr(ckpt.params, name).size
    pos += 8  # eta's length prefix
    assert struct.unpack_from("<d", data, pos)[0] == ckpt.params.eta[0]
    data[pos:pos + 8] = struct.pack("<d", np.inf)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    bad = str(bad)
    with open(pipeline["manifest"]) as fh:
        row = next(csv.DictReader(fh))
    out, kout = str(tmp_path / "x.pgm"), str(tmp_path / "k.txt")
    rc = cli.main(["deblur", "--in", os.path.join(pipeline["data"], row["blurred"]),
                   "--ckpt", bad, "--out", out, "--kernel-out", kout])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eta" in err
    assert not os.path.exists(out) and not os.path.exists(kout)


def test_train_resume_may_raise_epochs(pipeline, capsys):
    # the README's `train --resume run/checkpoint_epoch_0020.ckpt --epochs 40`
    out = str(pipeline["root"] / "run_more")
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "2", "--resume", pipeline["ckpt"]]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == os.path.join(out, "checkpoint_epoch_0002.ckpt")
    assert load_checkpoint(printed).epoch == 2


def test_train_resume_at_the_final_epoch_is_an_error(pipeline, capsys):
    # it used to print a checkpoint path it never wrote
    out = str(pipeline["root"] / "run_done")
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "1", "--resume", pipeline["ckpt"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value", [("--decay", "nan"), ("--decay", "inf"),
                                         ("--lr", "nan")])
def test_train_rejects_non_finite_config_values(pipeline, capsys, flag, value):
    # a NaN decay used to write a checkpoint that load_checkpoint refuses,
    # and a NaN lr trained an epoch and wrote its log before failing
    out = str(pipeline["root"] / ("run_%s_%s" % (flag[2:], value)))
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field %s is %s, expected float"
                          % (flag[2:], value))
    assert "Traceback" not in err
    assert not os.path.exists(out)  # no checkpoint and no loss log


@pytest.mark.parametrize("flag, value", [("--lr", "0"), ("--decay", "-0.5"),
                                         ("--kappa", "-1")])
def test_train_rejects_out_of_range_config_values(pipeline, capsys, flag, value):
    out = str(pipeline["root"] / ("run_%s_%s" % (flag[2:], value)))
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field %s is " % flag[2:])
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", ["--epochs", "--batch"])
def test_train_rejects_zero_epochs_or_batch(pipeline, capsys, flag):
    out = str(pipeline["root"] / ("run_zero" + flag))
    assert cli.main(["train", "--manifest", pipeline["manifest"], "--out", out,
                     "--layers", "1", "--channels", "1", "--support", "5",
                     "--epochs", "1", flag, "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert capsys.readouterr().out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["deblur", "eval", "train", "gen-dataset"])
def test_missing_input_file_is_an_error_line(pipeline, tmp_path, capsys,
                                              command):
    missing, out = str(tmp_path / "nope"), str(tmp_path / "out")
    argv = {
        "deblur": ["deblur", "--in", missing, "--preset", "tv-prewitt"],
        "eval": ["eval", "--manifest", pipeline["manifest"], "--ckpt", missing],
        "train": ["train", "--manifest", missing],
        "gen-dataset": ["gen-dataset", "--images", missing,
                        "--kernels", str(pipeline["root"] / "kernels")],
    }[command]
    assert cli.main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope" in err


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("row", ["a_blur.pgm,a_sharp.pgm",
                                 "a_blur.pgm,a_sharp.pgm,a_kernel.txt,abc"])
def test_malformed_manifest_row_is_an_error_line(pipeline, tmp_path, capsys,
                                                 command, row):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("blurred,sharp,kernel,sigma\n" + row + "\n")
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--ckpt", pipeline["ckpt"]],
        "train": ["train", "--layers", "1", "--channels", "1",
                  "--support", "5", "--epochs", "1"],
    }[command]
    assert cli.main(argv + ["--manifest", str(manifest), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err
    assert "Traceback" not in err


def test_check_grad_rejects_a_bank_wider_than_the_image(capsys):
    # four layers cascade 9x9 filters in layer 1, wider than the 8x8 image
    assert cli.main(["check-grad", "--size", "8", "--layers", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "layer 1's filters are 9x9" in err
    assert "Traceback" not in err


def test_check_grad_rejects_negative_samples(capsys):
    assert cli.main(["check-grad", "--size", "6", "--samples", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err
    assert capsys.readouterr().out == ""
