"""Degenerate images through the solver, the training loss and the CLI.

Constant, all-zero and saturated images have no edges for the features
to find, and the tiny ones leave filters and kernel supports as wide as
the image itself. Each case must give finite outputs and gradients, or
raise a typed DeblurError; on the CLI, exit 0 with a written image or exit
1 with an `error:` line and no output file.
"""

import os

import numpy as np
import pytest

from composed import kernel_form
from unrolled_deblur import autodiff as ad
from unrolled_deblur import cli, imaging, unroll
from unrolled_deblur.errors import DeblurError
from unrolled_deblur.kernelgen import DatasetRecord
from unrolled_deblur.training import (AdamState, TrainConfig, init_params,
                                      objective, save_checkpoint)

# name -> (image, kernel support)
IMAGES = {
    "constant": (np.full((16, 16), 0.5), 3),
    "zeros": (np.zeros((16, 16)), 3),
    "saturated": (np.ones((16, 16)), 3),
    "5x5": (np.random.default_rng(5).random((5, 5)), 3),
    "7x7-support-7": (np.random.default_rng(7).random((7, 7)), 7),
}


def layout(name, support):
    """The preset, the default init, or the init with b=0.02, lam=1e-3.

    The trained layouts have three layers, so their layer-1 bank is 7 px
    wide: wider than the 5x5 image.
    """
    if name == "preset":
        return unroll.tv_prewitt_params(layers=4, kernel_support=support)
    params = init_params(TrainConfig(layers=3, channels=2,
                                     kernel_support=support))
    if name == "alive":
        params.b[:] = 0.02
        params.lam[:] = 1e-3
    return params


def finite_or_typed(run):
    """Run; every array it returns must be finite unless it raises typed."""
    try:
        arrays = run()
    except DeblurError:
        return
    for arr in arrays:
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("model", ["preset", "default", "alive"])
@pytest.mark.parametrize("image", sorted(IMAGES))
def test_edge_image_gives_finite_output_or_typed_error(image, model):
    y, support = IMAGES[image]
    params = layout(model, support)
    for restrict in (False, True):
        with kernel_form(restrict):
            finite_or_typed(lambda: unroll.forward(y, params)[:3])
    record = DatasetRecord(blurred_path=image, blurred=y, sharp=y,
                           kernel=np.ones((support, support)) / support ** 2)

    def taped():
        total, _, _, state = objective(record, params, 1e5, tape=ad.Tape())
        return list(unroll.collect_gradients(total, state).values())

    finite_or_typed(taped)


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    """The constant and 5x5 images as PGMs, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("edge")
    paths = {}
    for name in ("constant", "5x5"):
        paths[name] = str(root / ("%s.pgm" % name))
        imaging.save_image(IMAGES[name][0], paths[name], maxval=65535)
    cfg = TrainConfig(layers=3, channels=2, kernel_support=3)
    params = layout("alive", 3)
    paths["ckpt"] = str(root / "model.ckpt")
    save_checkpoint(paths["ckpt"], params, AdamState.zeros(params), 0, 0,
                    cfg.lr, cfg)
    return paths


@pytest.mark.parametrize("source", [
    ["--preset", "tv-prewitt"],  # default support 31: wider than both images
    ["--preset", "tv-prewitt", "--support", "3"],
    ["--ckpt", None]])
@pytest.mark.parametrize("image", ["constant", "5x5"])
def test_cli_deblur_on_edge_image(edge_files, tmp_path, capsys, image, source):
    source = [edge_files["ckpt"] if a is None else a for a in source]
    out = str(tmp_path / "restored.pgm")
    rc = cli.main(["deblur", "--in", edge_files[image], *source, "--out", out])
    err = capsys.readouterr().err
    if rc == 0:
        assert np.all(np.isfinite(imaging.load_image(out)))
    else:
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(out)
