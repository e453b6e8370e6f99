import json
import struct

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_kernel(rng, size):
    """Nonnegative normalized kernel of odd size."""
    k = rng.random((size, size))
    return k / k.sum()


@pytest.fixture
def make_kernel(rng):
    def _make(size=5):
        return random_kernel(rng, size)
    return _make


@pytest.fixture
def rewrite_config():
    """Copy a checkpoint with some config values replaced.

    The config block sits after the 8-byte magic and the u32 version,
    behind its own u32 length prefix, which the copy updates.
    """
    def _rewrite(src, dst, **changes):
        with open(src, "rb") as fh:
            data = fh.read()
        (n,) = struct.unpack_from("<I", data, 12)
        config = json.loads(data[16:16 + n])
        config.update(changes)
        block = json.dumps(config).encode("ascii")
        with open(dst, "wb") as fh:
            fh.write(data[:12] + struct.pack("<I", len(block)) + block
                     + data[16 + n:])
        return str(dst)
    return _rewrite
