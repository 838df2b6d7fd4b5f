"""Run-lived array allocation: a map the system refuses is a config error."""

from __future__ import annotations

import errno
import mmap

import numpy as np
import pytest

from replay_opt.errors import ConfigError
from replay_opt.memory import mapped_zeros


@pytest.mark.parametrize(
    "refusal",
    [OSError(errno.ENOMEM, "Cannot allocate memory"), OverflowError("too large"), ValueError("bad size")],
    ids=["OSError", "OverflowError", "ValueError"],
)
def test_refused_map_raises_config_error_naming_shape_and_bytes(monkeypatch, refusal):
    def refuse(*args, **kwargs):
        raise refusal

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(ConfigError, match=r"cannot map 2400000000000 bytes for an array of shape \(100000000000, 3\)"):
        mapped_zeros((100_000_000_000, 3))
    with pytest.raises(ConfigError, match=r"cannot map 100000000000 bytes for an array of shape 100000000000"):
        mapped_zeros(100_000_000_000, dtype=np.int8)


def test_mapped_zeros_is_zero_filled_in_the_asked_shape():
    grid = mapped_zeros((3, 4), dtype=np.int8)
    assert grid.shape == (3, 4) and grid.dtype == np.int8 and not grid.any()
    assert mapped_zeros(0).shape == (0,)
