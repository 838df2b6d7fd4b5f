"""Run-lived arrays on their own anonymous memory maps.

The replay buffer's columns, the learned sampler's mask, the proportional
sampler's sum tree and each network's workspace are sized by the buffer's
capacity or by a row block, not by what a run reaches, and they live as long
as the run. They come from ``mapped_zeros``, so untouched pages cost no
resident memory and every page goes back to the operating system when the
array is dropped.
"""

from __future__ import annotations

import mmap

import numpy as np

from .errors import ConfigError


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zero-filled array on its own anonymous memory map.

    The kernel maps a page only when it is first written, so the rows of a
    ring buffer that a run never reaches cost no resident memory. ``np.zeros``
    does not promise that: once a freed buffer has raised the allocator's
    mmap threshold (a second run in the same process), ``calloc`` serves the
    next buffer from a heap and clears, so touches, every page of it.

    A map the system refuses (a capacity too large for its address space or
    its memory) raises ``ConfigError`` naming the shape and the byte count.
    """
    count = int(np.prod(shape))
    nbytes = count * np.dtype(dtype).itemsize
    try:
        buf = mmap.mmap(-1, max(nbytes, 1))
    except (OSError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot map {nbytes} bytes for an array of shape {shape}: {exc}") from exc
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)
