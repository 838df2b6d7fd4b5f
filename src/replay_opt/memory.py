"""Run-lived arrays on their own anonymous memory maps.

The replay buffer's columns, the proportional sampler's sum tree and each
network's workspace are sized by the buffer's capacity or by a row block,
not by what a run reaches, and they live as long as the run. They come from
``mapped_zeros``, so untouched pages cost no resident memory and every page
goes back to the operating system when the array is dropped.
"""

from __future__ import annotations

import mmap

import numpy as np


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zero-filled array on its own anonymous memory map.

    The kernel maps a page only when it is first written, so the rows of a
    ring buffer that a run never reaches cost no resident memory. ``np.zeros``
    does not promise that: once a freed buffer has raised the allocator's
    mmap threshold (a second run in the same process), ``calloc`` serves the
    next buffer from a heap and clears, so touches, every page of it.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)
