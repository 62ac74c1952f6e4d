"""Deterministic parameter initialization helpers.

Each helper draws from the generator it is given. ``LitModel`` gives every
unit of the model (patch embedding, position table, merge, block, head) its
own PCG64 generator, keyed by the model seed and the unit's checkpoint-name
prefix, so a unit's values depend on neither the worker count nor whether
the units are built in order or on a thread pool. The draws are float64 in
every dtype, so a float32 build is the rounded float64 one.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


WEIGHT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, WEIGHT_STD) resampled until every draw lies within two std.

    Each round redraws, in index order, only the entries still out of
    bounds, and checks only the new draws.
    """
    out = rng.standard_normal(shape)
    out *= WEIGHT_STD
    flat = out.reshape(-1)
    bound = 2.0 * WEIGHT_STD
    bad = np.flatnonzero(np.abs(flat) > bound)
    while bad.size:
        redrawn = rng.standard_normal(bad.size)
        redrawn *= WEIGHT_STD
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > bound]
    return out


def weight(rng: np.random.Generator, shape, dtype=np.float32) -> Tensor:
    return Tensor(trunc_normal(rng, shape).astype(dtype), requires_grad=True)


def zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
