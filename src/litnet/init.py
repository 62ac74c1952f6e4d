"""Deterministic parameter initialization helpers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


WEIGHT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, WEIGHT_STD) resampled until every draw lies within two std."""
    out = rng.normal(0.0, WEIGHT_STD, size=shape)
    bound = 2.0 * WEIGHT_STD
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, WEIGHT_STD, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def weight(rng: np.random.Generator, shape, dtype=np.float32) -> Tensor:
    return Tensor(trunc_normal(rng, shape).astype(dtype), requires_grad=True)


def zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
