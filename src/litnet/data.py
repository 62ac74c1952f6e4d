"""Seeded synthetic dataset: colored geometric shapes, ten classes.

Each class pairs a shape family with a fixed base color; position, size,
color jitter, and background noise vary per image under the seed. Images
are float32 RGB in [0, 1], channels last.
"""

from __future__ import annotations

from pathlib import Path
from tokenize import TokenError

import numpy as np

from .errors import ConfigError

NUM_CLASSES = 10

_PALETTE = np.array([
    [0.90, 0.25, 0.20],
    [0.20, 0.75, 0.30],
    [0.25, 0.35, 0.95],
    [0.95, 0.80, 0.20],
    [0.80, 0.25, 0.85],
    [0.20, 0.85, 0.85],
    [0.95, 0.55, 0.15],
    [0.55, 0.95, 0.55],
    [0.60, 0.45, 0.95],
    [0.95, 0.45, 0.60],
], dtype=np.float64)


def _shape_mask(cls: int, cy: float, cx: float, r: float,
                yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    dy, dx = yy - cy, xx - cx
    dist = np.sqrt(dy * dy + dx * dx)
    if cls == 0:    # filled disk
        return dist <= r
    if cls == 1:    # filled square
        return (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if cls == 2:    # upward triangle
        return (dy <= r * 0.8) & (dy >= -r) & (np.abs(dx) <= (dy + r) * 0.7)
    if cls == 3:    # plus sign
        arm = max(r * 0.36, 1.5)
        return ((np.abs(dy) <= arm) & (np.abs(dx) <= r)) | \
               ((np.abs(dx) <= arm) & (np.abs(dy) <= r))
    if cls == 4:    # ring
        return (dist <= r) & (dist >= r * 0.55)
    if cls == 5:    # horizontal stripes
        period = max(int(r), 4)
        return (np.abs(dy) <= r) & (np.abs(dx) <= r) & ((yy // (period // 2)) % 2 == 0)
    if cls == 6:    # vertical stripes
        period = max(int(r), 4)
        return (np.abs(dy) <= r) & (np.abs(dx) <= r) & ((xx // (period // 2)) % 2 == 0)
    if cls == 7:    # diagonal band
        return (np.abs(dy - dx) <= r * 0.45) & (dist <= r * 1.4)
    if cls == 8:    # checkerboard patch
        cell = max(int(r * 0.5), 2)
        return (np.abs(dy) <= r) & (np.abs(dx) <= r) & (((yy // cell) + (xx // cell)) % 2 == 0)
    if cls == 9:    # four dots
        half = r * 0.55
        dot = r * 0.3
        mask = np.zeros_like(dy, dtype=bool)
        for sy in (-half, half):
            for sx in (-half, half):
                mask |= np.sqrt((dy - sy) ** 2 + (dx - sx) ** 2) <= dot
        return mask
    raise ConfigError(f"unknown class {cls}")


def synthetic_dataset(num_images: int, seed: int, size: int = 64,
                      num_classes: int = NUM_CLASSES) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (images, labels) with classes balanced round-robin."""
    if num_classes > NUM_CLASSES:
        raise ConfigError(f"at most {NUM_CLASSES} classes are defined")
    rng = np.random.Generator(np.random.PCG64(seed))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = np.empty((num_images, size, size, 3), dtype=np.float32)
    labels = np.empty(num_images, dtype=np.int64)
    for i in range(num_images):
        cls = i % num_classes
        labels[i] = cls
        background = 0.12 + rng.normal(0.0, 0.02, size=(size, size, 3))
        r = rng.uniform(size * 0.16, size * 0.26)
        cy = rng.uniform(r + 1, size - r - 1)
        cx = rng.uniform(r + 1, size - r - 1)
        mask = _shape_mask(cls, cy, cx, r, yy, xx)
        color = np.clip(_PALETTE[cls] + rng.normal(0.0, 0.04, size=3), 0.05, 1.0)
        img = background
        img[mask] = color + rng.normal(0.0, 0.015, size=(int(mask.sum()), 3))
        images[i] = np.clip(img, 0.0, 1.0)
    return images, labels


def _load_npy(path: Path) -> np.ndarray:
    """The array of real numbers in ``path``; anything numpy cannot read as
    one without unpickling is a ConfigError naming the file."""
    # pickled data and object arrays raise ValueError, and a truncated or
    # garbled header any of these
    try:
        array = np.load(path)
    except (ValueError, EOFError, OverflowError, TokenError):
        raise ConfigError(f"{path} is not a .npy array") from None
    if not isinstance(array, np.ndarray) or array.dtype.kind not in "biuf":
        raise ConfigError(f"{path} does not hold an array of real numbers")
    return array


def load_dataset_dir(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read images.npy [N, H, W, 3] and labels.npy [N] from a directory."""
    path = Path(path)
    images_path, labels_path = path / "images.npy", path / "labels.npy"
    if not images_path.exists() or not labels_path.exists():
        raise ConfigError(f"{path} must contain images.npy and labels.npy")
    images = _load_npy(images_path)
    labels = _load_npy(labels_path)
    if images.ndim != 4 or images.shape[3] != 3:
        raise ConfigError(f"images.npy must be [N, H, W, 3], got {images.shape}")
    if images.shape[0] == 0:
        raise ConfigError(f"{path} holds no images")
    if 0 in images.shape[1:3]:
        raise ConfigError(f"images.npy must have H and W of at least 1, got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ConfigError(f"labels.npy shape {labels.shape} does not match {images.shape[0]} images")
    # a cast to int64 would truncate 1.7 to 1 and wrap what int64 cannot hold
    if labels.dtype.kind == "f" and not np.all((labels == np.trunc(labels))
                                               & (np.abs(labels) < 2.0 ** 63)):
        raise ConfigError(f"{labels_path} holds labels that are not whole numbers")
    # checked after the cast, which turns a pixel past float32's range into
    # inf; min and max carry any NaN or +-inf without a full-size boolean array
    from_uint8 = images.dtype == np.uint8
    with np.errstate(over="ignore"):
        images = images.astype(np.float32)
    if from_uint8:
        images /= 255.0
    if not (np.isfinite(images.min()) and np.isfinite(images.max())):
        raise ConfigError(f"{images_path} holds non-finite pixels once cast to float32")
    return images, labels.astype(np.int64)
