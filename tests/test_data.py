"""The synthetic dataset draws every class, and a data directory's uint8
images are read as float32 in [0, 1]."""

import numpy as np

from litnet.data import NUM_CLASSES, load_dataset_dir, synthetic_dataset


def test_every_synthetic_class_draws_its_shape():
    # the background is 0.12 plus noise of sd 0.02 and every palette colour
    # has a channel of at least 0.8, so shape pixels are those above 0.3
    images, labels = synthetic_dataset(NUM_CLASSES, seed=0)
    assert labels.tolist() == list(range(NUM_CLASSES))
    assert all((image.max(axis=-1) > 0.3).sum() > 20 for image in images)


def test_uint8_images_are_read_as_float32_over_255(tmp_path):
    images = np.arange(2 * 4 * 4 * 3, dtype=np.uint8).reshape(2, 4, 4, 3)
    images[1, 3, 3, 2] = 255
    np.save(tmp_path / "images.npy", images)
    np.save(tmp_path / "labels.npy", np.array([3, 1], dtype=np.uint8))
    loaded, labels = load_dataset_dir(tmp_path)
    assert loaded.dtype == np.float32 and labels.dtype == np.int64
    assert np.array_equal(loaded, images.astype(np.float32) / 255.0) and loaded.max() == 1.0
    assert labels.tolist() == [3, 1]
