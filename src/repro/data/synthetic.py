"""Synthetic stand-ins for the paper's datasets.

The image datasets are generated from per-class prototypes: each class has a
random smooth prototype image, and samples are noisy, slightly shifted
copies of their class prototype.  The resulting problems are learnable by
small convolutional and fully connected networks, show realistic convergence
curves (fast early progress, slow saturation) and — crucially for the
reproduction — are sensitive to the quality of gradients, so stale updates
measurably slow convergence exactly as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = [
    "SyntheticImageConfig",
    "make_synthetic_image_dataset",
    "synthetic_cifar10",
    "synthetic_cifar100",
]


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Geometry and difficulty of a synthetic image-classification dataset."""

    num_classes: int = 10
    num_train: int = 2000
    num_test: int = 500
    image_size: int = 16
    channels: int = 3
    noise_scale: float = 0.6
    shift_pixels: int = 2
    prototype_smoothness: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_train < self.num_classes or self.num_test < 1:
            raise ValueError("dataset sizes too small for the number of classes")
        if self.image_size < 4 or self.channels < 1:
            raise ValueError("image_size must be >= 4 and channels >= 1")
        if self.noise_scale < 0 or self.shift_pixels < 0:
            raise ValueError("noise_scale and shift_pixels must be non-negative")


def _smooth(image: np.ndarray, passes: int) -> np.ndarray:
    """Cheap box-blur used to give prototypes spatial structure."""
    smoothed = image
    for _ in range(max(passes, 0)):
        padded = np.pad(smoothed, ((0, 0), (1, 1), (1, 1)), mode="edge")
        smoothed = (
            padded[:, :-2, 1:-1]
            + padded[:, 2:, 1:-1]
            + padded[:, 1:-1, :-2]
            + padded[:, 1:-1, 2:]
            + padded[:, 1:-1, 1:-1]
        ) / 5.0
    return smoothed


def _generate_split(
    prototypes: np.ndarray,
    count: int,
    config: SyntheticImageConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, config.num_classes, size=count)
    shifts = np.zeros((count, 2), dtype=np.int64)
    if config.shift_pixels:
        shifts = rng.integers(-config.shift_pixels, config.shift_pixels + 1, size=(count, 2))
    # Each sample's np.roll by (dy, dx), all in one gather:
    # image[c, y, x] = prototype[c, (y - dy) % height, (x - dx) % width].
    _, channels, height, width = prototypes.shape
    rows = ((np.arange(height) - shifts[:, :1]) % height)[:, None, :, None]
    cols = ((np.arange(width) - shifts[:, 1:]) % width)[:, None, None, :]
    images = prototypes[labels[:, None, None, None], np.arange(channels)[:, None, None], rows, cols]
    # Noise 256 samples at a time: the draws of one whole-array draw, in the
    # same order, without a second dataset-sized array.
    for start in range(0, count, 256):
        block = images[start : start + 256]
        block += rng.normal(0.0, config.noise_scale, size=block.shape)
    return images, labels


def make_synthetic_image_dataset(
    config: SyntheticImageConfig,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Generate ``(train, test)`` datasets according to ``config``."""
    rng = np.random.default_rng(config.seed)
    prototypes = rng.normal(
        0.0, 1.0, size=(config.num_classes, config.channels, config.image_size, config.image_size)
    )
    prototypes = np.stack([_smooth(proto, config.prototype_smoothness) for proto in prototypes])
    # Normalize prototype energy so class separability is controlled by
    # noise_scale alone rather than by the random draw.
    prototypes /= np.sqrt(np.mean(prototypes**2, axis=(1, 2, 3), keepdims=True)) + 1e-12

    train_inputs, train_labels = _generate_split(prototypes, config.num_train, config, rng)
    test_inputs, test_labels = _generate_split(prototypes, config.num_test, config, rng)
    return ArrayDataset(train_inputs, train_labels), ArrayDataset(test_inputs, test_labels)


def synthetic_cifar10(
    num_train: int = 2000,
    num_test: int = 500,
    image_size: int = 16,
    noise_scale: float = 0.6,
    seed: int = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Synthetic 10-class stand-in for CIFAR-10."""
    config = SyntheticImageConfig(
        num_classes=10,
        num_train=num_train,
        num_test=num_test,
        image_size=image_size,
        noise_scale=noise_scale,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)


def synthetic_cifar100(
    num_train: int = 4000,
    num_test: int = 1000,
    image_size: int = 16,
    noise_scale: float = 0.5,
    num_classes: int = 100,
    seed: int = 1,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Synthetic many-class stand-in for CIFAR-100.

    ``num_classes`` defaults to 100 to match CIFAR-100; the experiment
    configurations may reduce it to keep the offline benchmark runs short.
    """
    config = SyntheticImageConfig(
        num_classes=num_classes,
        num_train=num_train,
        num_test=num_test,
        image_size=image_size,
        noise_scale=noise_scale,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)
