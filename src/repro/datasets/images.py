"""Synthetic image-classification federations (MNIST / FEMNIST stand-ins).

The offline environment has no access to MNIST or EMNIST, so these
generators produce *class-conditional prototype images*: each class gets a
smooth random prototype in ``[0, 1]^dim`` and samples are noisy copies of
it.  What the paper's MNIST/FEMNIST experiments actually exercise is
**label-skew statistical heterogeneity under a convex model** — each device
holds only 2 (MNIST) or 5 (FEMNIST) classes with power-law sizes — and that
partition scheme is copied exactly (see DESIGN.md §4).

Samples are stored as ``float32``: the 1000-device MNIST-like federation
(69 035 x 784) is 207 MB, held once — the builder writes every device
straight into the packed stacks its clients are views of (DESIGN.md §13,
"Who owns the bytes").  Its largest power-law device is a third of that
(23 951 rows, 150 MB as float64), so devices are generated
``GENERATION_BLOCK_ROWS`` rows at a time: building peaks at the data
bytes plus two float64 blocks (about 7 MB), where generating that device
whole held 3-4 x 150 MB of temporaries on top of the federation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..spec import register
from .federated import FederatedDataset, PackedClientStore
from .partition import assign_classes_per_device, power_law_sizes

#: Rows of a device generated at a time: bounds the float64 temporaries of
#: the largest power-law device (tens of thousands of rows) to megabytes.
GENERATION_BLOCK_ROWS = 512


def _smooth_prototype(
    rng: np.random.Generator, side: int, coarse: int = 7
) -> np.ndarray:
    """A smooth random grayscale pattern built by upsampling a coarse grid.

    Mimics the low-frequency structure of handwritten-digit images: a
    ``coarse x coarse`` random grid is blown up to ``side x side`` with
    nearest-neighbour tiling, then jittered and clipped to [0, 1].
    """
    grid = rng.uniform(0.0, 1.0, size=(coarse, coarse))
    reps = int(np.ceil(side / coarse))
    big = np.kron(grid, np.ones((reps, reps)))[:side, :side]
    return np.clip(big, 0.0, 1.0).reshape(-1)


@register(tag="builder", live=("rng",))
def make_prototype_image_dataset(
    name: str,
    num_devices: int,
    num_classes: int,
    classes_per_device: int,
    total_samples: int,
    dim: int = 784,
    noise: float = 0.35,
    prototypes_per_class: int = 3,
    style_mix: float = 0.5,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    test_fraction: float = 0.2,
    power_law_alpha: float = 1.5,
    min_samples: int = 8,
) -> FederatedDataset:
    """Generate a label-skewed prototype-image federation.

    Each class has several sub-prototypes ("writing styles"): a shared class
    pattern blended with per-style variation.  Samples are noisy copies of a
    randomly chosen style, which keeps classes non-trivially overlapping —
    a closer analogue of handwritten digits than a single prototype.

    Parameters
    ----------
    name:
        Dataset display name.
    num_devices, num_classes, classes_per_device:
        Partition scheme (paper: MNIST = 1000/10/2, FEMNIST = 200/10/5).
    total_samples:
        Total samples across the federation, dealt out with power-law sizes.
    dim:
        Flattened image width; must be a perfect square (28x28 = 784 in the
        paper; reduced configs use e.g. 64 = 8x8).
    noise:
        Pixel-noise standard deviation; larger values increase class
        overlap (and reduce attainable accuracy).
    prototypes_per_class:
        Number of sub-prototypes ("styles") per class.
    style_mix:
        Weight of the per-style pattern in the blend with the shared class
        pattern; 0 collapses every style to one prototype per class.
    rng, seed:
        Randomness.
    test_fraction:
        Per-device held-out fraction.
    power_law_alpha, min_samples:
        Size-skew knobs.
    """
    side = int(np.sqrt(dim))
    if side * side != dim:
        raise ValueError(f"dim must be a perfect square, got {dim}")
    if prototypes_per_class < 1:
        raise ValueError("prototypes_per_class must be at least 1")
    if not 0.0 <= style_mix <= 1.0:
        raise ValueError("style_mix must be in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng(seed)

    # (classes, styles, dim): shared class pattern blended with style noise.
    class_patterns = np.stack(
        [_smooth_prototype(rng, side) for _ in range(num_classes)]
    )
    prototypes = np.empty((num_classes, prototypes_per_class, dim))
    for c in range(num_classes):
        for s in range(prototypes_per_class):
            style = _smooth_prototype(rng, side)
            prototypes[c, s] = np.clip(
                (1.0 - style_mix) * class_patterns[c] + style_mix * style,
                0.0,
                1.0,
            )

    sizes = power_law_sizes(
        rng, num_devices, total_samples, alpha=power_law_alpha, minimum=min_samples
    )
    class_sets = assign_classes_per_device(
        rng, num_devices, num_classes, classes_per_device
    )

    store = PackedClientStore.allocate(
        sizes, test_fraction, (dim,), np.float32, class_sets[0].dtype
    )
    for k in range(num_devices):
        n = sizes[k]
        y = rng.choice(class_sets[k], size=n)
        styles = rng.integers(prototypes_per_class, size=n)
        # ``clip(prototypes[y, styles] + normal(0, noise, (n, dim)))`` a
        # block of rows at a time, straight into the device's own rows:
        # ``normal`` fills row-major from one stream, so the blocks are
        # the same numbers as the one draw.
        done = 0
        for rows in store.staging(k):
            for lo in range(0, len(rows), GENERATION_BLOCK_ROWS):
                out = rows[lo : lo + GENERATION_BLOCK_ROWS]
                upto = done + len(out)
                block = rng.normal(0.0, noise, size=out.shape)
                block += prototypes[y[done:upto], styles[done:upto]]
                np.clip(block, 0.0, 1.0, out=out, casting="same_kind")
                done = upto
        store.place(k, None, y, rng)

    return FederatedDataset(
        name=name, store=store, num_classes=num_classes, input_dim=dim
    )


@register(tag="builder", live=("rng",))
def make_mnist_like(
    num_devices: int = 1000,
    total_samples: int = 69_035,
    dim: int = 784,
    seed: int = 0,
    **kwargs,
) -> FederatedDataset:
    """MNIST stand-in: 10 classes, 2 classes/device, power-law sizes.

    Defaults reproduce the paper's Table 1 row (1000 devices, 69,035
    samples); pass smaller ``num_devices`` / ``total_samples`` / ``dim``
    for a laptop-scale training run.
    """
    return make_prototype_image_dataset(
        name="MNIST-like",
        num_devices=num_devices,
        num_classes=10,
        classes_per_device=2,
        total_samples=total_samples,
        dim=dim,
        seed=seed,
        **kwargs,
    )


@register(tag="builder", live=("rng",))
def make_femnist_like(
    num_devices: int = 200,
    total_samples: int = 18_345,
    dim: int = 784,
    seed: int = 0,
    **kwargs,
) -> FederatedDataset:
    """FEMNIST stand-in: 10 classes, 5 classes/device, power-law sizes.

    Defaults reproduce the paper's Table 1 row (200 devices, 18,345
    samples — the 10 lowercase-letter subset of EMNIST).
    """
    return make_prototype_image_dataset(
        name="FEMNIST-like",
        num_devices=num_devices,
        num_classes=10,
        classes_per_device=5,
        total_samples=total_samples,
        dim=dim,
        seed=seed,
        **kwargs,
    )
