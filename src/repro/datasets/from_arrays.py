"""Federate user-provided arrays.

Downstream users rarely have pre-federated data; this module turns a plain
``(X, y)`` classification dataset into a :class:`FederatedDataset` using
the paper's partition schemes:

* ``"iid"`` — shuffle and deal samples out evenly;
* ``"label_skew"`` — each device holds only ``classes_per_device`` classes
  (the MNIST/FEMNIST scheme);
* ``"power_law"`` — IID class mix but power-law device sizes;
* label-skew and power-law compose when both are requested.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .federated import FederatedDataset, PackedClientStore
from .partition import assign_classes_per_device, iid_partition, power_law_sizes


def federate_arrays(
    X: np.ndarray,
    y: np.ndarray,
    num_devices: int,
    scheme: str = "iid",
    classes_per_device: Optional[int] = None,
    power_law_alpha: float = 1.5,
    test_fraction: float = 0.2,
    seed: int = 0,
    name: str = "custom",
) -> FederatedDataset:
    """Partition ``(X, y)`` into a federation.

    Parameters
    ----------
    X, y:
        Sample matrix ``(n, ...)`` and integer labels ``(n,)``.
    num_devices:
        Number of devices to create.
    scheme:
        ``"iid"``, ``"label_skew"`` or ``"power_law"``.
    classes_per_device:
        Required for ``"label_skew"``: how many label classes each device
        may hold (2 for the paper's MNIST partition, 5 for FEMNIST).
    power_law_alpha:
        Size-skew exponent for ``"power_law"``.
    test_fraction:
        Per-device held-out fraction (paper: 20%).
    seed:
        Randomness.
    name:
        Dataset display name.

    Returns
    -------
    FederatedDataset

    Raises
    ------
    ValueError
        On unknown schemes, missing ``classes_per_device``, or when the
        data cannot satisfy the requested partition.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) != len(y):
        raise ValueError("X and y must have the same length")
    if len(y) < num_devices:
        raise ValueError("fewer samples than devices")
    num_classes = int(y.max()) + 1
    rng = np.random.default_rng(seed)

    if scheme == "iid":
        parts = iid_partition(rng, len(y), num_devices)
    elif scheme == "power_law":
        sizes = power_law_sizes(
            rng, num_devices, total_samples=len(y), alpha=power_law_alpha,
            minimum=max(2, int(1 / max(test_fraction, 0.01)) + 1),
        )
        order = rng.permutation(len(y))
        parts = []
        offset = 0
        for size in sizes:
            parts.append(np.sort(order[offset : offset + size]))
            offset += size
    elif scheme == "label_skew":
        if classes_per_device is None:
            raise ValueError("label_skew requires classes_per_device")
        parts = _label_skew_partition(
            rng, y, num_devices, num_classes, classes_per_device
        )
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    for device_id, indices in enumerate(parts):
        if len(indices) == 0:
            raise ValueError(
                f"device {device_id} received no samples; reduce num_devices"
            )
    store = PackedClientStore.allocate(
        [len(indices) for indices in parts],
        test_fraction, X.shape[1:], X.dtype, y.dtype,
    )
    for device_id, indices in enumerate(parts):
        store.place(device_id, X[indices], y[indices], rng)
    return FederatedDataset(
        name=name, store=store, num_classes=num_classes,
        input_dim=X.shape[1] if X.ndim > 1 else None,
    )


def _label_skew_partition(
    rng: np.random.Generator,
    y: np.ndarray,
    num_devices: int,
    num_classes: int,
    classes_per_device: int,
) -> List[np.ndarray]:
    """Split sample indices so each device sees a fixed class subset.

    Each class's samples are divided into equal shards; devices draw one
    shard from each of their assigned classes (round-robin over shards).
    """
    class_sets = assign_classes_per_device(
        rng, num_devices, num_classes, classes_per_device
    )
    # How many devices want each class -> number of shards per class.
    demand = np.zeros(num_classes, dtype=int)
    for classes in class_sets:
        for c in classes:
            demand[c] += 1

    shards: dict = {}
    cursor = np.zeros(num_classes, dtype=int)
    for c in range(num_classes):
        indices = np.flatnonzero(y == c)
        rng.shuffle(indices)
        if demand[c] > 0:
            if len(indices) < demand[c]:
                raise ValueError(
                    f"class {c} has {len(indices)} samples but {demand[c]} "
                    "devices need a shard of it"
                )
            shards[c] = np.array_split(indices, demand[c])

    parts: List[np.ndarray] = []
    for classes in class_sets:
        chunks = []
        for c in classes:
            chunks.append(shards[c][cursor[c]])
            cursor[c] += 1
        parts.append(np.sort(np.concatenate(chunks)))
    return parts
