"""The paper's synthetic datasets: Synthetic(alpha, beta) and Synthetic-IID.

Generation follows Section 5.1 / Appendix C.1 exactly:

* For device ``k`` the labelling model is ``y = argmax(softmax(W_k x + b_k))``
  with ``W_k ~ N(u_k, 1)``, ``b_k ~ N(u_k, 1)`` and ``u_k ~ N(0, alpha)``;
  ``alpha`` controls how much *local models* differ across devices.
* Local inputs are ``x_k ~ N(v_k, Sigma)`` with diagonal
  ``Sigma_jj = j^{-1.2}``, each element of ``v_k`` drawn from
  ``N(B_k, 1)`` with ``B_k ~ N(0, beta)``; ``beta`` controls how much
  *local data* differs across devices.
* ``Synthetic-IID`` shares a single ``W, b ~ N(0, 1)`` across all devices
  and draws every ``x`` from the same zero-mean ``N(0, Sigma)``.
* 30 devices; samples per device follow a heavy-tailed law
  (``lognormal(4, 2) + 50`` in the reference implementation).

The three heterogeneous settings studied in the paper are
``(alpha, beta) in {(0, 0), (0.5, 0.5), (1, 1)}``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..spec import register
from .federated import FederatedDataset, PackedClientStore
from .partition import lognormal_sizes

NUM_FEATURES = 60
NUM_CLASSES = 10


def _input_covariance_diag(dim: int = NUM_FEATURES) -> np.ndarray:
    """The paper's diagonal input covariance ``Sigma_jj = j^{-1.2}``."""
    return np.arange(1, dim + 1, dtype=np.float64) ** (-1.2)


def _draw_inputs(
    rng: np.random.Generator,
    X: np.ndarray,
    scale: np.ndarray,
    loc: Union[float, np.ndarray],
) -> np.ndarray:
    """``X`` becomes ``rng.normal(loc, scale, size=X.shape)``, in place.

    Bit for bit (same stream, row-major fill, ``loc + scale*z`` per
    element) without NumPy's per-element broadcast loop or a fresh block
    per device (DESIGN §13).  A scalar ``loc`` of 0.0 is still added, as
    ``normal`` adds it, so a ``-0.0`` comes out ``+0.0``.
    """
    rng.standard_normal(out=X)
    X *= scale
    X += loc
    return X


def _softmax_labels(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Labels ``argmax softmax(W x + b)`` (argmax of scores suffices)."""
    return (X @ W + b).argmax(axis=1)


def _allocate(sizes: np.ndarray, test_fraction: float) -> PackedClientStore:
    """The packed stacks the two generators write their devices into."""
    return PackedClientStore.allocate(
        sizes, test_fraction, (NUM_FEATURES,), np.float64, np.intp
    )


@register(tag="builder", live=("rng",))
def make_synthetic(
    alpha: float,
    beta: float,
    num_devices: int = 30,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    test_fraction: float = 0.2,
    size_cap: Optional[int] = 1000,
    min_samples: int = 50,
    name: Optional[str] = None,
) -> FederatedDataset:
    """Generate ``Synthetic(alpha, beta)``.

    Parameters
    ----------
    alpha:
        Variance of the per-device model-mean ``u_k`` — model heterogeneity.
    beta:
        Variance of the per-device input-mean driver ``B_k`` — data
        heterogeneity.
    num_devices:
        Number of devices (30 in the paper).
    rng, seed:
        Randomness; ``rng`` wins if both are given.
    test_fraction:
        Per-device held-out fraction (the paper uses 20%).
    size_cap:
        Upper bound on per-device samples; keeps the heavy-tailed draw
        tractable on one CPU.  Set ``None`` for the unbounded reference
        behaviour.
    min_samples:
        Added to every size draw (50 in the reference implementation).
    name:
        Dataset name override.

    Returns
    -------
    FederatedDataset
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    rng = rng if rng is not None else np.random.default_rng(seed)
    sizes = lognormal_sizes(
        rng, num_devices, minimum=min_samples, cap=size_cap
    )
    scale = np.sqrt(_input_covariance_diag())

    store = _allocate(sizes, test_fraction)
    # Every device is drawn into the leading rows of one block sized by the
    # largest, which ``place`` copies out of.
    scratch = np.empty((sizes.max(), NUM_FEATURES))
    for k in range(num_devices):
        u_k = rng.normal(0.0, np.sqrt(alpha)) if alpha > 0 else 0.0
        B_k = rng.normal(0.0, np.sqrt(beta)) if beta > 0 else 0.0
        W_k = rng.normal(u_k, 1.0, size=(NUM_FEATURES, NUM_CLASSES))
        b_k = rng.normal(u_k, 1.0, size=NUM_CLASSES)
        v_k = rng.normal(B_k, 1.0, size=NUM_FEATURES)
        X = _draw_inputs(rng, scratch[: sizes[k]], scale, v_k)
        store.place(k, X, _softmax_labels(X, W_k, b_k), rng)

    return FederatedDataset(
        name=name or f"Synthetic({alpha:g},{beta:g})",
        store=store,
        num_classes=NUM_CLASSES,
        input_dim=NUM_FEATURES,
    )


@register(tag="builder", live=("rng",))
def make_synthetic_iid(
    num_devices: int = 30,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    test_fraction: float = 0.2,
    size_cap: Optional[int] = 1000,
    min_samples: int = 50,
) -> FederatedDataset:
    """Generate ``Synthetic-IID``: one shared model, one shared input law."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    sizes = lognormal_sizes(rng, num_devices, minimum=min_samples, cap=size_cap)
    scale = np.sqrt(_input_covariance_diag())
    W = rng.normal(0.0, 1.0, size=(NUM_FEATURES, NUM_CLASSES))
    b = rng.normal(0.0, 1.0, size=NUM_CLASSES)

    store = _allocate(sizes, test_fraction)
    scratch = np.empty((sizes.max(), NUM_FEATURES))
    for k in range(num_devices):
        X = _draw_inputs(rng, scratch[: sizes[k]], scale, 0.0)
        store.place(k, X, _softmax_labels(X, W, b), rng)

    return FederatedDataset(
        name="Synthetic-IID",
        store=store,
        num_classes=NUM_CLASSES,
        input_dim=NUM_FEATURES,
    )


def synthetic_suite(
    seed: int = 0,
    num_devices: int = 30,
    size_cap: Optional[int] = 1000,
) -> dict:
    """The four synthetic datasets of Figure 2, keyed by display name."""
    return {
        "Synthetic-IID": make_synthetic_iid(
            num_devices=num_devices, seed=seed, size_cap=size_cap
        ),
        "Synthetic(0,0)": make_synthetic(
            0.0, 0.0, num_devices=num_devices, seed=seed + 1, size_cap=size_cap
        ),
        "Synthetic(0.5,0.5)": make_synthetic(
            0.5, 0.5, num_devices=num_devices, seed=seed + 2, size_cap=size_cap
        ),
        "Synthetic(1,1)": make_synthetic(
            1.0, 1.0, num_devices=num_devices, seed=seed + 3, size_cap=size_cap
        ),
    }
