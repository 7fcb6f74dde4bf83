"""Federated datasets: containers, partitioners, and generators."""

from .federated import (
    ClientData,
    ClientStore,
    DatasetStats,
    EagerClientStore,
    FederatedDataset,
    PackedClientStore,
    train_test_split_client,
)
from .from_arrays import federate_arrays
from .leaf_io import load_leaf, save_leaf
from .images import (
    make_femnist_like,
    make_mnist_like,
    make_prototype_image_dataset,
)
from .partition import (
    assign_classes_per_device,
    iid_partition,
    lognormal_sizes,
    power_law_sizes,
)
from .store import (
    DEFAULT_CACHE_CLIENTS,
    MmapShardStore,
    OnDemandSyntheticStore,
    make_synthetic_ondemand,
    resolve_store,
)
from .synthetic import make_synthetic, make_synthetic_iid, synthetic_suite
from .text import make_sent140_like, make_shakespeare_like

#: The builders a run ledger cannot rebuild by name, and why; every other
#: exported builder is registered (:func:`repro.spec.register`).  Their
#: federations carry ``recipe = None`` and replay needs them handed back.
NOT_RECONSTRUCTIBLE = {
    "federate_arrays": "caller-owned arrays",
    "load_leaf": "caller-owned arrays (read from files the ledger does not hold)",
}

__all__ = [
    "NOT_RECONSTRUCTIBLE",
    "ClientData",
    "DatasetStats",
    "FederatedDataset",
    "train_test_split_client",
    "federate_arrays",
    "load_leaf",
    "save_leaf",
    "lognormal_sizes",
    "power_law_sizes",
    "assign_classes_per_device",
    "iid_partition",
    "ClientStore",
    "EagerClientStore",
    "PackedClientStore",
    "MmapShardStore",
    "OnDemandSyntheticStore",
    "make_synthetic_ondemand",
    "resolve_store",
    "DEFAULT_CACHE_CLIENTS",
    "make_synthetic",
    "make_synthetic_iid",
    "synthetic_suite",
    "make_prototype_image_dataset",
    "make_mnist_like",
    "make_femnist_like",
    "make_shakespeare_like",
    "make_sent140_like",
]
