"""Federated datasets: containers, partitioners, and generators."""

from .. import _lazy

#: The builders a run ledger cannot rebuild by name, and why; every other
#: exported builder is registered (:func:`repro.spec.register`).  Their
#: federations carry ``recipe = None`` and replay needs them handed back.
NOT_RECONSTRUCTIBLE = {
    "federate_arrays": "caller-owned arrays",
    "load_leaf": "caller-owned arrays (read from files the ledger does not hold)",
}

__all__ = ["NOT_RECONSTRUCTIBLE"]

_lazy.attach(globals(), {
    ".federated": (
        "ClientData",
        "DatasetStats",
        "FederatedDataset",
        "train_test_split_client",
        "ClientStore",
        "PackedClientStore",
    ),
    ".from_arrays": ("federate_arrays",),
    ".leaf_io": ("load_leaf", "save_leaf"),
    ".partition": (
        "lognormal_sizes",
        "power_law_sizes",
        "assign_classes_per_device",
        "iid_partition",
    ),
    ".store": (
        "MmapShardStore",
        "OnDemandSyntheticStore",
        "make_synthetic_ondemand",
        "DEFAULT_CACHE_CLIENTS",
    ),
    ".synthetic": ("make_synthetic", "make_synthetic_iid", "synthetic_suite"),
    ".images": (
        "make_prototype_image_dataset",
        "make_mnist_like",
        "make_femnist_like",
    ),
    ".text": ("make_shakespeare_like", "make_sent140_like"),
})
