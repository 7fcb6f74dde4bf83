"""One federation on every client-store kind: the contract answers alike.

Each example builds one Synthetic federation in the store kinds that can
hold it, and holds every call of the :class:`~repro.datasets.ClientStore`
contract to ``==`` across them:

* the builder's packed store, the same clients packed again through
  ``FederatedDataset(clients=...)``, and the same clients packed into
  memory-mapped shards;
* an on-demand store, and a packed copy of its own clients.

The calls are ``len``, every ``get(k)`` (arrays bit for bit, dtypes and
shapes, ``client_id == k``), ``train_sizes`` / ``test_sizes``, both
stacked splits — a federation without test rows answers zero rows shaped
and typed like its train rows — ``IndexError`` for an id outside the
federation, and all of them again after a pickle round trip.
"""

from __future__ import annotations

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    FederatedDataset,
    MmapShardStore,
    OnDemandSyntheticStore,
    PackedClientStore,
    make_synthetic,
)

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

PARTS = ("train_x", "train_y", "test_x", "test_y")


def _exact(array):
    """An array as an ``==``-comparable value: shape, dtype and bytes."""
    array = np.asarray(array)
    return array.shape, array.dtype.str, array.tobytes()


def _answers(store) -> dict:
    """Everything the client-store contract answers about ``store``."""
    k = len(store)
    for bad in (-1, k):
        with pytest.raises(IndexError):
            store.get(bad)
    with pytest.raises(IndexError):
        store[k]
    clients = [store.get(i) for i in range(k)]
    return {
        "len": k,
        "ids": [c.client_id for c in clients] + [store[-1].client_id],
        "clients": [[_exact(getattr(c, part)) for part in PARTS] for c in clients],
        "train_sizes": store.train_sizes.tolist(),
        "test_sizes": store.test_sizes.tolist(),
        "stacked": [_exact(a) for split in ("train", "test") for a in store.stacked(split)],
    }


@settings(max_examples=15, deadline=None)
@given(
    num_devices=st.integers(1, 9),
    seed=st.integers(0, 5),
    test_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    per_shard=st.integers(1, 4),
)
@example(num_devices=6, seed=3, test_fraction=0.0, per_shard=4)
def test_every_store_kind_answers_alike(num_devices, seed, test_fraction, per_shard):
    kw = dict(num_devices=num_devices, seed=seed, test_fraction=test_fraction,
              size_cap=40, min_samples=2)
    built = make_synthetic(1.0, 1.0, **kw)
    ondemand = OnDemandSyntheticStore(1.0, 1.0, **kw)
    with tempfile.TemporaryDirectory() as directory:
        groups = [
            [
                built.store,
                FederatedDataset("again", list(built)).store,
                MmapShardStore.pack(built, directory, clients_per_shard=per_shard),
            ],
            [ondemand, PackedClientStore.from_clients(list(ondemand))],
        ]
        for stores in groups:
            want = _answers(stores[0])
            assert want["ids"] == list(range(num_devices)) + [num_devices - 1]
            for store in stores + [pickle.loads(pickle.dumps(s)) for s in stores]:
                assert _answers(store) == want
