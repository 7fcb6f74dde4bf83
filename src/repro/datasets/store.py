"""Sharded, lazily-materialized client state: the :class:`ClientStore` layer.

The eager per-client :class:`~repro.datasets.federated.ClientData` list
inside :class:`~repro.datasets.federated.FederatedDataset` costs O(total
devices) memory — fine for the paper's 30–1,000 device federations, a wall
at production scale.  A :class:`ClientStore` is the pluggable replacement:
a sequence-like object that answers two questions cheaply for *every*
client (``train_sizes`` / ``test_sizes`` — the aggregation-mass metadata
the server and evaluators need each round) and materializes any single
client's arrays *on access*.  The contract and the two in-memory stores
(:class:`~repro.datasets.federated.EagerClientStore` around a caller's
client list, :class:`~repro.datasets.federated.PackedClientStore` that
owns the bytes the seeded builders write) are defined beside the dataset
container in :mod:`repro.datasets.federated`; this module holds the two
that materialize on access:

:class:`MmapShardStore`
    Clients packed into ``.npy`` shard files with an on-disk index; a
    client access memory-maps its shard (bounded LRU of open shards) and
    returns zero-copy array views.  Memory cost is O(touched shards), not
    O(total devices), and the OS page cache does the rest.

:class:`OnDemandSyntheticStore`
    Regenerates any client's ``Synthetic(alpha, beta)`` data
    deterministically from per-client seed entropy
    (``SeedSequence([seed, salt, client_id])``), holding only a bounded
    LRU of live clients — a 10^6-device federation costs O(active cohort)
    memory.  Re-materializing an evicted client reproduces its arrays
    bit-for-bit, so LRU evictions can never change a training history.

All stores implement the read-only sequence protocol (``len``, ``[]``,
iteration), so everything that walks a ``FederatedDataset`` works
unchanged; lazy stores additionally advertise ``lazy = True`` so the
runtime avoids whole-federation materialization (``stacked``, which the
stacked census reads) unless explicitly asked for it.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..spec import register
from .federated import (
    ClientData,
    ClientStore,
    EagerClientStore,
    _split_sizes,
    train_test_split_client,
)
from .partition import lognormal_sizes
from .synthetic import (
    NUM_CLASSES,
    NUM_FEATURES,
    _input_covariance_diag,
    _softmax_labels,
)

#: Entropy salts keeping the store's deterministic streams disjoint from
#: the trainer's ``(seed, round, client, occurrence)`` mini-batch entropy
#: and from each other.
_SIZES_SALT = 0x512E  # per-federation size draw
_CLIENT_SALT = 0xC11E  # per-client data regeneration
_GLOBAL_SALT = 0x610B  # shared (IID) model draw

#: Default bound on live clients kept by lazily-materializing stores.
DEFAULT_CACHE_CLIENTS = 256

_SHARD_STORE_FORMAT = "repro-shard-store-v1"


class _LRUCache:
    """A tiny bounded LRU mapping with hit/miss counters."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def info(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class OnDemandSyntheticStore(ClientStore):
    """``Synthetic(alpha, beta)`` clients regenerated on access.

    Unlike :func:`~repro.datasets.synthetic.make_synthetic` — which draws
    all devices from one sequential generator, so client ``k``'s data
    depends on every earlier client — each client here derives its *own*
    generator from ``SeedSequence([seed, salt, client_id])``.  Any client
    is therefore a pure function of ``(seed, client_id)`` and can be
    materialized independently, in any order, in any process, and after
    any number of cache evictions, always bit-identically.  (The two
    generation orders produce statistically identical but numerically
    different federations; this store is its own dataset family, not a
    lazy view of ``make_synthetic``.)

    Per-device sample counts come from a single vectorized heavy-tailed
    draw (``lognormal(4, 2) + 50``, capped) seeded independently of the
    per-client data entropy, so ``train_sizes`` costs one array draw for
    the whole federation.

    Parameters
    ----------
    alpha, beta:
        The paper's model/data heterogeneity variances.  ``iid=True``
        ignores them and shares one ``(W, b)`` and a zero-mean input law
        across devices (the ``Synthetic-IID`` analogue).
    num_devices:
        Federation size; 10^6 costs only the metadata arrays.
    seed:
        Root entropy for sizes, shared IID parameters, and every
        per-client stream.
    cache_clients:
        Bound on live materialized clients (LRU).
    """

    lazy = True

    def __init__(
        self,
        alpha: float = 0.0,
        beta: float = 0.0,
        num_devices: int = 1000,
        seed: int = 0,
        iid: bool = False,
        test_fraction: float = 0.2,
        size_cap: Optional[int] = 1000,
        min_samples: int = 50,
        cache_clients: int = DEFAULT_CACHE_CLIENTS,
    ) -> None:
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        if not 0.0 <= test_fraction < 1.0:
            raise ValueError("test_fraction must be in [0, 1)")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.num_devices = int(num_devices)
        self.seed = int(seed)
        self.iid = bool(iid)
        self.test_fraction = float(test_fraction)
        self.size_cap = size_cap
        self.min_samples = int(min_samples)
        self.cache_clients = int(cache_clients)
        self._input_scale = np.sqrt(_input_covariance_diag())
        # Input-draw workspace, grown to the largest client materialized so
        # far (never ``_sizes.max()``: ~10^5 rows under ``size_cap=None``).
        self._scratch: Optional[np.ndarray] = None

        sizes_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _SIZES_SALT])
        )
        self._sizes = lognormal_sizes(
            sizes_rng, self.num_devices, minimum=min_samples, cap=size_cap
        ).astype(np.int64)
        self._train_sizes, self._test_sizes = _split_sizes(
            self._sizes, self.test_fraction
        )
        if self.iid:
            shared_rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, _GLOBAL_SALT])
            )
            self._shared_W = shared_rng.normal(
                0.0, 1.0, size=(NUM_FEATURES, NUM_CLASSES)
            )
            self._shared_b = shared_rng.normal(0.0, 1.0, size=NUM_CLASSES)
        else:
            self._shared_W = None
            self._shared_b = None
        self._cache = _LRUCache(self.cache_clients)

    def __len__(self) -> int:
        return self.num_devices

    @property
    def train_sizes(self) -> np.ndarray:
        return self._train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        return self._test_sizes

    def _materialize(self, client_id: int) -> ClientData:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _CLIENT_SALT, client_id])
        )
        n = int(self._sizes[client_id])
        if self.iid:
            W, b, v_k = self._shared_W, self._shared_b, 0.0
        else:
            u_k = rng.normal(0.0, np.sqrt(self.alpha)) if self.alpha > 0 else 0.0
            B_k = rng.normal(0.0, np.sqrt(self.beta)) if self.beta > 0 else 0.0
            W = rng.normal(u_k, 1.0, size=(NUM_FEATURES, NUM_CLASSES))
            b = rng.normal(u_k, 1.0, size=NUM_CLASSES)
            v_k = rng.normal(B_k, 1.0, size=NUM_FEATURES)
        # ``rng.normal(v_k, scale, size=(n, d))`` bit for bit (same stream,
        # row-major fill, ``v + s*z`` per element) without NumPy's
        # per-element broadcast loop or a fresh block per get (DESIGN §13).
        if self._scratch is None or len(self._scratch) < n:
            self._scratch = np.empty((n, NUM_FEATURES))
        X = self._scratch[:n]
        rng.standard_normal(out=X)
        X *= self._input_scale
        X += v_k
        y = _softmax_labels(X, W, b)
        # The split gathers (copies) rows, so nothing returned aliases X.
        return train_test_split_client(
            client_id, X, y, rng, test_fraction=self.test_fraction
        )

    def get(self, client_id: int) -> ClientData:
        if not 0 <= client_id < self.num_devices:
            raise IndexError(f"client {client_id} out of range")
        cached = self._cache.get(client_id)
        if cached is not None:
            return cached
        data = self._materialize(client_id)
        self._cache.put(client_id, data)
        return data

    def cache_info(self) -> Dict[str, int]:
        return self._cache.info()

    # Pickling (parallel workers rebuild the store from its parameters) -- #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = None
        state["_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache = _LRUCache(self.cache_clients)


class MmapShardStore(ClientStore):
    """Clients packed into on-disk ``.npy`` shards, memory-mapped on access.

    Layout (one directory per store)::

        index.json                    scalars: format, counts, shapes
        offsets.npz                   per-client [start, stop) row ranges
        shard_00000.train_x.npy       concatenated train inputs
        shard_00000.train_y.npy       ... and so on, 4 files per shard

    A client access memory-maps its shard's four arrays (``np.load(...,
    mmap_mode="r")``, held in a bounded LRU of open shards) and returns
    zero-copy views — the OS pages data in as forward passes touch it, and
    evicting a shard handle only closes the *handle*; outstanding views
    keep their pages alive.  ``get`` is trivially deterministic (the bytes
    on disk never change), so cache evictions cannot affect histories.

    Build a store with :meth:`pack`, which streams clients from any
    source (an eager dataset, another store — including an on-demand
    synthetic store, which is how a 10^6-device federation reaches disk
    without ever being fully resident).
    """

    lazy = True

    def __init__(self, directory: str, max_open_shards: int = 8) -> None:
        self.directory = str(directory)
        index_path = os.path.join(self.directory, "index.json")
        if not os.path.exists(index_path):
            raise FileNotFoundError(
                f"{index_path} not found; build the store with "
                "MmapShardStore.pack(source, directory)"
            )
        with open(index_path) as fh:
            index = json.load(fh)
        if index.get("format") != _SHARD_STORE_FORMAT:
            raise ValueError(
                f"unrecognized shard store format {index.get('format')!r} "
                f"in {index_path}"
            )
        self.num_clients = int(index["num_clients"])
        self.clients_per_shard = int(index["clients_per_shard"])
        self.num_shards = int(index["num_shards"])
        self.meta = index
        offsets = np.load(os.path.join(self.directory, "offsets.npz"))
        self._train_start = offsets["train_start"]
        self._train_stop = offsets["train_stop"]
        self._test_start = offsets["test_start"]
        self._test_stop = offsets["test_stop"]
        self._train_sizes = (self._train_stop - self._train_start).astype(
            np.int64
        )
        self._test_sizes = (self._test_stop - self._test_start).astype(
            np.int64
        )
        self.max_open_shards = int(max_open_shards)
        self._shards = _LRUCache(self.max_open_shards)

    # Packing ----------------------------------------------------------- #
    @staticmethod
    def pack(
        source: Sequence[ClientData],
        directory: str,
        clients_per_shard: int = 1024,
        name: str = "",
        num_classes: Optional[int] = None,
        input_dim: Optional[int] = None,
    ) -> "MmapShardStore":
        """Stream ``source`` into a shard directory and open the store.

        ``source`` is anything yielding :class:`ClientData` in client-id
        order under iteration (a list, a ``FederatedDataset``, or another
        :class:`ClientStore`); memory use is bounded by one shard's
        clients at a time.
        """
        if clients_per_shard < 1:
            raise ValueError("clients_per_shard must be at least 1")
        os.makedirs(directory, exist_ok=True)
        num_clients = len(source)
        if num_clients == 0:
            raise ValueError("cannot pack an empty client source")

        train_start = np.zeros(num_clients, dtype=np.int64)
        train_stop = np.zeros(num_clients, dtype=np.int64)
        test_start = np.zeros(num_clients, dtype=np.int64)
        test_stop = np.zeros(num_clients, dtype=np.int64)

        def flush_shard(shard_idx: int, buffer: List[ClientData]) -> None:
            parts = {
                "train_x": [c.train_x for c in buffer],
                "train_y": [c.train_y for c in buffer],
                "test_x": [c.test_x for c in buffer],
                "test_y": [c.test_y for c in buffer],
            }
            for part, arrays in parts.items():
                nonempty = [np.asarray(a) for a in arrays if len(a)]
                if nonempty:
                    stacked = np.concatenate(nonempty)
                else:
                    # An all-empty test split still needs a typed, shaped
                    # array so views keep the right trailing dimensions.
                    template = np.asarray(
                        parts["train_x" if part.endswith("x") else "train_y"][0]
                    )
                    stacked = np.zeros(
                        (0,) + template.shape[1:], dtype=template.dtype
                    )
                np.save(
                    os.path.join(
                        directory, f"shard_{shard_idx:05d}.{part}.npy"
                    ),
                    stacked,
                )

        buffer: List[ClientData] = []
        shard_idx = 0
        train_cursor = 0
        test_cursor = 0
        for cid, client in enumerate(source):
            if client.client_id != cid:
                raise ValueError(
                    f"source client at position {cid} reports id "
                    f"{client.client_id}; pack requires id-ordered sources"
                )
            train_start[cid] = train_cursor
            train_cursor += client.num_train
            train_stop[cid] = train_cursor
            test_start[cid] = test_cursor
            test_cursor += client.num_test
            test_stop[cid] = test_cursor
            buffer.append(client)
            if len(buffer) == clients_per_shard:
                flush_shard(shard_idx, buffer)
                buffer = []
                shard_idx += 1
                train_cursor = 0
                test_cursor = 0
        if buffer:
            flush_shard(shard_idx, buffer)
            shard_idx += 1

        np.savez(
            os.path.join(directory, "offsets.npz"),
            train_start=train_start,
            train_stop=train_stop,
            test_start=test_start,
            test_stop=test_stop,
        )
        index = {
            "format": _SHARD_STORE_FORMAT,
            "num_clients": num_clients,
            "clients_per_shard": clients_per_shard,
            "num_shards": shard_idx,
            "name": name,
            "num_classes": num_classes,
            "input_dim": input_dim,
        }
        with open(os.path.join(directory, "index.json"), "w") as fh:
            json.dump(index, fh, indent=2)
            fh.write("\n")
        return MmapShardStore(directory)

    # Access ------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_clients

    @property
    def train_sizes(self) -> np.ndarray:
        return self._train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        return self._test_sizes

    def _shard(self, shard_idx: int) -> Dict[str, np.ndarray]:
        arrays = self._shards.get(shard_idx)
        if arrays is None:
            arrays = {
                part: np.load(
                    os.path.join(
                        self.directory, f"shard_{shard_idx:05d}.{part}.npy"
                    ),
                    mmap_mode="r",
                )
                for part in ("train_x", "train_y", "test_x", "test_y")
            }
            self._shards.put(shard_idx, arrays)
        return arrays

    def get(self, client_id: int) -> ClientData:
        if not 0 <= client_id < self.num_clients:
            raise IndexError(f"client {client_id} out of range")
        shard = self._shard(client_id // self.clients_per_shard)
        return ClientData(
            client_id=client_id,
            train_x=shard["train_x"][
                self._train_start[client_id] : self._train_stop[client_id]
            ],
            train_y=shard["train_y"][
                self._train_start[client_id] : self._train_stop[client_id]
            ],
            test_x=shard["test_x"][
                self._test_start[client_id] : self._test_stop[client_id]
            ],
            test_y=shard["test_y"][
                self._test_start[client_id] : self._test_stop[client_id]
            ],
        )

    def cache_info(self) -> Dict[str, int]:
        return self._shards.info()

    # Pickling (workers reopen mmaps against the same directory) --------- #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_shards"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shards = _LRUCache(self.max_open_shards)


def resolve_store(
    clients_or_store: Union[ClientStore, Sequence[ClientData]]
) -> ClientStore:
    """Coerce a raw client sequence to a store (stores pass through)."""
    if isinstance(clients_or_store, ClientStore):
        return clients_or_store
    return EagerClientStore(clients_or_store)


@register(tag="builder")
def make_synthetic_ondemand(
    alpha: float,
    beta: float,
    num_devices: int,
    seed: int = 0,
    iid: bool = False,
    test_fraction: float = 0.2,
    size_cap: Optional[int] = 1000,
    min_samples: int = 50,
    cache_clients: int = DEFAULT_CACHE_CLIENTS,
    name: Optional[str] = None,
):
    """A ``FederatedDataset`` over an :class:`OnDemandSyntheticStore`.

    The O(active cohort) counterpart of
    :func:`~repro.datasets.synthetic.make_synthetic` for large
    ``num_devices`` — see the class docstring for how it differs
    numerically from the eager generator.
    """
    from .federated import FederatedDataset  # local: avoid import cycles

    store = OnDemandSyntheticStore(
        alpha=alpha,
        beta=beta,
        num_devices=num_devices,
        seed=seed,
        iid=iid,
        test_fraction=test_fraction,
        size_cap=size_cap,
        min_samples=min_samples,
        cache_clients=cache_clients,
    )
    label = name or (
        "Synthetic-OD-IID" if iid else f"Synthetic-OD({alpha:g},{beta:g})"
    )
    return FederatedDataset.from_store(
        name=label,
        store=store,
        num_classes=NUM_CLASSES,
        input_dim=NUM_FEATURES,
    )
