"""Federated dataset containers.

A federated dataset is a collection of per-device datasets.  Each device
holds its own train/test split (the paper splits every device's local data
80/20).  :class:`FederatedDataset` also computes the summary statistics the
paper reports in Table 1 (devices, samples, mean and stdev of samples per
device).

The per-device data sits behind a :class:`ClientStore`.  The two in-memory
stores live here: :class:`EagerClientStore` wraps a caller's client list,
:class:`PackedClientStore` owns the federation as four packed arrays whose
clients are views (what the seeded builders produce).  The lazily
materializing stores are in :mod:`repro.datasets.store`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass
class ClientData:
    """One device's local data.

    Attributes
    ----------
    client_id:
        Stable identifier within the federated dataset.
    train_x, train_y:
        Local training arrays; ``train_x`` is ``(n, ...)`` and ``train_y``
        is ``(n,)`` integer labels.
    test_x, test_y:
        Local held-out arrays (possibly empty).
    """

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def num_train(self) -> int:
        """Number of local training samples (the paper's ``n_k``)."""
        return len(self.train_y)

    @property
    def num_test(self) -> int:
        """Number of local test samples."""
        return len(self.test_y)

    @property
    def num_samples(self) -> int:
        """Total local samples (train + test)."""
        return self.num_train + self.num_test

    def __post_init__(self) -> None:
        if len(self.train_x) != len(self.train_y):
            raise ValueError(
                f"client {self.client_id}: train_x/train_y length mismatch"
            )
        if len(self.test_x) != len(self.test_y):
            raise ValueError(
                f"client {self.client_id}: test_x/test_y length mismatch"
            )
        if self.num_train == 0:
            raise ValueError(f"client {self.client_id} has no training samples")


@dataclass
class DatasetStats:
    """Table 1 row: summary statistics of a federated dataset."""

    name: str
    devices: int
    samples: int
    mean_samples_per_device: float
    stdev_samples_per_device: float

    def as_row(self) -> Dict[str, object]:
        """Dict form used by the Table 1 harness."""
        return {
            "Dataset": self.name,
            "Devices": self.devices,
            "Samples": self.samples,
            "Samples/device mean": round(self.mean_samples_per_device),
            "Samples/device stdev": round(self.stdev_samples_per_device),
        }


class _StackedSplits(dict):
    """A store's concatenated splits; pickles and copies as empty.

    It sits in the store's ``__dict__``, so whatever ``__getstate__`` a
    store defines carries it along — empty: a pickled or deep-copied
    store never ships a second copy of its clients' rows.
    """

    def __reduce__(self):
        return (_StackedSplits, ())


class ClientStore(abc.ABC):
    """Per-client data access with O(1)-per-client metadata.

    The contract (relied on by the trainer, the executors, and both
    evaluators — see DESIGN.md §13):

    * ``len(store)`` is the device count; ``store.get(k)`` returns client
      ``k``'s :class:`ClientData` with ``client_id == k``.
    * ``get`` is **deterministic**: any two calls (in any process, before
      or after cache evictions) return arrays with identical contents.
    * ``train_sizes`` / ``test_sizes`` return per-client sample counts for
      the *whole* federation without materializing any client.
    * ``lazy`` is ``True`` when ``get`` may do real work (regeneration,
      I/O) — consumers then avoid whole-federation materialization on hot
      paths and should touch clients through a bounded working set.
    * ``stacked(split)`` is the whole federation's ``"train"`` or
      ``"test"`` rows as one ``(X, y)`` pair in client order — the one
      source of a stacked split (the census, ``global_train``).
    """

    #: Whether accessing a client may materialize data on demand.
    lazy: bool = False

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of devices in the store."""

    @abc.abstractmethod
    def get(self, client_id: int) -> ClientData:
        """Materialize (or fetch) one client's data."""

    @property
    @abc.abstractmethod
    def train_sizes(self) -> np.ndarray:
        """Per-client training sample counts ``n_k`` (no materialization)."""

    @property
    @abc.abstractmethod
    def test_sizes(self) -> np.ndarray:
        """Per-client held-out sample counts (no materialization)."""

    def stacked(self, split: str) -> Tuple[np.ndarray, np.ndarray]:
        """Every client's ``split`` rows as one ``(X, y)``, in client order.

        Concatenates once and keeps the result — a second copy of the
        split, and every client of a lazy store materialized — so later
        edits of a client's arrays are not seen.  Clients without test
        rows are left out of the ``"test"`` stack (an empty ``(0,)``
        feature array need not match its neighbours' trailing shape);
        with none at all there is nothing to stack and it raises.
        """
        stacks = self.__dict__.setdefault("_stacks", _StackedSplits())
        if split not in stacks:
            clients = [c for c in self if split == "train" or c.num_test]
            if not clients:
                raise ValueError(f"no {split} data in this client store")
            stacks[split] = tuple(
                np.concatenate([getattr(c, f"{split}_{part}") for c in clients])
                for part in "xy"
            )
        return stacks[split]

    # Sequence protocol ------------------------------------------------- #
    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[ClientData, List[ClientData]]:
        if isinstance(index, slice):
            return [self.get(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self.get(index)

    def __iter__(self) -> Iterator[ClientData]:
        for i in range(len(self)):
            yield self.get(i)

    def cache_info(self) -> Dict[str, int]:
        """Cache statistics for lazily-materializing stores (else empty)."""
        return {}


class EagerClientStore(ClientStore):
    """A caller's client list, held as given: every client up front.

    The store does not own the clients' bytes — they are whatever arrays
    the caller built — so :meth:`stacked` has to concatenate a copy.
    """

    lazy = False

    def __init__(self, clients: Sequence[ClientData]) -> None:
        if not clients:
            raise ValueError("an eager client store needs at least one client")
        self.clients: List[ClientData] = list(clients)
        self._train_sizes: Optional[np.ndarray] = None
        self._test_sizes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.clients)

    def get(self, client_id: int) -> ClientData:
        if client_id < 0:  # the list would wrap; too-large ids raise below
            raise IndexError(f"client {client_id} out of range")
        return self.clients[client_id]

    @property
    def train_sizes(self) -> np.ndarray:
        if self._train_sizes is None:
            self._train_sizes = np.array(
                [c.num_train for c in self.clients]
            )
        return self._train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        if self._test_sizes is None:
            self._test_sizes = np.array([c.num_test for c in self.clients])
        return self._test_sizes


def _split_sizes(
    sizes: np.ndarray, test_fraction: float
) -> tuple:
    """Vectorized train/test counts matching ``train_test_split_client``.

    Mirrors the scalar logic exactly: ``n_test = int(n * test_fraction)``,
    clamped so at least one training sample survives.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_test = (sizes * test_fraction).astype(np.int64)
    n_test = np.where(sizes - n_test < 1, sizes - 1, n_test)
    return sizes - n_test, n_test


#: Rows :func:`_permute_rows` holds aside at a time.
_PERMUTE_BLOCK_ROWS = 512


def _permute_rows(x: np.ndarray, rows: np.ndarray, order: np.ndarray) -> None:
    """``x[rows] = x[rows[order]]`` without a copy of those rows.

    Along a cycle ``c0 -> order[c0] -> ...`` of the permutation, slot
    ``c_i`` takes the row of slot ``c_(i+1)``.  Moving a cycle in walk
    order, a block of slots at a time, only ever overwrites rows that
    have already been moved on; the cycle's first row is kept aside and
    closes it.
    """
    successor = order.tolist()
    walked = [False] * len(successor)
    for start, slot in enumerate(successor):
        if walked[start] or slot == start:
            continue
        cycle = [start]
        while slot != start:
            walked[slot] = True
            cycle.append(slot)
            slot = successor[slot]
        at = rows[cycle]
        first = x[at[0]].copy()
        for lo in range(0, len(at) - 1, _PERMUTE_BLOCK_ROWS):
            hi = min(lo + _PERMUTE_BLOCK_ROWS, len(at) - 1)
            x[at[lo:hi]] = x[at[lo + 1 : hi + 1]]
        x[at[-1]] = first


class PackedClientStore(EagerClientStore):
    """The eager store that owns the federation's bytes.

    One ``x`` and one ``y`` array hold every sample: first all training
    rows, then all held-out rows, each in client order.  ``train_offsets``
    and ``test_offsets`` (``K + 1`` entries) give client ``k`` the rows
    ``[offsets[k], offsets[k + 1])`` of its split, and every
    :class:`ClientData` in ``clients`` is four zero-copy views of them.
    So the federation exists once: :meth:`stacked` answers with
    ``(train_x, train_y)`` / ``(test_x, test_y)`` themselves, and an
    in-place edit of a client's array is an edit of the stack.  Replacing
    a ``ClientData`` *object* in ``clients`` is not: the stacks keep the
    old rows.

    The seeded builders :meth:`allocate` a store from the device sizes
    they drew and :meth:`place` each device as they generate it, so no
    second copy exists while building either.  A pickle or deep copy
    carries ``x``, ``y`` and the offsets, and re-makes the views on load.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        train_offsets: np.ndarray,
        test_offsets: np.ndarray,
    ) -> None:
        train_offsets = np.asarray(train_offsets, dtype=np.int64)
        test_offsets = np.asarray(test_offsets, dtype=np.int64)
        if len(train_offsets) != len(test_offsets) or len(train_offsets) < 2:
            raise ValueError(
                "a packed client store needs at least one client and "
                "offset tables of equal length"
            )
        rows = int(train_offsets[-1])
        if len(x) != len(y) or len(y) != rows + int(test_offsets[-1]):
            raise ValueError(
                f"offsets describe {rows} train + {int(test_offsets[-1])} "
                f"test rows but x has {len(x)} and y has {len(y)}"
            )
        self.x, self.y = x, y
        self.train_offsets, self.test_offsets = train_offsets, test_offsets
        self.train_x, self.test_x = x[:rows], x[rows:]
        self.train_y, self.test_y = y[:rows], y[rows:]
        self._train_sizes = np.diff(train_offsets)
        self._test_sizes = np.diff(test_offsets)
        a, c = train_offsets.tolist(), test_offsets.tolist()
        self.clients = [
            ClientData(
                client_id=k,
                train_x=self.train_x[a[k] : a[k + 1]],
                train_y=self.train_y[a[k] : a[k + 1]],
                test_x=self.test_x[c[k] : c[k + 1]],
                test_y=self.test_y[c[k] : c[k + 1]],
            )
            for k in range(len(a) - 1)
        ]

    @classmethod
    def allocate(
        cls,
        sizes: Sequence[int],
        test_fraction: float,
        x_shape: Tuple[int, ...],
        x_dtype,
        y_dtype,
    ) -> "PackedClientStore":
        """Uninitialized stacks for devices of ``sizes`` samples each.

        Split counts follow :func:`train_test_split_client`'s rule; the
        rows hold garbage until :meth:`place` has filled every device.
        """
        if not 0.0 <= test_fraction < 1.0:
            raise ValueError("test_fraction must be in [0, 1)")
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0 or sizes.min() < 1:
            raise ValueError(
                "a federated dataset needs at least one client, each with "
                "at least one sample"
            )
        n_train, n_test = _split_sizes(sizes, test_fraction)
        rows = int(sizes.sum())
        return cls(
            np.empty((rows,) + tuple(x_shape), dtype=x_dtype),
            np.empty(rows, dtype=y_dtype),
            np.concatenate(([0], np.cumsum(n_train))),
            np.concatenate(([0], np.cumsum(n_test))),
        )

    def _slots(self, client_id: int) -> Tuple[slice, slice]:
        """Client's rows of ``x`` / ``y``: its test rows, then its train rows."""
        shift = len(self.train_y)  # the test rows follow every train row
        a, b = self.train_offsets[client_id : client_id + 2].tolist()
        c, d = self.test_offsets[client_id : client_id + 2].tolist()
        return slice(shift + c, shift + d), slice(a, b)

    def staging(self, client_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Where a builder may write a device it generates piece by piece.

        Two views of the client's own ``x`` rows — its test rows, then
        its train rows: write sample ``i`` to the ``i``-th row of the two
        taken together, then :meth:`place` with ``X=None``.
        """
        test, train = self._slots(client_id)
        return self.x[test], self.x[train]

    def place(
        self,
        client_id: int,
        X: Optional[np.ndarray],
        y: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Split one device's samples into its rows of the stacks.

        :func:`train_test_split_client` writing in place: the same
        ``rng.permutation`` draw at the same stream position, and the
        client's views read the same bytes ``X[order[n_test:]]`` /
        ``X[order[:n_test]]`` that function would have gathered.
        ``X=None`` says the inputs already lie in :meth:`staging` order;
        they are permuted where they are.
        """
        test, train = self._slots(client_id)
        n_test = test.stop - test.start
        n = n_test + train.stop - train.start
        if len(y) != n or (X is not None and len(X) != n):
            raise ValueError(
                f"client {client_id} was allocated {n} samples, got "
                f"{len(y)} labels"
                + ("" if X is None else f" and {len(X)} inputs")
            )
        order = rng.permutation(n)
        sources = [(y, self.y)]
        if X is None:
            slots = np.concatenate(
                (np.arange(test.start, test.stop), np.arange(train.start, train.stop))
            )
            _permute_rows(self.x, slots, order)
        else:
            sources.append((X, self.x))
        for source, stack in sources:
            # mode="clip": the default "raise" gathers into a buffer of
            # its own and copies that out; the indices are valid.
            np.take(source, order[:n_test], axis=0, out=stack[test], mode="clip")
            np.take(source, order[n_test:], axis=0, out=stack[train], mode="clip")

    def stacked(self, split: str) -> Tuple[np.ndarray, np.ndarray]:
        """The store's own arrays: zero-copy, and current after edits."""
        return getattr(self, f"{split}_x"), getattr(self, f"{split}_y")

    def __getstate__(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "train_offsets": self.train_offsets,
            "test_offsets": self.test_offsets,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


class FederatedDataset:
    """A named collection of :class:`ClientData` backed by a client store.

    Per-client data lives behind a :class:`ClientStore`.  Constructing
    from a ``clients`` sequence (the historical signature) wraps it in the
    eager in-memory store — bit-identical to the pre-store behavior; the
    seeded builders pass the :class:`PackedClientStore` they filled;
    :meth:`from_store` attaches a lazily-materializing store
    (memory-mapped shards, on-demand synthetic regeneration) so
    million-device federations cost O(active cohort) memory.

    Parameters
    ----------
    name:
        Dataset name (used in experiment output).
    clients:
        Per-device data (eager path; mutually exclusive with ``store``).
    num_classes:
        Number of label classes across the federation.
    input_dim:
        Feature width for vector inputs, or sequence length for integer
        token inputs (informational).
    store:
        A prebuilt client store (lazy path; keyword-only).

    Attributes
    ----------
    recipe:
        ``{"builder": name, **arguments}``, set by a registered builder
        (:func:`repro.spec.register`) that made this federation from
        scalars alone; ``None`` when a run ledger cannot rebuild it by name
        (caller-owned arrays or files, a builder fed a caller-owned ``rng``).
    """

    def __init__(
        self,
        name: str,
        clients: Optional[Sequence[ClientData]] = None,
        num_classes: int = 0,
        input_dim: Optional[int] = None,
        *,
        store=None,
    ) -> None:
        if (clients is None) == (store is None):
            raise ValueError(
                "pass exactly one of clients= or store= to FederatedDataset"
            )
        if store is None:
            if not clients:
                raise ValueError(
                    "a federated dataset needs at least one client"
                )
            store = EagerClientStore(clients)
        elif len(store) == 0:
            raise ValueError("a federated dataset needs at least one client")
        self.name = name
        self.store = store
        self.num_classes = num_classes
        self.input_dim = input_dim
        self.recipe: Optional[Dict[str, object]] = None

    @classmethod
    def from_store(
        cls,
        name: str,
        store,
        num_classes: int,
        input_dim: Optional[int] = None,
    ) -> "FederatedDataset":
        """Build a dataset over a prebuilt :class:`ClientStore`."""
        return cls(
            name, num_classes=num_classes, input_dim=input_dim, store=store
        )

    @property
    def is_lazy(self) -> bool:
        """Whether client access may materialize data on demand."""
        return bool(getattr(self.store, "lazy", False))

    @property
    def clients(self) -> Sequence[ClientData]:
        """Sequence view of per-device data.

        For the eager store this is the actual in-memory list (the
        historical attribute); for lazy stores it is the store itself —
        indexing materializes one client, and forcing it with ``list()``
        materializes the whole federation (avoid on large stores).
        """
        if isinstance(self.store, EagerClientStore):
            return self.store.clients
        return self.store

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[ClientData]:
        return iter(self.store)

    def __getitem__(self, index: int) -> ClientData:
        return self.store[index]

    @property
    def num_devices(self) -> int:
        """Number of devices in the federation."""
        return len(self.store)

    @property
    def train_sizes(self) -> np.ndarray:
        """Per-device training sample counts ``n_k`` (store metadata)."""
        return self.store.train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        """Per-device held-out sample counts (store metadata)."""
        return self.store.test_sizes

    @property
    def total_train_samples(self) -> int:
        """Total training samples across the federation (the paper's ``n``)."""
        return int(self.train_sizes.sum())

    def sample_fractions(self) -> np.ndarray:
        """The aggregation masses ``p_k = n_k / n`` from Equation 1."""
        sizes = self.train_sizes.astype(np.float64)
        return sizes / sizes.sum()

    def stats(self) -> DatasetStats:
        """Summary statistics in the format of the paper's Table 1.

        Table 1 reports totals over all samples (train + test); computed
        from store metadata, so it never materializes a client.
        """
        counts = (
            np.asarray(self.train_sizes, dtype=np.float64)
            + np.asarray(self.test_sizes, dtype=np.float64)
        )
        return DatasetStats(
            name=self.name,
            devices=self.num_devices,
            samples=int(counts.sum()),
            mean_samples_per_device=float(counts.mean()),
            stdev_samples_per_device=float(counts.std(ddof=1)) if len(counts) > 1 else 0.0,
        )

    def global_train(self) -> tuple:
        """All devices' training data as one ``(X, y)`` (centralized baselines).

        The store's stacked split (:meth:`ClientStore.stacked`): a packed
        store's own arrays, otherwise a kept concatenation that
        materializes every client — intended for eager-scale datasets.
        """
        return self.store.stacked("train")

    def global_test(self) -> tuple:
        """All devices' test data as one ``(X, y)`` (see :meth:`global_train`)."""
        if not self.test_sizes.sum():
            raise ValueError("no test data in this federated dataset")
        return self.store.stacked("test")


def train_test_split_client(
    client_id: int,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    test_fraction: float = 0.2,
) -> ClientData:
    """Split one device's samples into local train/test sets.

    The paper "randomly split[s] the data on each local device into an 80%
    training set and a 20% testing set".  At least one sample is always
    kept for training.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    n = len(y)
    order = rng.permutation(n)
    n_test = int(n * test_fraction)
    if n - n_test < 1:
        n_test = n - 1
    test_idx, train_idx = order[:n_test], order[n_test:]
    return ClientData(
        client_id=client_id,
        train_x=X[train_idx],
        train_y=y[train_idx],
        test_x=X[test_idx],
        test_y=y[test_idx],
    )
