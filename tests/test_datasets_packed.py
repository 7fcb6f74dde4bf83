"""The packed federation: one copy of the bytes, bit-equal to the old builders.

Three kinds of certificate for :class:`~repro.datasets.PackedClientStore`
and the builders that fill it:

* **Frozen-builder oracle.**  The loop bodies the seeded builders had when
  each device was generated whole, split with ``train_test_split_client``
  and appended to a list are kept below, verbatim; every client the
  packing builders produce must be ``array_equal`` to them, dtype and
  shape included, and a caller-owned generator must be left in the same
  state.  That equality leans on ``Generator.normal`` filling row-major
  from one stream (a device drawn in row blocks is the same numbers), an
  assumption about NumPy that is pinned here by name and that CI also
  runs on the oldest supported NumPy.
* **Frozen-evaluator oracle.**  The concatenating body of the stacked
  census is kept below too; a census over the store's own arrays must
  return ``==`` values.
* **Memory guards.**  Building never holds a second copy (nor a whole
  large device in float64), a census allocates no more than its blocks,
  every client aliases its stack, and a pickle carries the stacks once.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.core.client import ClientPool
from repro.datasets import (
    ClientData,
    FederatedDataset,
    MmapShardStore,
    OnDemandSyntheticStore,
    PackedClientStore,
    federate_arrays,
    from_arrays,
    images,
    make_femnist_like,
    make_mnist_like,
    make_sent140_like,
    make_shakespeare_like,
    make_synthetic,
    make_synthetic_iid,
    synthetic,
    text,
)
from repro.datasets.images import GENERATION_BLOCK_ROWS
from repro.models import CharLSTM, MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import ParallelExecutor
from repro.runtime.evaluation import (
    STACKED_EVAL_BLOCK,
    FederationEvaluator,
    no_test_samples_error,
)
from repro.telemetry import history_digest
from tests.conftest import make_pool

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

PARTS = ("train_x", "train_y", "test_x", "test_y")
SEEDS = (0, 1, 2)
TEST_FRACTIONS = (0.0, 0.2, 0.5)
#: Device sizes the sweeps force: one and two samples (the split's clamp),
#: a few around the 80/20 rounding, and devices longer than one generation
#: block (one of them a whole number of blocks).
FORCED_SIZES = np.array(
    [1, 2, 3, 5, 40, GENERATION_BLOCK_ROWS + 37, 9, 2 * GENERATION_BLOCK_ROWS, 1]
)


# --------------------------------------------------------------------- #
# Frozen references: the builders' bodies before they packed
# --------------------------------------------------------------------- #
def _frozen_split(client_id, X, y, rng, test_fraction=0.2):
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


def _frozen_prototype_images(
    num_devices, num_classes, classes_per_device, total_samples, dim=784,
    noise=0.35, prototypes_per_class=3, style_mix=0.5, rng=None, seed=0,
    test_fraction=0.2, power_law_alpha=1.5, min_samples=8,
):
    side = int(np.sqrt(dim))
    rng = rng if rng is not None else np.random.default_rng(seed)
    class_patterns = np.stack(
        [images._smooth_prototype(rng, side) for _ in range(num_classes)]
    )
    prototypes = np.empty((num_classes, prototypes_per_class, dim))
    for c in range(num_classes):
        for s in range(prototypes_per_class):
            style = images._smooth_prototype(rng, side)
            prototypes[c, s] = np.clip(
                (1.0 - style_mix) * class_patterns[c] + style_mix * style,
                0.0,
                1.0,
            )
    sizes = images.power_law_sizes(
        rng, num_devices, total_samples, alpha=power_law_alpha, minimum=min_samples
    )
    class_sets = images.assign_classes_per_device(
        rng, num_devices, num_classes, classes_per_device
    )

    clients = []
    for k in range(num_devices):
        allowed = class_sets[k]
        y = rng.choice(allowed, size=sizes[k])
        styles = rng.integers(prototypes_per_class, size=sizes[k])
        X = prototypes[y, styles] + rng.normal(0.0, noise, size=(sizes[k], dim))
        X = np.clip(X, 0.0, 1.0).astype(np.float32)
        clients.append(_frozen_split(k, X, y, rng, test_fraction=test_fraction))
    return clients


def _frozen_synthetic(
    alpha, beta, num_devices=30, rng=None, seed=0, test_fraction=0.2,
    size_cap=1000, min_samples=50,
):
    rng = rng if rng is not None else np.random.default_rng(seed)
    sizes = synthetic.lognormal_sizes(
        rng, num_devices, minimum=min_samples, cap=size_cap
    )
    cov_diag = synthetic._input_covariance_diag()

    clients = []
    for k in range(num_devices):
        u_k = rng.normal(0.0, np.sqrt(alpha)) if alpha > 0 else 0.0
        B_k = rng.normal(0.0, np.sqrt(beta)) if beta > 0 else 0.0
        W_k = rng.normal(u_k, 1.0, size=(synthetic.NUM_FEATURES, synthetic.NUM_CLASSES))
        b_k = rng.normal(u_k, 1.0, size=synthetic.NUM_CLASSES)
        v_k = rng.normal(B_k, 1.0, size=synthetic.NUM_FEATURES)
        X = rng.normal(
            loc=v_k, scale=np.sqrt(cov_diag), size=(sizes[k], synthetic.NUM_FEATURES)
        )
        y = synthetic._softmax_labels(X, W_k, b_k)
        clients.append(_frozen_split(k, X, y, rng, test_fraction=test_fraction))
    return clients


def _frozen_synthetic_iid(
    num_devices=30, rng=None, seed=0, test_fraction=0.2, size_cap=1000,
    min_samples=50,
):
    rng = rng if rng is not None else np.random.default_rng(seed)
    sizes = synthetic.lognormal_sizes(
        rng, num_devices, minimum=min_samples, cap=size_cap
    )
    cov_diag = synthetic._input_covariance_diag()
    W = rng.normal(0.0, 1.0, size=(synthetic.NUM_FEATURES, synthetic.NUM_CLASSES))
    b = rng.normal(0.0, 1.0, size=synthetic.NUM_CLASSES)

    clients = []
    for k in range(num_devices):
        X = rng.normal(
            loc=0.0, scale=np.sqrt(cov_diag), size=(sizes[k], synthetic.NUM_FEATURES)
        )
        y = synthetic._softmax_labels(X, W, b)
        clients.append(_frozen_split(k, X, y, rng, test_fraction=test_fraction))
    return clients


def _frozen_shakespeare_like(
    num_devices=24, vocab_size=80, seq_len=20, samples_per_device_mean=60.0,
    dialect_weight=0.5, rng=None, seed=0, test_fraction=0.2,
):
    rng = rng if rng is not None else np.random.default_rng(seed)
    shared = text._random_stochastic_matrix(rng, vocab_size)
    raw = rng.lognormal(0.0, 0.8, size=num_devices)
    sizes = np.maximum((raw / raw.mean() * samples_per_device_mean).astype(int), 10)

    clients = []
    for k in range(num_devices):
        dialect = text._random_stochastic_matrix(rng, vocab_size)
        transitions = (1.0 - dialect_weight) * shared + dialect_weight * dialect
        stream = text._sample_markov_stream(rng, transitions, sizes[k] + seq_len)
        windows = np.lib.stride_tricks.sliding_window_view(stream, seq_len)[
            : sizes[k]
        ].copy()
        labels = stream[seq_len : seq_len + sizes[k]].copy()
        clients.append(
            _frozen_split(k, windows, labels, rng, test_fraction=test_fraction)
        )
    return clients


def _frozen_sent140_like(
    num_devices=30, vocab_size=400, seq_len=25, samples_per_device_mean=53.0,
    samples_per_device_stdev=32.0, sentiment_strength=0.5,
    label_prior_concentration=0.7, rng=None, seed=0, test_fraction=0.2,
):
    rng = rng if rng is not None else np.random.default_rng(seed)
    eighth = vocab_size // 8
    pos_lexicon = np.arange(0, eighth)
    neg_lexicon = np.arange(eighth, 2 * eighth)
    neutral = np.arange(2 * eighth, vocab_size)
    sizes = np.maximum(
        rng.normal(samples_per_device_mean, samples_per_device_stdev, num_devices)
        .round()
        .astype(int),
        10,
    )

    clients = []
    for k in range(num_devices):
        positive_rate = rng.beta(label_prior_concentration, label_prior_concentration)
        neutral_pref = rng.dirichlet(np.full(len(neutral), 0.3))
        y = (rng.random(sizes[k]) < positive_rate).astype(np.int64)

        use_lexicon = rng.random((sizes[k], seq_len)) < sentiment_strength
        lexicon_pos = rng.choice(pos_lexicon, size=(sizes[k], seq_len))
        lexicon_neg = rng.choice(neg_lexicon, size=(sizes[k], seq_len))
        lexicon_tokens = np.where(y[:, None] == 1, lexicon_pos, lexicon_neg)
        neutral_tokens = rng.choice(neutral, size=(sizes[k], seq_len), p=neutral_pref)
        X = np.where(use_lexicon, lexicon_tokens, neutral_tokens)

        clients.append(_frozen_split(k, X, y, rng, test_fraction=test_fraction))
    return clients


def _frozen_federate_arrays(
    X, y, num_devices, scheme="iid", classes_per_device=None,
    power_law_alpha=1.5, test_fraction=0.2, seed=0,
):
    X = np.asarray(X)
    y = np.asarray(y)
    num_classes = int(y.max()) + 1
    rng = np.random.default_rng(seed)
    if scheme == "iid":
        parts = from_arrays.iid_partition(rng, len(y), num_devices)
    elif scheme == "power_law":
        sizes = from_arrays.power_law_sizes(
            rng, num_devices, total_samples=len(y), alpha=power_law_alpha,
            minimum=max(2, int(1 / max(test_fraction, 0.01)) + 1),
        )
        order = rng.permutation(len(y))
        parts = []
        offset = 0
        for size in sizes:
            parts.append(np.sort(order[offset : offset + size]))
            offset += size
    else:
        parts = from_arrays._label_skew_partition(
            rng, y, num_devices, num_classes, classes_per_device
        )

    clients = []
    for device_id, indices in enumerate(parts):
        clients.append(
            _frozen_split(
                device_id, X[indices], y[indices], rng,
                test_fraction=test_fraction,
            )
        )
    return clients


def _frozen_train_loss(clients, model, w, block_size):
    """The stacked train loss while the evaluator concatenated its own copy."""
    X = np.concatenate([c.train_x for c in clients])
    y = np.concatenate([c.train_y for c in clients])
    model.set_params(w)
    total = 0.0
    for lo in range(0, len(y), block_size):
        hi = min(lo + block_size, len(y))
        total += float(model.loss(X[lo:hi], y[lo:hi])) * (hi - lo)
    return total / len(y)


def _frozen_test_accuracy(clients, model, w, block_size, label=""):
    """Its test-accuracy half, zero-test clients left out as it did."""
    xs = [c.test_x for c in clients if c.num_test > 0]
    ys = [c.test_y for c in clients if c.num_test > 0]
    if not xs:
        raise no_test_samples_error(label)
    X, y = np.concatenate(xs), np.concatenate(ys)
    model.set_params(w)
    correct = 0
    for lo in range(0, len(y), block_size):
        hi = min(lo + block_size, len(y))
        correct += int(np.sum(model.predict(X[lo:hi]) == y[lo:hi]))
    return correct / len(y)


def _frozen_census(clients, model, w, block_size):
    return (
        _frozen_train_loss(clients, model, w, block_size),
        _frozen_test_accuracy(clients, model, w, block_size),
    )


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def assert_same_clients(dataset, reference):
    assert len(dataset) == len(reference)
    for got, want in zip(dataset, reference):
        assert got.client_id == want.client_id
        for part in PARTS:
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype, (got.client_id, part)
            assert a.shape == b.shape, (got.client_id, part)
            assert np.array_equal(a, b), (got.client_id, part)


def data_bytes(dataset) -> int:
    return sum(getattr(c, part).nbytes for c in dataset for part in PARTS)


def force_sizes(monkeypatch, module, name):
    """Make ``module.name`` draw as usual, then answer ``FORCED_SIZES``."""
    real = getattr(module, name)

    def forced(rng, num_devices, *args, **kwargs):
        real(rng, num_devices, *args, **kwargs)  # same stream position
        assert num_devices == len(FORCED_SIZES)
        return FORCED_SIZES.copy()

    monkeypatch.setattr(module, name, forced)


IMAGE_KW = dict(num_devices=14, total_samples=1500, dim=16, min_samples=2)


# --------------------------------------------------------------------- #
# The NumPy assumption, by name
# --------------------------------------------------------------------- #
class TestRowChunkedNormalIsTheSameDraw:
    """``Generator.normal`` fills its output row-major from one stream."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_loc_and_scale(self, seed):
        n, d = 1300, 7
        whole = np.random.default_rng(seed)
        parts = np.random.default_rng(seed)
        expected = whole.normal(0.0, 0.35, size=(n, d))
        chunks = [
            parts.normal(0.0, 0.35, size=(min(lo + 512, n) - lo, d))
            for lo in range(0, n, 512)
        ]
        assert np.array_equal(np.concatenate(chunks), expected)
        assert whole.bit_generator.state == parts.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcast_loc_and_scale(self, seed):
        """The form ``make_synthetic`` draws its inputs with."""
        n, d = 700, 60
        loc = np.random.default_rng(99).normal(size=d)
        scale = np.sqrt(synthetic._input_covariance_diag())
        whole = np.random.default_rng(seed)
        parts = np.random.default_rng(seed)
        expected = whole.normal(loc=loc, scale=scale, size=(n, d))
        chunks = [
            parts.normal(loc=loc, scale=scale, size=(min(lo + 256, n) - lo, d))
            for lo in range(0, n, 256)
        ]
        assert np.array_equal(np.concatenate(chunks), expected)
        assert whole.bit_generator.state == parts.bit_generator.state


# --------------------------------------------------------------------- #
# Frozen-builder oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("test_fraction", TEST_FRACTIONS)
@pytest.mark.parametrize("seed", SEEDS)
class TestBuildersMatchFrozenBodies:
    def test_prototype_images(self, seed, test_fraction):
        for make, classes_per_device in ((make_mnist_like, 2), (make_femnist_like, 5)):
            dataset = make(seed=seed, test_fraction=test_fraction, **IMAGE_KW)
            assert_same_clients(
                dataset,
                _frozen_prototype_images(
                    num_classes=10, classes_per_device=classes_per_device,
                    seed=seed, test_fraction=test_fraction, **IMAGE_KW,
                ),
            )

    def test_prototype_images_forced_sizes(self, seed, test_fraction, monkeypatch):
        force_sizes(monkeypatch, images, "power_law_sizes")
        kw = dict(IMAGE_KW, num_devices=len(FORCED_SIZES), total_samples=10_000)
        dataset = make_mnist_like(seed=seed, test_fraction=test_fraction, **kw)
        assert sorted(dataset.train_sizes + dataset.test_sizes) == sorted(FORCED_SIZES)
        assert_same_clients(
            dataset,
            _frozen_prototype_images(
                num_classes=10, classes_per_device=2,
                seed=seed, test_fraction=test_fraction, **kw,
            ),
        )

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 1.0)])
    def test_synthetic(self, seed, test_fraction, alpha, beta):
        kw = dict(num_devices=9, seed=seed, test_fraction=test_fraction, size_cap=300)
        assert_same_clients(
            make_synthetic(alpha, beta, **kw), _frozen_synthetic(alpha, beta, **kw)
        )
        assert_same_clients(make_synthetic_iid(**kw), _frozen_synthetic_iid(**kw))

    def test_synthetic_forced_sizes(self, seed, test_fraction, monkeypatch):
        force_sizes(monkeypatch, synthetic, "lognormal_sizes")
        kw = dict(num_devices=len(FORCED_SIZES), seed=seed, test_fraction=test_fraction)
        assert_same_clients(
            make_synthetic(0.5, 0.5, **kw), _frozen_synthetic(0.5, 0.5, **kw)
        )
        assert_same_clients(make_synthetic_iid(**kw), _frozen_synthetic_iid(**kw))

    def test_text(self, seed, test_fraction):
        kw = dict(num_devices=7, seed=seed, test_fraction=test_fraction)
        assert_same_clients(
            make_shakespeare_like(vocab_size=30, seq_len=12, **kw),
            _frozen_shakespeare_like(vocab_size=30, seq_len=12, **kw),
        )
        assert_same_clients(
            make_sent140_like(vocab_size=64, seq_len=9, **kw),
            _frozen_sent140_like(vocab_size=64, seq_len=9, **kw),
        )

    @pytest.mark.parametrize(
        "scheme,extra,n",
        [
            ("iid", {}, 13),  # 12 devices over 13 samples: sizes 1 and 2
            ("iid", {}, 900),
            ("power_law", {}, 2600),
            ("label_skew", {"classes_per_device": 2}, 900),
        ],
    )
    def test_federate_arrays(self, seed, test_fraction, scheme, extra, n):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(n, 3, 2)).astype(np.float32)
        y = rng.integers(0, 5, size=n).astype(np.int32)
        kw = dict(scheme=scheme, seed=seed, test_fraction=test_fraction, **extra)
        assert_same_clients(
            federate_arrays(X, y, 12, **kw), _frozen_federate_arrays(X, y, 12, **kw)
        )


@pytest.mark.parametrize(
    "build,frozen,kwargs",
    [
        (
            lambda **kw: make_mnist_like(**IMAGE_KW, **kw),
            lambda **kw: _frozen_prototype_images(
                num_classes=10, classes_per_device=2, **IMAGE_KW, **kw
            ),
            {},
        ),
        (make_synthetic, _frozen_synthetic, dict(alpha=1.0, beta=1.0, num_devices=6)),
        (make_synthetic_iid, _frozen_synthetic_iid, dict(num_devices=6)),
        (make_shakespeare_like, _frozen_shakespeare_like, dict(num_devices=5)),
        (make_sent140_like, _frozen_sent140_like, dict(num_devices=5)),
    ],
    ids=["images", "synthetic", "synthetic_iid", "shakespeare", "sent140"],
)
def test_caller_owned_rng_is_left_where_the_frozen_builder_left_it(
    build, frozen, kwargs
):
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    ours.random(3), theirs.random(3)  # a generator already in use
    dataset = build(rng=ours, **kwargs)
    assert_same_clients(dataset, frozen(rng=theirs, **kwargs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert dataset.recipe is None  # not a function of scalars


class TestPlace:
    """``place`` is ``train_test_split_client`` writing into the stacks."""

    @pytest.mark.parametrize("staged", [False, True], ids=["given", "staged"])
    @pytest.mark.parametrize("test_fraction", TEST_FRACTIONS + (0.9,))
    def test_matches_the_split_at_every_size(self, test_fraction, staged):
        sizes = [1, 2, 3, 4, 5, 10, 511, 512, 513, 1700]
        store = PackedClientStore.allocate(
            sizes, test_fraction, (3,), np.float32, np.int16
        )
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        data = np.random.default_rng(0)
        for k, n in enumerate(sizes):
            X = data.normal(size=(n, 3)).astype(np.float32)
            y = data.integers(0, 9, size=n).astype(np.int16)
            if staged:
                test_rows, train_rows = store.staging(k)
                test_rows[:] = X[: len(test_rows)]
                train_rows[:] = X[len(test_rows) :]
            store.place(k, None if staged else X, y, ours)
            want = _frozen_split(k, X, y, theirs, test_fraction=test_fraction)
            assert_same_clients([store.get(k)], [want])
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_rejects_a_device_of_another_size(self):
        store = PackedClientStore.allocate([4, 6], 0.2, (2,), np.float64, np.int64)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="allocated 4 samples"):
            store.place(0, np.zeros((5, 2)), np.zeros(5, dtype=np.int64), rng)
        with pytest.raises(ValueError, match="allocated 6 samples"):
            store.place(1, None, np.zeros(4, dtype=np.int64), rng)

    def test_allocate_validates_like_the_split(self):
        with pytest.raises(ValueError, match=r"test_fraction must be in \[0, 1\)"):
            PackedClientStore.allocate([4], 1.0, (2,), np.float64, np.int64)
        with pytest.raises(ValueError, match="at least one"):
            PackedClientStore.allocate([], 0.2, (2,), np.float64, np.int64)
        with pytest.raises(ValueError, match="at least one"):
            PackedClientStore.allocate([3, 0], 0.2, (2,), np.float64, np.int64)

    def test_builders_reject_a_bad_test_fraction(self):
        with pytest.raises(ValueError, match="test_fraction"):
            make_synthetic(1.0, 1.0, num_devices=3, test_fraction=1.0)
        with pytest.raises(ValueError, match="test_fraction"):
            make_mnist_like(test_fraction=-0.1, **IMAGE_KW)


# --------------------------------------------------------------------- #
# Who owns the bytes
# --------------------------------------------------------------------- #
def _packed_datasets():
    return [
        make_mnist_like(seed=0, **IMAGE_KW),
        make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80),
        make_shakespeare_like(num_devices=5, vocab_size=20, seq_len=8, seed=1),
        federate_arrays(
            np.arange(600.0).reshape(200, 3), np.arange(200) % 4, 7, seed=2
        ),
    ]


def assert_clients_are_views(dataset):
    store = dataset.store
    assert isinstance(store, PackedClientStore)
    assert dataset.clients is store.clients
    for k, client in enumerate(dataset):
        for part in PARTS:
            array, stack = getattr(client, part), getattr(store, part)
            assert array.base is not None
            if len(array):
                assert np.shares_memory(array, stack), (k, part)
        if k:
            for part in PARTS:
                assert not np.shares_memory(
                    getattr(client, part), getattr(dataset[k - 1], part)
                ), (k, part)
    # The stacks are the clients' rows in client order, nothing else.
    for part in PARTS:
        joined = np.concatenate([getattr(c, part) for c in dataset])
        assert np.array_equal(joined, getattr(store, part))


class TestOneCopy:
    @pytest.mark.parametrize("index", range(4))
    def test_every_client_is_a_view_of_its_stack(self, index):
        assert_clients_are_views(_packed_datasets()[index])

    def test_global_splits_are_the_stacks_themselves(self):
        dataset = make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80)
        X, y = dataset.store.stacked("train")
        assert X is dataset.store.train_x and y is dataset.store.train_y
        X, y = dataset.store.stacked("test")
        assert X is dataset.store.test_x and y is dataset.store.test_y
        no_test = make_synthetic(1.0, 1.0, num_devices=3, test_fraction=0.0)
        assert [len(a) for a in no_test.store.stacked("test")] == [0, 0]

    def test_building_never_holds_a_second_copy(self):
        """Nor a whole large device: the largest here is 16 254 rows, 51 MB
        in float32 and 102 MB in float64, against 16 MB of headroom."""
        kw = dict(num_devices=100, total_samples=40_000)
        tracemalloc.start()
        try:
            dataset = make_mnist_like(**kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (dataset.train_sizes + dataset.test_sizes).max() > 16_000
        assert peak <= data_bytes(dataset) + 16 * 2**20

    def test_synthetic_build_holds_one_device_block(self):
        """The Synthetic builders draw every device into one scratch block
        sized by the largest device (17 086 rows here, 8.2 MB of float64
        inputs), which lives for the whole build: it must be the only
        per-device buffer, with room beside it for the labels' scores."""
        tracemalloc.start()
        try:
            dataset = make_synthetic(1.0, 1.0, num_devices=200, size_cap=None, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = (dataset.train_sizes + dataset.test_sizes).max()
        assert largest >= 10_000
        inputs = largest * dataset.input_dim * 8
        assert peak <= data_bytes(dataset) + 2 * inputs + 2**20

    def test_first_census_allocates_blocks_not_a_stack(self):
        dataset = make_mnist_like(num_devices=40, total_samples=20_000, dim=64)
        model = MultinomialLogisticRegression(dim=64, num_classes=10)
        pool = ClientPool(dataset, model, SGDSolver(0.1, batch_size=10))
        block = 256
        evaluator = FederationEvaluator(pool, model, "stacked", block_size=block)
        w = model.get_params()
        tracemalloc.start()
        try:
            evaluator.train_loss(w)
            evaluator.test_accuracy(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = block * 64 * 8  # one block of inputs as float64
        assert dataset.store.train_x.nbytes > 30 * block_bytes
        assert peak < 4 * block_bytes

    def test_a_callers_list_is_packed_once(self, toy_dataset):
        clients = [toy_dataset[k] for k in (4, 1, 3)]
        dataset = FederatedDataset("mine", clients, num_classes=3, input_dim=6)
        assert_clients_are_views(dataset)
        assert [c.client_id for c in dataset] == [0, 1, 2]
        for mine, given in zip(dataset, clients):
            for part in PARTS:
                array = getattr(mine, part)
                assert np.array_equal(array, getattr(given, part))
                assert array.dtype == getattr(given, part).dtype
                assert not np.shares_memory(array, toy_dataset.store.x)

    def test_a_reordered_federation_trains_as_its_rows_packed(self):
        """The regression: a re-ordered list kept its clients' old ids, and
        aggregation indexed the 3-device federation with id 9."""
        source = make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=80)
        picked = [source[5], source[9], source[2]]
        splits = [(c.train_x, c.train_y) for c in picked]
        splits += [(c.test_x, c.test_y) for c in picked]
        by_hand = PackedClientStore(
            np.concatenate([x for x, _ in splits]),
            np.concatenate([y for _, y in splits]),
            np.cumsum([0] + [c.num_train for c in picked]),
            np.cumsum([0] + [c.num_test for c in picked]),
        )
        runs = []
        for dataset in (
            FederatedDataset("picked", picked, num_classes=10, input_dim=60),
            FederatedDataset("packed", num_classes=10, input_dim=60, store=by_hand),
        ):
            model = MultinomialLogisticRegression(dim=60, num_classes=10)
            with FederatedTrainer(dataset, model, SOLVER, clients_per_round=2, seed=1) as trainer:
                history = trainer.run(2)
            runs.append((history_digest(history.records), trainer.w.tobytes()))
        assert runs[0] == runs[1]

    def test_clients_without_test_rows_pack(self):
        """Empty held-out arrays add no rows, whatever their shape and dtype."""
        rows = np.arange(12.0).reshape(6, 2)
        clients = [
            ClientData(7, rows[:3], np.arange(3), np.zeros(0), np.zeros(0)),
            ClientData(3, rows[3:5], np.arange(2), rows[5:], np.array([1])),
            ClientData(0, rows[:1], np.arange(1), np.zeros((0,)), np.zeros((0,), dtype=int)),
        ]
        store = PackedClientStore.from_clients(clients)
        assert [store.get(k).client_id for k in range(3)] == [0, 1, 2]
        assert store.train_sizes.tolist() == [3, 2, 1]
        assert store.test_sizes.tolist() == [0, 1, 0]
        assert store.x.shape == (7, 2) and store.y.dtype == np.arange(1).dtype
        assert np.array_equal(store.x, np.concatenate((rows[:5], rows[:1], rows[5:])))
        assert store.get(0).test_x.shape == (0, 2)
        X, y = store.stacked("test")
        assert np.array_equal(X, rows[5:]) and y.tolist() == [1]
        train_only = PackedClientStore.from_clients([clients[0], clients[2]])
        X, y = train_only.stacked("test")
        assert X.shape == (0, 2) and X.dtype == rows.dtype and y.dtype == store.y.dtype

    def test_constructor_checks_the_offsets(self):
        x, y = np.zeros((5, 2)), np.zeros(5, dtype=int)
        store = PackedClientStore(x, y, [0, 2, 4], [0, 1, 1])
        assert [c.num_train for c in store] == [2, 2]
        assert [c.num_test for c in store] == [1, 0]
        with pytest.raises(ValueError, match="rows"):
            PackedClientStore(x, y, [0, 2, 4], [0, 1, 2])
        with pytest.raises(ValueError, match="at least one client"):
            PackedClientStore(x[:0], y[:0], [0], [0])
        with pytest.raises(ValueError, match="no training samples"):
            PackedClientStore(x, y, [0, 4, 4], [0, 1, 1])


class TestTravelsAsItsStacks:
    @pytest.mark.parametrize("clone_of", [
        lambda ds: pickle.loads(pickle.dumps(ds)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("index", range(4))
    def test_clone_owns_one_copy(self, index, clone_of):
        dataset = _packed_datasets()[index]
        clone = clone_of(dataset)
        assert_clients_are_views(clone)
        assert_same_clients(clone, list(dataset))
        assert not np.shares_memory(clone.store.x, dataset.store.x)
        assert clone.recipe == dataset.recipe and clone.name == dataset.name
        np.testing.assert_array_equal(clone.train_sizes, dataset.train_sizes)
        np.testing.assert_array_equal(clone.test_sizes, dataset.test_sizes)

    def test_pickle_is_the_data_bytes(self):
        dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
        assert len(pickle.dumps(dataset)) < 1.02 * data_bytes(dataset)

    def test_concatenated_splits_stay_home(self):
        """A store that had to concatenate ships its clients, not the copy."""
        lazy = OnDemandSyntheticStore(1.0, 1.0, num_devices=5, seed=0)
        lazy.stacked("train")
        assert lazy._stacks
        assert len(pickle.dumps(lazy)) < 20_000
        assert not pickle.loads(pickle.dumps(lazy))._stacks
        assert not copy.deepcopy(lazy)._stacks

    @pytest.mark.slow
    def test_spawned_workers_reproduce_the_forked_history(self):
        digests = []
        for start_method in ("fork", "spawn"):
            with FederatedTrainer(
                dataset=make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80),
                model=MultinomialLogisticRegression(dim=60, num_classes=10),
                solver=SGDSolver(0.01, batch_size=10),
                mu=1.0, clients_per_round=4, epochs=2, seed=3,
                engine=ParallelExecutor(n_workers=2, start_method=start_method),
            ) as trainer:
                digests.append(history_digest(trainer.run(3).records))
        assert digests[0] == digests[1]


# --------------------------------------------------------------------- #
# The census reads the store
# --------------------------------------------------------------------- #
def _logistic(dataset):
    return MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )


def _census_cases():
    images_ds = make_mnist_like(seed=3, **dict(IMAGE_KW, total_samples=300))
    assert (images_ds.test_sizes == 0).any() and images_ds.test_sizes.any()
    chars = make_shakespeare_like(num_devices=5, vocab_size=20, seq_len=8, seed=1)
    return [
        (images_ds, _logistic(images_ds)),
        (make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80),
         MultinomialLogisticRegression(dim=60, num_classes=10)),
        (chars, CharLSTM(vocab_size=20, embed_dim=4, hidden=8, num_layers=1)),
    ]


def _weights(model, seed=0):
    return model.get_params() + 0.1 * np.random.default_rng(seed).normal(
        size=model.n_params
    )


SOLVER = SGDSolver(0.1, batch_size=10)


class TestCensusEquivalence:
    @pytest.mark.parametrize("block_size", [7, STACKED_EVAL_BLOCK, 10**6])
    @pytest.mark.parametrize("index", range(3))
    def test_packed_census_equals_the_concatenating_evaluator(self, index, block_size):
        dataset, model = _census_cases()[index]
        pool = ClientPool(dataset, model, SOLVER)
        evaluator = FederationEvaluator(pool, model, "stacked", block_size=block_size)
        assert evaluator._store is dataset.store
        per_client = FederationEvaluator(pool, model, "per_client")
        for seed in range(2):
            w = _weights(model, seed)
            loss, accuracy = _frozen_census(list(pool), model, w, block_size)
            assert evaluator.train_loss(w) == loss
            assert evaluator.test_accuracy(w) == accuracy
            assert loss == pytest.approx(per_client.train_loss(w), abs=1e-12)
            assert accuracy == per_client.test_accuracy(w)

    def test_no_test_rows_anywhere_raises_by_name(self):
        dataset = make_synthetic(1.0, 1.0, num_devices=4, test_fraction=0.0,
                                 size_cap=60, name="trainonly")
        model = _logistic(dataset)
        evaluator = FederationEvaluator(
            ClientPool(dataset, model, SOLVER), model, "stacked"
        )
        w = model.get_params()
        clients = list(dataset)
        assert evaluator.train_loss(w) == _frozen_train_loss(
            clients, model, w, STACKED_EVAL_BLOCK
        )
        with pytest.raises(ValueError, match="no test samples anywhere.*trainonly"):
            evaluator.test_accuracy(w)
        with pytest.raises(ValueError, match="no test samples anywhere.*trainonly"):
            _frozen_test_accuracy(clients, model, w, STACKED_EVAL_BLOCK, dataset.name)

    @pytest.mark.parametrize(
        "pick", [lambda cs: cs[:5], lambda cs: cs[::-1], lambda cs: cs[3:] + cs[:3]],
        ids=["sliced", "reversed", "rotated"],
    )
    def test_other_client_lists_are_concatenated(self, pick):
        dataset, model = _census_cases()[0]
        clients = pick(list(dataset))
        pool = make_pool(clients, model, SOLVER)
        evaluator = FederationEvaluator(pool, model, "stacked", block_size=64)
        assert evaluator._store is not dataset.store
        per_client = FederationEvaluator(pool, model, "per_client")
        w = _weights(model)
        loss, accuracy = _frozen_census(clients, model, w, 64)
        assert evaluator.train_loss(w) == loss
        assert evaluator.test_accuracy(w) == accuracy
        assert loss == pytest.approx(per_client.train_loss(w), abs=1e-12)
        assert accuracy == per_client.test_accuracy(w)
        X, _ = evaluator._store.stacked("train")
        assert not np.shares_memory(X, dataset.store.x)

    def test_lazy_store_under_explicit_stacked(self, tmp_path):
        source = make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80)
        store = MmapShardStore.pack(source, str(tmp_path / "shards"), clients_per_shard=3)
        lazy = FederatedDataset("lazy", num_classes=10, input_dim=60, store=store)
        model = _logistic(lazy)
        pool = ClientPool(lazy, model, SOLVER)
        evaluator = FederationEvaluator(pool, model, "stacked", block_size=100)
        w = _weights(model)
        loss, accuracy = _frozen_census(list(pool), model, w, 100)
        assert evaluator.train_loss(w) == loss
        assert evaluator.test_accuracy(w) == accuracy
        assert store.stacked("train")[0] is store.stacked("train")[0]

    def test_in_place_edits_reach_the_census(self):
        """The regression: the evaluator's own copy went stale after the
        first census while the solves read the edited labels."""
        dataset = make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80)
        model = _logistic(dataset)
        pool = ClientPool(dataset, model, SOLVER)
        stacked = FederationEvaluator(pool, model, "stacked")
        per_client = FederationEvaluator(pool, model, "per_client")
        w = _weights(model)
        before = stacked.train_loss(w)
        labels = dataset.clients[2].train_y
        labels[:] = (labels + 1) % dataset.num_classes
        after = stacked.train_loss(w)
        assert after != before
        assert after == pytest.approx(per_client.train_loss(w), abs=1e-12)
        assert after == _frozen_train_loss(list(pool), model, w, STACKED_EVAL_BLOCK)


class TestUnpackableInputs:
    def _dataset(self, second_x):
        first = ClientData(0, np.zeros((4, 3)), np.arange(4), np.zeros((2, 3)), np.arange(2))
        second = ClientData(
            1, second_x, np.arange(len(second_x)), second_x[:1], np.arange(1)
        )
        return FederatedDataset("ragged", [first, second], num_classes=5)

    def test_differing_feature_shapes_do_not_pack(self):
        with pytest.raises(ValueError, match="dimension"):
            self._dataset(np.ones((5, 2)))

    def test_differing_dtypes_promote_as_concatenate_does(self):
        dataset = self._dataset(np.ones((5, 3), dtype=np.float32))
        assert dataset[1].train_x.dtype == np.float64
        model = MultinomialLogisticRegression(dim=3, num_classes=5)
        pool = ClientPool(dataset, model, SOLVER)
        stacked = FederationEvaluator(pool, model, "stacked")
        w = _weights(model)
        loss, accuracy = _frozen_census(list(pool), model, w, STACKED_EVAL_BLOCK)
        assert stacked.train_loss(w) == loss
        assert stacked.test_accuracy(w) == accuracy
        assert dataset.store.stacked("train")[0].dtype == np.float64
