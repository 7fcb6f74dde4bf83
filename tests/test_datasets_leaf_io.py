"""Tests for LEAF-format import/export."""

import json

import numpy as np
import pytest

from repro.datasets import load_leaf, make_synthetic, save_leaf


def _write_leaf(path, users):
    payload = {
        "users": list(users),
        "num_samples": [len(users[u]["y"]) for u in users],
        "user_data": users,
    }
    path.write_text(json.dumps(payload))
    return path


class TestLoadLeaf:
    def test_basic_load(self, tmp_path):
        train = _write_leaf(
            tmp_path / "train.json",
            {
                "u0": {"x": [[0.0, 1.0], [2.0, 3.0]], "y": [0, 1]},
                "u1": {"x": [[4.0, 5.0]], "y": [2]},
            },
        )
        ds = load_leaf(train, name="mini")
        assert ds.num_devices == 2
        assert ds.num_classes == 3
        assert ds[0].num_train == 2
        assert ds[1].num_train == 1
        np.testing.assert_array_equal(ds[1].train_x, [[4.0, 5.0]])

    def test_with_test_split(self, tmp_path):
        train = _write_leaf(
            tmp_path / "train.json",
            {"u0": {"x": [[1.0], [2.0]], "y": [0, 1]}},
        )
        test = _write_leaf(
            tmp_path / "test.json",
            {"u0": {"x": [[3.0]], "y": [1]}},
        )
        ds = load_leaf(train, test)
        assert ds[0].num_test == 1
        np.testing.assert_array_equal(ds[0].test_x, [[3.0]])

    def test_user_missing_from_test_gets_empty(self, tmp_path):
        train = _write_leaf(
            tmp_path / "train.json",
            {
                "u0": {"x": [[1.0]], "y": [0]},
                "u1": {"x": [[2.0]], "y": [1]},
            },
        )
        test = _write_leaf(
            tmp_path / "test.json", {"u0": {"x": [[9.0]], "y": [0]}}
        )
        ds = load_leaf(train, test)
        assert ds[1].num_test == 0

    def test_integer_dtype_for_tokens(self, tmp_path):
        train = _write_leaf(
            tmp_path / "train.json",
            {"u0": {"x": [[1, 2, 3], [4, 5, 6]], "y": [0, 1]}},
        )
        ds = load_leaf(train, x_dtype=np.int64)
        assert np.issubdtype(ds[0].train_x.dtype, np.integer)

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_samples": [], "user_data": {}},  # missing users
            {"users": ["u0"], "num_samples": [], "user_data": {}},  # mismatch
            {"users": ["u0"], "num_samples": [1], "user_data": {}},  # no entry
            {
                "users": ["u0"],
                "num_samples": [1],
                "user_data": {"u0": {"x": [[1.0]]}},  # missing y
            },
            {
                "users": ["u0"],
                "num_samples": [1],
                "user_data": {"u0": {"x": [[1.0], [2.0]], "y": [0]}},  # x/y
            },
        ],
    )
    def test_malformed_payloads_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_leaf(path)


class TestSaveLeaf:
    def test_roundtrip(self, tmp_path):
        original = make_synthetic(0.5, 0.5, num_devices=4, seed=0, size_cap=40)
        save_leaf(original, tmp_path / "train.json", tmp_path / "test.json")
        restored = load_leaf(tmp_path / "train.json", tmp_path / "test.json")

        assert restored.num_devices == original.num_devices
        for a, b in zip(original, restored):
            np.testing.assert_allclose(a.train_x, b.train_x)
            np.testing.assert_array_equal(a.train_y, b.train_y)
            np.testing.assert_allclose(a.test_x, b.test_x)

    def test_leaf_naming_convention(self, tmp_path):
        ds = make_synthetic(0.0, 0.0, num_devices=3, seed=0, size_cap=30)
        save_leaf(ds, tmp_path / "train.json")
        payload = json.loads((tmp_path / "train.json").read_text())
        assert payload["users"] == ["f_00000", "f_00001", "f_00002"]
        assert payload["num_samples"] == [c.num_train for c in ds]

    def test_export_is_valid_leaf(self, tmp_path):
        """Whatever we write must pass our own validation on reload."""
        ds = make_synthetic(1.0, 1.0, num_devices=3, seed=1, size_cap=30)
        save_leaf(ds, tmp_path / "train.json", tmp_path / "test.json")
        load_leaf(tmp_path / "train.json", tmp_path / "test.json")  # no raise

    def test_trains_after_import(self, tmp_path):
        from repro.core import FederatedTrainer
        from repro.models import MultinomialLogisticRegression
        from repro.optim import SGDSolver

        ds = make_synthetic(1.0, 1.0, num_devices=6, seed=2, size_cap=60)
        save_leaf(ds, tmp_path / "train.json", tmp_path / "test.json")
        loaded = load_leaf(tmp_path / "train.json", tmp_path / "test.json")

        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        history = FederatedTrainer(
            loaded, model, SGDSolver(0.01, batch_size=10), mu=1.0,
            clients_per_round=3, epochs=3, seed=0,
        ).run(5)
        assert history.final_train_loss() < history.train_losses[0]


class TestLoadLeafIsPacked:
    """``load_leaf`` builds the one copy of the federation, like every builder."""

    def _pair(self, tmp_path):
        train = _write_leaf(
            tmp_path / "train.json",
            {
                "u0": {"x": [[0.5, 1.0], [2.0, 3.0]], "y": [0, 1]},
                "u1": {"x": [[4.0, 5.0]], "y": [2]},
                "u2": {"x": [[6.0, 7.0], [8.0, 9.0], [1.0, 1.0]], "y": [1, 1, 0]},
            },
        )
        test = _write_leaf(
            tmp_path / "test.json",
            {
                "u0": {"x": [[3.0, 3.0]], "y": [1]},
                "u2": {"x": [[2.0, 2.0], [4.0, 4.0]], "y": [0, 2]},
            },
        )
        return train, test

    def test_clients_are_views_of_the_stacks(self, tmp_path):
        from repro.datasets.federated import PackedClientStore

        ds = load_leaf(*self._pair(tmp_path), x_dtype=np.float32)
        store = ds.store
        assert isinstance(store, PackedClientStore)
        assert store.x.dtype == np.float32
        assert store.train_offsets.tolist() == [0, 2, 3, 6]
        assert store.test_offsets.tolist() == [0, 1, 1, 3]
        assert (ds.num_classes, ds.input_dim) == (3, 2)
        for client in ds:
            assert np.shares_memory(client.train_x, store.stacked("train")[0])
            assert np.shares_memory(client.train_y, store.stacked("train")[1])
        # The train-only user keeps empty test views of the right width.
        assert ds[1].test_x.shape == (0, 2) and ds[1].test_y.shape == (0,)
        np.testing.assert_array_equal(ds[2].test_x, [[2.0, 2.0], [4.0, 4.0]])
        np.testing.assert_array_equal(ds[2].test_y, [0, 2])

    def test_stacked_census_reads_the_store_in_place(self, tmp_path):
        from repro.core.client import ClientPool
        from repro.models import MultinomialLogisticRegression
        from repro.optim import SGDSolver
        from repro.runtime.evaluation import FederationEvaluator

        ds = load_leaf(*self._pair(tmp_path))
        model = MultinomialLogisticRegression(dim=2, num_classes=3, init_scale=0.5)
        pool = ClientPool(ds, model, SGDSolver(0.1, batch_size=2))
        stacked = FederationEvaluator(pool, model, "stacked")
        per_client = FederationEvaluator(pool, model, "per_client")
        assert stacked.stack_in_place("train")[0] is ds.store.train_x
        w = model.get_params()
        assert stacked.train_loss(w) == pytest.approx(per_client.train_loss(w), rel=1e-12)
        assert stacked.test_accuracy(w) == per_client.test_accuracy(w)

    def test_save_of_a_load_round_trips_byte_equal(self, tmp_path):
        original = make_synthetic(1.0, 1.0, num_devices=4, seed=3, size_cap=40)
        first = (tmp_path / "a_train.json", tmp_path / "a_test.json")
        second = (tmp_path / "b_train.json", tmp_path / "b_test.json")
        save_leaf(original, *first)
        save_leaf(load_leaf(*first), *second)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
