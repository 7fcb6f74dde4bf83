"""Tests for the Module base class and containers."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.nn import Dense, Module, ModuleList, Sequential


class TwoParam(Module):
    def __init__(self):
        super().__init__()
        self.a = Tensor(np.ones((2, 3)), requires_grad=True)
        self.b = Tensor(np.zeros(3), requires_grad=True)

    def forward(self, x):
        return ops.add(ops.matmul(x, self.a), self.b)


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = TwoParam()
        self.scale = Tensor(np.array([2.0]), requires_grad=True)

    def forward(self, x):
        return ops.mul(self.inner(x), self.scale)


class TestParameterRegistry:
    def test_params_discovered(self):
        m = TwoParam()
        assert len(m.parameters()) == 2

    def test_named_parameters_order(self):
        names = [n for n, _ in TwoParam().named_parameters()]
        assert names == ["a", "b"]

    def test_nested_names_dotted(self):
        names = [n for n, _ in Nested().named_parameters()]
        assert names == ["scale", "inner.a", "inner.b"] or names == [
            "inner.a",
            "inner.b",
            "scale",
        ]

    def test_non_grad_tensor_not_registered(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.const = Tensor(np.ones(3))  # no requires_grad

        assert M().parameters() == []

    def test_num_parameters(self):
        assert TwoParam().num_parameters() == 9

    def test_registrations_after_the_first_walk_are_seen(self):
        """``parameters()`` is cached per registration, wherever it happens."""
        root = Nested()
        assert len(root.parameters()) == 3
        assert root.parameters() is root.parameters()  # no walk per call
        root.extra = Tensor(np.zeros(2), requires_grad=True)
        assert any(p is root.extra for p in root.parameters())
        assert root.num_parameters() == 12
        # On a grandchild the root has no link to, and through a container.
        root.inner.late = Tensor(np.zeros(4), requires_grad=True)
        assert any(p is root.inner.late for p in root.parameters())
        root.blocks = ModuleList([TwoParam()])
        root.blocks.append(TwoParam())
        assert root.num_parameters() == 12 + 4 + 9 + 9
        assert root.get_flat().shape == (34,)
        replacement = Tensor(np.full((2, 3), 7.0), requires_grad=True)
        root.inner.a = replacement
        assert any(p is replacement for p in root.parameters())

    def test_parameter_cache_does_not_cross_a_pickle(self):
        import pickle

        root = Nested()
        root.parameters()
        clone = pickle.loads(pickle.dumps(root))
        assert clone._param_cache is None
        assert [p.shape for p in clone.parameters()] == [p.shape for p in root.parameters()]
        assert all(a is not b for a, b in zip(clone.parameters(), root.parameters()))

    def test_zero_grad(self):
        m = TwoParam()
        out = ops.sum_(m(Tensor(np.ones((1, 2)))))
        out.backward()
        assert m.a.grad is not None
        m.zero_grad()
        assert m.a.grad is None and m.b.grad is None


class TestFlatInterface:
    def test_roundtrip(self):
        m = TwoParam()
        flat = m.get_flat()
        assert flat.shape == (9,)
        m.set_flat(np.arange(9.0))
        np.testing.assert_array_equal(m.get_flat(), np.arange(9.0))

    def test_set_flat_reshapes_correctly(self):
        m = TwoParam()
        m.set_flat(np.arange(9.0))
        np.testing.assert_array_equal(m.a.data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(m.b.data, [6.0, 7.0, 8.0])

    def test_set_flat_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="flat vector"):
            TwoParam().set_flat(np.zeros(5))

    def test_set_flat_reuses_owned_storage_and_never_writes_a_callers_array(self):
        m = TwoParam()
        mine = np.arange(6.0).reshape(2, 3)
        m.a.data = mine[:]  # a view of the caller's array: must not be written
        m.set_flat(np.full(9, 5.0))
        np.testing.assert_array_equal(mine, np.arange(6.0).reshape(2, 3))
        storage = m.a.data
        assert storage.flags.owndata
        flat = np.arange(9.0)
        m.set_flat(flat)
        assert m.a.data is storage  # overwritten in place, not reallocated
        flat[:] = -1.0
        np.testing.assert_array_equal(m.get_flat(), np.arange(9.0))
        # A parameter whose dtype differs from the flat vector's is replaced.
        m.b.data = np.zeros(3, dtype=np.float32)
        m.set_flat(np.arange(9.0))
        assert m.b.data.dtype == np.float64
        np.testing.assert_array_equal(m.b.data, [6.0, 7.0, 8.0])

    def test_get_flat_returns_copy(self):
        m = TwoParam()
        flat = m.get_flat()
        flat[:] = 99.0
        assert not np.any(m.a.data == 99.0)

    def test_flat_grad_zeros_for_untouched_params(self):
        m = TwoParam()
        g = m.flat_grad()
        np.testing.assert_array_equal(g, np.zeros(9))

    def test_flat_grad_after_backward(self):
        m = TwoParam()
        x = Tensor(np.ones((4, 2)))
        ops.sum_(m(x)).backward()
        g = m.flat_grad()
        assert g.shape == (9,)
        # d/db of sum over 4 rows is 4 per bias entry.
        np.testing.assert_array_equal(g[6:], [4.0, 4.0, 4.0])

    def test_flat_grad_into_a_buffer_equals_the_concatenation(self):
        m = Nested()
        ops.sum_(m(Tensor(np.arange(8.0).reshape(4, 2)))).backward()
        m.inner.b.zero_grad()  # an untouched parameter contributes zeros
        want = m.flat_grad()
        out = np.full(m.num_parameters(), np.nan)
        assert m.flat_grad(out=out) is out
        np.testing.assert_array_equal(out, want)
        assert want[:-3].all() and not want[-3:].any()
        for size in (m.num_parameters() - 1, m.num_parameters() + 1):
            with pytest.raises(ValueError):
                m.flat_grad(out=np.empty(size))

    def test_nested_flat_roundtrip(self):
        m = Nested()
        flat = np.arange(float(m.num_parameters()))
        m.set_flat(flat)
        np.testing.assert_array_equal(m.get_flat(), flat)

    def test_empty_module_flat(self):
        class Empty(Module):
            pass

        m = Empty()
        assert m.get_flat().shape == (0,)
        assert m.flat_grad().shape == (0,)


class TestContainers:
    def test_module_list_registers_children(self):
        ml = ModuleList([TwoParam(), TwoParam()])
        assert len(ml) == 2
        assert len(list(ml.named_parameters())) == 4

    def test_module_list_append_and_index(self):
        ml = ModuleList()
        item = TwoParam()
        ml.append(item)
        assert ml[0] is item

    def test_module_list_not_callable(self):
        with pytest.raises(NotImplementedError):
            ModuleList()(None)

    def test_sequential_chains(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Dense(4, 3, rng, activation="relu"), Dense(3, 2, rng))
        out = seq(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)

    def test_sequential_parameters_from_all_layers(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Dense(4, 3, rng), Dense(3, 2, rng))
        # two weights + two biases
        assert len(seq.parameters()) == 4

    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
