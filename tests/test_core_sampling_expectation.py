"""The two sampling schemes' expectations, computed exactly by enumeration.

Theorem 4 takes ``E_{S_t}`` over scheme 1
(:class:`WeightedSamplingSimpleAverage`: ``K`` draws with replacement with
probability ``p_k = n_k / n``, simple average), under which
``E[w_{t+1}] = sum_k p_k w_k``.  Scheme 2
(:class:`UniformSamplingWeightedAverage`, the paper's experiments and
Figure 12) draws ``K`` devices uniformly without replacement and
renormalizes ``n_k`` over the drawn set: a ratio estimator, unbiased only
when the ``n_k`` are equal.

Every outcome is enumerated with its probability (``N <= 6``, ``K <= 3``)
and each aggregate is the library's own, so the expectations are exact up
to the rounding of the sums (1e-12).  With ``w_k = e_k`` the expected
aggregate is each device's effective weight, so scheme 2's bias is that
weight minus ``p_k``.  At ``make_synthetic(1, 1, num_devices=6, seed=0)``'s
training sizes ``(96, 73, 197, 94, 55, 130)`` it is
``(+0.0153, +0.0248, -0.0745, +0.0163, +0.0266, -0.0085)`` at ``K = 2``
(largest 0.0745, on the biggest device, which it under-weights) and
``(+0.0092, +0.0124, -0.0418, +0.0097, +0.0124, -0.0019)`` at ``K = 3``
(largest 0.0418): small devices gain weight, large ones lose it.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core import UniformSamplingWeightedAverage, WeightedSamplingSimpleAverage
from repro.datasets import ClientData, FederatedDataset, make_synthetic

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

TOL = 1e-12


def _federation(sizes):
    gen = np.random.default_rng(len(sizes))
    clients = [
        ClientData(
            client_id=k,
            train_x=gen.normal(size=(n, 2)),
            train_y=gen.integers(2, size=n),
            test_x=np.zeros((1, 2)),
            test_y=np.zeros(1, dtype=np.int64),
        )
        for k, n in enumerate(sizes)
    ]
    return FederatedDataset("sizes", clients, num_classes=2, input_dim=2)


def _iterates(N, dim=4, seed=0):
    """Fixed, arbitrary ``w_k``: one row per device."""
    return np.random.default_rng(seed).normal(size=(N, dim))


def _p(dataset):
    n = np.array([c.num_train for c in dataset], dtype=np.float64)
    return n / n.sum()


def _scheme1_expectation(dataset, K, W):
    """``sum`` over every ordered K-tuple of its multinomial probability
    times the scheme's aggregate."""
    scheme = WeightedSamplingSimpleAverage(dataset, K)
    p = dataset.sample_fractions()
    total = np.zeros(W.shape[1])
    mass = 0.0
    for draw in itertools.product(range(len(W)), repeat=K):
        prob = math.prod(p[k] for k in draw)
        total += prob * scheme.aggregate([(k, W[k]) for k in draw], None)
        mass += prob
    assert abs(mass - 1.0) <= TOL
    return total


def _scheme2_expectation(dataset, K, W):
    """The mean, over every K-subset (each ``1 / C(N, K)``), of the
    scheme's aggregate."""
    scheme = UniformSamplingWeightedAverage(dataset, K)
    subsets = list(itertools.combinations(range(len(W)), K))
    total = np.zeros(W.shape[1])
    for chosen in subsets:
        total += scheme.aggregate([(k, W[k]) for k in chosen], None)
    return total / len(subsets)


SIZES = {
    "skewed": (5, 40, 11, 3, 27, 9),
    "three-devices": (7, 19, 2),
    "synthetic": tuple(int(n) for n in make_synthetic(1.0, 1.0, num_devices=6, seed=0).train_sizes),
}


class TestWeightedSamplingSimpleAverage:
    """Scheme 1 is unbiased: ``E[aggregate] = sum_k p_k w_k``, exactly."""

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_expectation_is_the_p_weighted_mean(self, name, K):
        dataset = _federation(SIZES[name])
        W = _iterates(len(SIZES[name]), seed=K)
        got = _scheme1_expectation(dataset, K, W)
        np.testing.assert_allclose(got, _p(dataset) @ W, rtol=0, atol=TOL)

    def test_the_probabilities_are_the_sample_fractions(self):
        dataset = _federation(SIZES["skewed"])
        np.testing.assert_allclose(dataset.sample_fractions(), _p(dataset), rtol=0, atol=TOL)


class TestUniformSamplingWeightedAverage:
    """Scheme 2 is a ratio estimator: unbiased at equal ``n_k`` only."""

    @pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3)])
    def test_unbiased_at_equal_sizes(self, N, K):
        dataset = _federation((13,) * N)
        W = _iterates(N, seed=N + K)
        got = _scheme2_expectation(dataset, K, W)
        np.testing.assert_allclose(got, W.mean(axis=0), rtol=0, atol=TOL)

    @pytest.mark.parametrize(
        "K,bias",
        [
            (2, [0.0153, 0.0248, -0.0745, 0.0163, 0.0266, -0.0085]),
            (3, [0.0092, 0.0124, -0.0418, 0.0097, 0.0124, -0.0019]),
        ],
    )
    def test_biased_at_the_synthetic_sizes(self, K, bias):
        """The module docstring's numbers: ``w_k = e_k`` makes the expected
        aggregate each device's effective weight."""
        dataset = _federation(SIZES["synthetic"])
        assert SIZES["synthetic"] == (96, 73, 197, 94, 55, 130)
        got = _scheme2_expectation(dataset, K, np.eye(6)) - _p(dataset)
        np.testing.assert_allclose(got, bias, rtol=0, atol=5e-5)
        assert abs(got.sum()) <= TOL  # weight moves between devices, none is lost

    def test_a_single_device_per_round_is_the_uniform_mean(self):
        """``K = 1`` renormalizes over one device: its weight is ``1 / N``
        whatever its size, the extreme of the ratio estimator's bias."""
        dataset = _federation(SIZES["skewed"])
        W = _iterates(6)
        got = _scheme2_expectation(dataset, 1, W)
        np.testing.assert_allclose(got, W.mean(axis=0), rtol=0, atol=TOL)
        assert np.abs(got - _p(dataset) @ W).max() > 0.1
