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

FedAvg drops its stragglers and renormalizes over the rest; FedProx keeps
their partial work, so its weights are scheme 2's.  Under
:class:`FractionStragglers` (``round(x K)`` of the selected devices, drawn
uniformly) the survivors are a uniform ``(K - s)``-subset, so the drop's
expectation is scheme 2's at ``K - s``: its extra bias is that bias minus
scheme 2's at ``K``.  At the sizes above, with ``x`` = 1/3 and 2/3, that is
``(+0.0026, +0.0287, -0.0642, +0.0046, +0.0548, -0.0264)`` at ``K = 2``
(either ``x`` drops one device), ``(+0.0060, +0.0123, -0.0327, +0.0067,
+0.0142, -0.0065)`` at ``K = 3, x = 1/3`` and ``(+0.0086, +0.0411, -0.0969,
+0.0113, +0.0690, -0.0330)`` at ``K = 3, x = 2/3``: the drop takes a further
0.03–0.10 of weight off the biggest device.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core import UniformSamplingWeightedAverage, WeightedSamplingSimpleAverage
from repro.datasets import ClientData, FederatedDataset, make_synthetic
from repro.systems import FractionStragglers

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


def _late(K, fraction):
    """How many of ``K`` selected devices :class:`FractionStragglers` makes
    stragglers (a count fixed by ``K`` and the fraction)."""
    return sum(a.is_straggler for a in FractionStragglers(fraction).assign(0, list(range(K)), 2.0))


def _drop_expectation(dataset, K, fraction, W):
    """FedAvg's drop: every K-subset and, inside it, every straggler set the
    model draws (each equally likely), aggregated over the survivors."""
    scheme = UniformSamplingWeightedAverage(dataset, K)
    total, outcomes = np.zeros(W.shape[1]), 0
    for chosen in itertools.combinations(range(len(W)), K):
        for late in itertools.combinations(chosen, _late(K, fraction)):
            survivors = [k for k in chosen if k not in late]
            total += scheme.aggregate([(k, W[k]) for k in survivors], None)
            outcomes += 1
    return total / outcomes


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


class TestFedAvgStragglerDrop:
    """Dropping stragglers and renormalizing is scheme 2 at ``K - s``."""

    @pytest.mark.parametrize("fraction", [1 / 3, 2 / 3])
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_expectation_is_scheme_2_over_the_survivors(self, name, K, fraction):
        dataset = _federation(SIZES[name])
        W = _iterates(len(SIZES[name]), seed=K)
        survivors = K - _late(K, fraction)
        assert 1 <= survivors < K
        got = _drop_expectation(dataset, K, fraction, W)
        want = _scheme2_expectation(dataset, survivors, W)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    @pytest.mark.parametrize("fraction", [1 / 3, 2 / 3])
    @pytest.mark.parametrize("K", [2, 3])
    def test_unbiased_at_equal_sizes(self, K, fraction):
        dataset = _federation((13,) * 6)
        W = _iterates(6, seed=K)
        got = _drop_expectation(dataset, K, fraction, W)
        np.testing.assert_allclose(got, W.mean(axis=0), rtol=0, atol=TOL)

    @pytest.mark.parametrize(
        "K,fraction,extra",
        [
            (2, 1 / 3, [0.0026, 0.0287, -0.0642, 0.0046, 0.0548, -0.0264]),
            (2, 2 / 3, [0.0026, 0.0287, -0.0642, 0.0046, 0.0548, -0.0264]),
            (3, 1 / 3, [0.0060, 0.0123, -0.0327, 0.0067, 0.0142, -0.0065]),
            (3, 2 / 3, [0.0086, 0.0411, -0.0969, 0.0113, 0.0690, -0.0330]),
        ],
    )
    def test_extra_bias_against_partial_work_at_the_synthetic_sizes(self, K, fraction, extra):
        """The module docstring's numbers: the drop's effective weights
        minus scheme 2's, which keeping the stragglers' partial work gets."""
        dataset = _federation(SIZES["synthetic"])
        drop = _drop_expectation(dataset, K, fraction, np.eye(6))
        got = drop - _scheme2_expectation(dataset, K, np.eye(6))
        np.testing.assert_allclose(got, extra, rtol=0, atol=5e-5)
        assert abs(drop.sum() - 1.0) <= TOL  # every outcome keeps a survivor
