"""BatchSchedule: the one mini-batch schedule API.

These tests pin the public export and the schedule's edge cases
(fractional budgets, minimum work, validation).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.optim as optim
from repro.optim import (
    AdamSolver,
    BatchSchedule,
    GDSolver,
    MomentumSGDSolver,
    SGDSolver,
)


def _rng(seed=42):
    return np.random.default_rng(seed)


class TestExports:
    def test_schedule_api_is_public(self):
        assert "BatchSchedule" in optim.__all__
        for removed in ("epoch_batches", "batches_per_epoch", "work_batches"):
            assert not hasattr(optim, removed)


class TestBatchScheduleProperties:
    @pytest.mark.parametrize(
        "n, bs, expected",
        [(10, 3, 4), (10, 5, 2), (10, 10, 1), (10, 20, 1), (1, 1, 1)],
    )
    def test_per_epoch(self, n, bs, expected):
        assert BatchSchedule(n, bs).per_epoch == expected

    @pytest.mark.parametrize(
        "epochs, expected",
        [(1.0, 4), (2.0, 8), (0.5, 2), (0.6, 2), (0.1, 1), (0.0, 1)],
    )
    def test_total_rounds_fractional_budgets(self, epochs, expected):
        # 10 samples, batch 3 -> 4 batches/epoch
        assert BatchSchedule(10, 3, epochs).total == expected

    def test_total_never_below_one(self):
        assert BatchSchedule(100, 10, 0.0).total == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0, "batch_size": 1},
            {"n_samples": -3, "batch_size": 1},
            {"n_samples": 5, "batch_size": 0},
            {"n_samples": 5, "batch_size": 2, "epochs": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchSchedule(**kwargs)

    def test_one_epoch_covers_all_indices(self):
        batches = BatchSchedule(11, 4).one_epoch(_rng())
        assert [len(b) for b in batches] == [4, 4, 3]
        assert sorted(np.concatenate(batches)) == list(range(11))

    def test_batches_reshuffle_each_epoch(self):
        sched = BatchSchedule(8, 8, epochs=2.0)
        epochs = sched.materialize(_rng())
        assert len(epochs) == 2
        assert not np.array_equal(epochs[0], epochs[1])
        assert sorted(epochs[0]) == sorted(epochs[1]) == list(range(8))


class TestStackedPlansMatchScalarDraws:
    """stacked_plan consumes the rng exactly as the scalar solve does."""

    @pytest.mark.parametrize(
        "solver",
        [
            SGDSolver(0.1, batch_size=4),
            MomentumSGDSolver(0.1, batch_size=4),
            AdamSolver(0.01, batch_size=4),
        ],
        ids=["sgd", "momentum", "adam"],
    )
    def test_minibatch_solvers(self, solver):
        indices, lengths = solver.stacked_plan(10, 1.5, _rng())
        reference = BatchSchedule(10, 4, 1.5).materialize(_rng())
        assert len(lengths) == len(reference) == BatchSchedule(10, 4, 1.5).total
        np.testing.assert_array_equal(indices, np.concatenate(reference))
        assert lengths.tolist() == [len(b) for b in reference]

    @pytest.mark.parametrize(
        "n, batch_size, epochs",
        [
            (23, 10, 2.5),  # ends mid-epoch, after a short batch
            (23, 10, 0.4),  # one partial epoch
            (23, 10, 20),  # the paper's E
            (7, 10, 3),  # batch_size >= n: one full-data batch per epoch
            (10, 10, 2),  # batch_size == n
            (20, 5, 1.5),  # n % batch_size == 0, fractional
            (20, 5, 3),  # n % batch_size == 0, whole
            (100, 10, 0.01),  # epochs < 1/per_epoch: one batch minimum
            (100, 10, 0),
            (1, 1, 2),
        ],
    )
    def test_flat_plan_is_the_materialized_schedule(self, n, batch_size, epochs):
        """Same indices, same lengths, same draws — without building batches."""
        schedule = BatchSchedule(n, batch_size, epochs)
        rng_plan, rng_ref = _rng(), _rng()
        indices, lengths = SGDSolver(0.1, batch_size=batch_size).stacked_plan(
            n, epochs, rng_plan
        )
        reference = schedule.materialize(rng_ref)
        np.testing.assert_array_equal(indices, np.concatenate(reference))
        assert lengths.tolist() == [len(b) for b in reference]
        assert len(lengths) == schedule.total >= 1
        assert indices.dtype == np.concatenate(reference).dtype
        assert lengths.dtype.kind == "i" and lengths.sum() == len(indices)
        assert rng_plan.bit_generator.state == rng_ref.bit_generator.state

    def test_the_plan_arrays_belong_to_the_caller(self):
        """The cohort planner offsets the indices; a second plan is unmoved."""
        solver = SGDSolver(0.1, batch_size=4)
        indices, lengths = solver.stacked_plan(10, 1.0, _rng())
        assert indices.flags.writeable and lengths.flags.writeable
        indices += 1000
        again, _ = solver.stacked_plan(10, 1.0, _rng())
        assert again.max() < 10

    def test_gd_plan_is_full_batches_without_rng_draws(self):
        solver = GDSolver(0.1)
        rng = _rng()
        state_before = rng.bit_generator.state
        indices, lengths = solver.stacked_plan(7, 3.0, rng)
        assert rng.bit_generator.state == state_before  # GD never shuffles
        assert lengths.tolist() == [7, 7, 7]
        np.testing.assert_array_equal(indices, np.tile(np.arange(7), 3))

    def test_gd_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            GDSolver(0.1).stacked_plan(7, -1.0, _rng())
