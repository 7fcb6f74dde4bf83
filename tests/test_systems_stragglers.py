"""Tests for straggler assignment (the paper's systems-heterogeneity protocol)."""

import numpy as np
import pytest

from repro.systems import (
    FractionStragglers,
    NoHeterogeneity,
    WorkAssignment,
    entropy_rng,
)


class TestEntropyRng:
    """The word-array fast path draws the list form's stream, bit for bit."""

    @pytest.mark.parametrize(
        "components",
        [
            (0,),
            (7, 3, 12, 0),
            (2**32 - 1, 0xC0DE, 5),
            (np.int64(11), np.uint32(4), 9),
            (2**32, 1, 2),  # a component of two words keeps the list
            (3, 2**40 + 17, 0xC0FF),
        ],
    )
    def test_streams_equal_the_list_form(self, components):
        want = np.random.default_rng(
            np.random.SeedSequence([int(c) for c in components])
        )
        got = entropy_rng(*components)
        np.testing.assert_array_equal(got.random(64), want.random(64))
        np.testing.assert_array_equal(
            got.integers(0, 2**63, size=8), want.integers(0, 2**63, size=8)
        )

    def test_negative_entropy_is_still_rejected(self):
        with pytest.raises(ValueError):
            entropy_rng(1, -2)


class TestNoHeterogeneity:
    def test_everyone_gets_full_epochs(self):
        model = NoHeterogeneity()
        assignments = model.assign(0, [3, 1, 4], max_epochs=20)
        assert all(a.epochs == 20 for a in assignments)
        assert all(not a.is_straggler for a in assignments)
        assert [a.client_id for a in assignments] == [3, 1, 4]


class TestFractionStragglers:
    def test_zero_fraction_no_stragglers(self):
        model = FractionStragglers(0.0, seed=0)
        assignments = model.assign(0, list(range(10)), 20)
        assert sum(a.is_straggler for a in assignments) == 0

    def test_fraction_counts(self):
        model = FractionStragglers(0.5, seed=0)
        assignments = model.assign(0, list(range(10)), 20)
        assert sum(a.is_straggler for a in assignments) == 5

    def test_ninety_percent(self):
        model = FractionStragglers(0.9, seed=0)
        assignments = model.assign(0, list(range(10)), 20)
        assert sum(a.is_straggler for a in assignments) == 9

    def test_full_fraction(self):
        model = FractionStragglers(1.0, seed=0)
        assignments = model.assign(0, list(range(4)), 20)
        assert all(a.is_straggler for a in assignments)

    def test_straggler_epochs_below_target(self):
        model = FractionStragglers(1.0, seed=0)
        for a in model.assign(0, list(range(20)), 20):
            assert 1 <= a.epochs < 20
            assert a.epochs == int(a.epochs)  # whole epochs when E > 1

    def test_non_straggler_epochs_equal_target(self):
        model = FractionStragglers(0.5, seed=1)
        for a in model.assign(0, list(range(10)), 20):
            if not a.is_straggler:
                assert a.epochs == 20

    def test_e1_gives_fractional_budgets(self):
        model = FractionStragglers(1.0, seed=0)
        for a in model.assign(0, list(range(10)), 1):
            assert 0 < a.epochs < 1

    def test_deterministic_across_instances(self):
        """Two algorithms built with the same seed see identical stragglers
        (the paper's fixed-environment protocol)."""
        a = FractionStragglers(0.5, seed=42)
        b = FractionStragglers(0.5, seed=42)
        for round_idx in range(5):
            av = a.assign(round_idx, list(range(10)), 20)
            bv = b.assign(round_idx, list(range(10)), 20)
            assert [(x.client_id, x.epochs, x.is_straggler) for x in av] == [
                (x.client_id, x.epochs, x.is_straggler) for x in bv
            ]

    def test_varies_across_rounds(self):
        model = FractionStragglers(0.5, seed=0)
        r0 = {a.client_id for a in model.assign(0, list(range(10)), 20) if a.is_straggler}
        draws = [
            {a.client_id for a in model.assign(r, list(range(10)), 20) if a.is_straggler}
            for r in range(1, 6)
        ]
        assert any(d != r0 for d in draws)

    def test_varies_across_seeds(self):
        a = FractionStragglers(0.5, seed=1).assign(0, list(range(10)), 20)
        b = FractionStragglers(0.5, seed=2).assign(0, list(range(10)), 20)
        assert [(x.client_id, x.is_straggler) for x in a] != [
            (x.client_id, x.is_straggler) for x in b
        ]

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FractionStragglers(1.5)
        with pytest.raises(ValueError):
            FractionStragglers(-0.1)

    def test_rounding_of_fraction(self):
        model = FractionStragglers(0.5, seed=0)
        assignments = model.assign(0, list(range(5)), 20)
        assert sum(a.is_straggler for a in assignments) == 2  # round(2.5) = 2
