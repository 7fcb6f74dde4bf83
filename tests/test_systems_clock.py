"""Tests for device profiles, the clock-driven systems model, and the
simulated cycles a clock-driven round writes into its ledger."""

import numpy as np
import pytest

from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems import (
    NETWORK_TIERS,
    ClockDrivenSystems,
    DeviceProfile,
    FractionStragglers,
    sample_fleet,
)
from repro.telemetry import JSONLSink, Telemetry
from repro.telemetry.ledger import load_run
from repro.trace import main as trace_main


def _profile(device_id=0, speed=1.0, network="wifi", battery=1.0):
    return DeviceProfile(
        device_id=device_id,
        compute_speed=speed,
        network=network,
        battery_level=battery,
    )


class TestDeviceProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            _profile(speed=0.0)
        with pytest.raises(ValueError):
            _profile(network="dialup")
        with pytest.raises(ValueError):
            _profile(battery=1.5)

    def test_bandwidth_lookup(self):
        assert _profile(network="3g").bandwidth_mbps == NETWORK_TIERS["3g"]

    def test_battery_throttling(self):
        fast = _profile(speed=2.0, battery=0.9)
        throttled = _profile(speed=2.0, battery=0.1)
        assert throttled.effective_speed() == pytest.approx(fast.effective_speed() / 2)

    def test_sample_fleet(self, rng):
        fleet = sample_fleet(25, rng)
        assert len(fleet) == 25
        assert [p.device_id for p in fleet] == list(range(25))
        speeds = [p.compute_speed for p in fleet]
        assert min(speeds) > 0


class TestClockDrivenSystems:
    def _systems(self, profiles, deadline=10.0, jitter=0.0, seed=0):
        return ClockDrivenSystems(
            profiles, deadline=deadline, jitter_sigma=jitter, seed=seed
        )

    def test_faster_device_more_epochs(self):
        profiles = [_profile(0, speed=0.5), _profile(1, speed=2.0)]
        systems = self._systems(profiles)
        slow = systems.epochs_within_deadline(0, 0)
        fast = systems.epochs_within_deadline(0, 1)
        assert fast > slow

    def test_longer_deadline_more_epochs(self):
        profiles = [_profile(0)]
        short = self._systems(profiles, deadline=5.0).epochs_within_deadline(0, 0)
        long = self._systems(profiles, deadline=20.0).epochs_within_deadline(0, 0)
        assert long > short

    def test_slow_network_reduces_budget(self):
        wifi = self._systems([_profile(0, network="wifi")])
        cellular = self._systems([_profile(0, network="3g")])
        assert cellular.epochs_within_deadline(0, 0) < wifi.epochs_within_deadline(0, 0)

    def test_assignment_caps_at_max_epochs(self):
        systems = self._systems([_profile(0, speed=100.0)])
        [a] = systems.assign(0, [0], max_epochs=20)
        assert a.epochs == 20
        assert not a.is_straggler

    def test_slow_device_flagged_straggler(self):
        systems = self._systems([_profile(0, speed=0.01)])
        [a] = systems.assign(0, [0], max_epochs=20)
        assert a.is_straggler
        assert 0 < a.epochs < 20

    def test_minimum_budget_floor(self):
        # Device so slow (and network so bad) that compute budget ~ 0.
        systems = self._systems([_profile(0, speed=1e-6, network="3g")], deadline=1.01)
        [a] = systems.assign(0, [0], max_epochs=20)
        assert a.epochs >= 0.02

    def test_jitter_deterministic_per_round(self):
        profiles = [_profile(0)]
        a = ClockDrivenSystems(profiles, deadline=10, jitter_sigma=0.5, seed=3)
        b = ClockDrivenSystems(profiles, deadline=10, jitter_sigma=0.5, seed=3)
        assert a.epochs_within_deadline(4, 0) == b.epochs_within_deadline(4, 0)

    def test_jitter_varies_across_rounds(self):
        systems = ClockDrivenSystems([_profile(0)], deadline=10, jitter_sigma=0.5, seed=3)
        values = {round(systems.epochs_within_deadline(r, 0), 6) for r in range(5)}
        assert len(values) > 1

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            ClockDrivenSystems([_profile(0)], deadline=0.0)


#: Four devices on a 1.5-cycle deadline without jitter, E = 5: a fast one,
#: a compute-bound straggler, a network-bound device on 3G, and one so
#: slow that ``assign``'s 0.02-epoch floor binds.
STAMP_PROFILES = [
    _profile(0, speed=5.0, network="wifi"),
    _profile(1, speed=0.05, network="wifi"),
    _profile(2, speed=50.0, network="3g"),
    _profile(3, speed=0.01, network="wifi"),
]

#: device -> (download, compute, upload, bottleneck) in cycles.  Closed
#: form: wifi moves the 1-megabit model each way in 1/80 cycle, 3G in 1/2;
#: compute is the epochs run over the device's speed.  Devices 0-2 are the
#: values the after-the-fact round trace reported; device 3 ran the floor's
#: 0.02 epochs (the trace said 0.01475 epochs, 1.475 cycles).
STAMP_EXPECTED = {
    0: (0.0125, 1.0, 0.0125, "compute"),
    1: (0.0125, 1.475, 0.0125, "compute"),
    2: (0.5, 0.1, 0.5, "network"),
    3: (0.0125, 2.0, 0.0125, "compute"),
}

CYCLE_FIELDS = ("download_cycles", "compute_cycles", "upload_cycles", "bottleneck")


def _record_ledger(path, systems, rounds=2, **kwargs):
    dataset = make_synthetic(1.0, 1.0, num_devices=4, seed=2, size_cap=40)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    options = dict(clients_per_round=4, mu=0.5, epochs=5, seed=3)
    options.update(kwargs)
    with FederatedTrainer(
        dataset, model, SGDSolver(0.05, batch_size=8), systems=systems,
        telemetry=Telemetry([JSONLSink(str(path))]), **options,
    ) as trainer:
        trainer.run(rounds)
    return load_run(str(path))


def _solves(artifact):
    """``(round, client) -> solve:client span`` of a recorded ledger."""
    spans = [s for s in artifact.spans if s["name"] == "solve:client"]
    solves = {(s["round"], s["client_id"]): s for s in spans}
    assert len(solves) == len(spans), "a solve was stated twice"
    return solves


def _stamp_systems(jitter=0.0, seed=0):
    return ClockDrivenSystems(
        STAMP_PROFILES, deadline=1.5, jitter_sigma=jitter, seed=seed
    )


@pytest.fixture(scope="module", params=["serial", "cohort", "async:window=0"])
def stamped(request, tmp_path_factory):
    """Two FedProx rounds of the four devices, recorded to a JSONL ledger
    and read back: ``(solves, records)``."""
    path = tmp_path_factory.mktemp("stamped") / "run.jsonl"
    artifact = _record_ledger(path, _stamp_systems(), engine=request.param)
    return _solves(artifact), artifact.history_records()


class TestClockStampedLedger:
    """What a clock-driven round cost, answered from its ledger alone."""

    def test_one_stamp_per_delivered_solve(self, stamped):
        solves, records = stamped
        assert sorted(solves) == [
            (r["round_idx"], k)
            for r in records
            for k in sorted(set(r["selected"]) - set(r["dropped"]))
        ]
        assert len(solves) == 8
        for span in solves.values():
            assert all(f in span for f in CYCLE_FIELDS)

    def test_each_device_s_cycles_and_bottleneck(self, stamped):
        solves, _ = stamped
        for (round_idx, device), span in solves.items():
            got = tuple(span[f] for f in CYCLE_FIELDS)
            assert got == STAMP_EXPECTED[device], (round_idx, device)

    def test_floor_bound_compute_is_the_work_that_ran(self, stamped):
        solves, _ = stamped
        assert solves[0, 3]["epochs"] == 0.02
        assert solves[0, 3]["compute_cycles"] == 0.02 / 0.01

    def test_fast_device_does_not_straggle(self, stamped):
        solves, records = stamped
        assert all(0 not in r["stragglers"] for r in records)
        assert solves[0, 0]["epochs"] == solves[1, 0]["epochs"] == 5.0

    def test_slow_device_is_a_straggler(self, stamped):
        solves, records = stamped
        assert all(r["stragglers"] == [1, 3] for r in records)
        assert solves[0, 1]["epochs"] < 5.0

    def test_communication_splits_evenly(self, stamped):
        solves, _ = stamped
        for span in solves.values():
            assert span["download_cycles"] == span["upload_cycles"] > 0

    def test_bottleneck_classification(self, stamped):
        solves, _ = stamped
        network = {k for (r, k), s in solves.items() if s["bottleneck"] == "network"}
        assert network == {2}

    def test_bottleneck_follows_the_half_deadline_rule(self, stamped):
        solves, _ = stamped
        deadline = _stamp_systems().deadline
        for span in solves.values():
            comm = span["download_cycles"] + span["upload_cycles"]
            expected = "network" if comm > 0.5 * deadline else "compute"
            assert span["bottleneck"] == expected

    def test_stamps_agree_with_assign(self, stamped):
        """The ledger states the work budgets ``assign`` handed the trainer."""
        solves, records = stamped
        systems = _stamp_systems()
        for record in records:
            round_idx = record["round_idx"]
            for a in systems.assign(round_idx, record["selected"], max_epochs=5):
                span = solves[round_idx, a.client_id]
                assert span["epochs"] == a.epochs
                assert (a.client_id in record["stragglers"]) == a.is_straggler

    def test_fedavg_dropped_devices_carry_no_stamp(self, tmp_path):
        artifact = _record_ledger(
            tmp_path / "run.jsonl", _stamp_systems(), drop_stragglers=True, mu=0.0
        )
        solves = _solves(artifact)
        for record in artifact.history_records():
            assert record["dropped"] == [1, 3]
            delivered = set(record["selected"]) - set(record["dropped"])
            assert {k for r, k in solves if r == record["round_idx"]} == delivered
        assert all(all(f in s for f in CYCLE_FIELDS) for s in solves.values())

    def test_jittered_stamps_repeat_across_seeded_runs(self, tmp_path):
        def stamps(name):
            systems = _stamp_systems(jitter=0.5, seed=7)
            solves = _solves(_record_ledger(tmp_path / name, systems, rounds=3))
            return {key: tuple(s[f] for f in CYCLE_FIELDS) for key, s in solves.items()}

        first = stamps("a.jsonl")
        assert first == stamps("b.jsonl")
        assert len({v[1] for k, v in first.items() if k[1] == 0}) > 1

    def test_no_clock_no_stamp(self, tmp_path):
        artifact = _record_ledger(tmp_path / "run.jsonl", FractionStragglers(0.5, seed=1))
        solves = _solves(artifact).values()
        assert solves and not any(f in s for s in solves for f in CYCLE_FIELDS)

    def test_summarize_reads_work_and_simulated_time(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _record_ledger(path, _stamp_systems())
        assert trace_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        # Two rounds of 5 + 0.07375 + 5 + 0.02 epochs; every round's
        # critical path is device 3's 0.0125 + 2.0 + 0.0125 cycles.
        assert "work: solves=8 epochs=20.1875" in out
        assert (
            "simulated: critical path mean=2.0250 max=2.0250 cycles/round; "
            "network-bound=2 compute-bound=6"
        ) in out
