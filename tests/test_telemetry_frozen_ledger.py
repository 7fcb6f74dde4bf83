"""The ledger a trainer writes is frozen: manifest sections and event order.

``tests/fixtures/frozen_ledger.json`` was generated from the commit *before*
the manifest writer, the ledger state machine and the round diagnostics
moved out of ``core/server.py`` (``python tests/test_telemetry_frozen_ledger.py``
regenerates it from whatever tree is on ``PYTHONPATH``).  Two trainers —
one with every subsystem on, one plain serial — must keep writing the same
manifest ``trainer_config`` / ``recipe`` sections and the same event
sequence (type, name, round, every attribute that is not a clock reading),
so code that emits the ledger can move without a schema bump.

The manifest sections are the original, byte for byte, less the
always-null key of the removed cost-tracker option.  The event
sequences were regenerated on purpose twice, each time with the per-name
count changes in CHANGES.md: ``everything_on`` (async window 2 x retry x
chaos) when updates began to name the task they answer (a late crashed
check-in is retried as itself; ``comm:*`` / ``comms.*`` events are booked
to the delivering round), and both when every fact came to be stated once
(round records one round behind; no metric restating a record field or a
running total; one event per fault decision; no manifest ``config``).
A third regeneration added each ``solve:client`` span's ``steps`` and took
the ``everything_on`` footer digest of numerics epoch 2 (no float moved at
ten significant digits).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import EvalConfig
from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults.models import ChaosFaults
from repro.faults.policy import FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems.stragglers import FractionStragglers
from repro.telemetry import InMemorySink, Telemetry
from repro.telemetry.ledger import RunArtifact
from repro.telemetry.replay import describe_trainer, rebuild_trainer

pytestmark = pytest.mark.oracle

FIXTURE = Path(__file__).parent / "fixtures" / "frozen_ledger.json"
ROUNDS = 4

#: Fields whose value is a wall-clock reading or a process identity.
CLOCK_FIELDS = {"ts", "wall_seconds", "comm_encode", "worker_pid"}

SCENARIOS = {
    "everything_on": dict(
        engine="async:window=2,arrivals=seeded,latency=1.2,jitter=0.6",
        comms="comms:codec=qsgd,bits=8,ef=true",
        faults=ChaosFaults(0.4, seed=5),
        fault_policy=FaultPolicy(on_crash="retry", min_quorum=2),
        systems=FractionStragglers(0.5, seed=5),
        evaluation=EvalConfig(
            every=2, strategy="sampled", sample_size=6, strata=2, full_every=2
        ),
        track_gamma=True,
    ),
    "plain_serial": dict(),
}


def _stable(value):
    """Floats to 10 significant digits: equal across BLAS builds."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _stable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    return value


def _project(event):
    """One event without its clock readings."""
    out = {k: v for k, v in event.items() if k not in CLOCK_FIELDS}
    if out.get("clock", "wall") == "wall":
        out.pop("duration", None)
    if out.get("name") == "process.peak_rss_bytes":
        out.pop("value", None)
    return _stable(out)


def snapshot(name):
    """The manifest sections and projected event sequence of one scenario."""
    dataset = make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=60)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    sink = InMemorySink()
    trainer = FederatedTrainer(
        dataset, model, SGDSolver(0.05, batch_size=8),
        clients_per_round=4, mu=0.5, epochs=2, seed=11,
        telemetry=Telemetry([sink], run_id="frozen"),
        **SCENARIOS[name],
    )
    with trainer:
        trainer.run(ROUNDS)
    manifest, events = sink.events[0], sink.events[1:]
    return {
        "manifest": _stable(
            {k: manifest[k] for k in ("trainer_config", "recipe")}
        ),
        "events": [_project(e) for e in events],
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ledger_equals_the_frozen_one(name):
    frozen = json.loads(FIXTURE.read_text())[name]
    # Through JSON, so tuples and int-keyed values compare as the file holds them.
    current = json.loads(json.dumps(snapshot(name)))
    assert current["manifest"] == frozen["manifest"]
    assert len(current["events"]) == len(frozen["events"])
    for index, (got, want) in enumerate(zip(current["events"], frozen["events"])):
        assert got == want, f"event {index} differs"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_frozen_manifest_builds_back_the_trainer_that_wrote_it(name):
    """``rebuild_trainer`` reads a manifest written before the one registry
    existed; the trainer it builds describes itself as that manifest."""
    frozen = json.loads(FIXTURE.read_text())[name]["manifest"]
    with rebuild_trainer(RunArtifact(path="<fixture>", manifest=frozen)) as trainer:
        described = describe_trainer(trainer)
    current = json.loads(json.dumps(_stable(
        {k: described[k] for k in ("trainer_config", "recipe")}
    )))
    assert current == frozen


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({name: snapshot(name) for name in sorted(SCENARIOS)}) + "\n"
    )
    print(f"wrote {FIXTURE}")
