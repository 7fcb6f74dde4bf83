"""One benchmark run, in its own process (spawned by ``run.py``).

``run.py`` starts this file with BLAS pinned to one thread and ``src`` on
the path, once per measurement, so every run gets a clean ``ru_maxrss``
and pays its own imports.  The process builds the workload's trainer, runs
one untimed warm-up round (the end of ``setup_s``), times ``--rounds``
further rounds, checks the outputs after the clock has stopped and prints
one JSON object on its last line.  ``--rounds 0`` measures set-up only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time


def _first_at_or_below(trajectory, target):
    """Index into ``trajectory`` of the first loss at or below ``target``."""
    for index, (_, loss) in enumerate(trajectory):
        if loss <= target:
            return index
    return None


def _counters(trainer) -> dict:
    """The cumulative counts a trainer exposes; read around the timed rounds."""
    cache = trainer.dataset.store.cache_info()  # empty for an eager store
    faults = trainer.fault_stats
    return {
        "bytes_up": trainer.comms_stats["bytes_up"],
        "injected": faults["injected"],
        "retries": faults["retries"],
        "hits": cache.get("hits", 0),
        "lookups": cache.get("hits", 0) + cache.get("misses", 0),
    }


def run(args) -> dict:
    import numpy as np

    from repro.core import FederatedTrainer
    from repro.telemetry import history_digest, load_run, verify_artifact

    import tracing
    from clock import PERIOD_S, Calibration
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    eval_every = 1 if args.smoke else workload.eval_every
    target = math.inf if args.smoke else workload.target
    rounds = args.rounds

    # Set-up is sampled at its four stages: imports done, federation
    # built, trainer constructed, warm-up round run.
    setup_clock = Calibration()
    imports_s = time.monotonic() - args.spawned_at
    setup_clock.sample()
    scratch = tempfile.TemporaryDirectory(prefix="bench-", dir=args.tmp)
    ledger_path = os.path.join(scratch.name, "ledger.jsonl")
    trainer_kwargs = workload.build(args.seed, eval_every, ledger_path)
    setup_clock.sample()
    trainer = FederatedTrainer(**trainer_kwargs)
    setup_clock.sample()

    delivered = [0]
    aggregate = trainer.sampling.aggregate

    def counting_aggregate(updates, *rest, **kwargs):
        delivered[0] += len(updates)
        return aggregate(updates, *rest, **kwargs)

    trainer.sampling.aggregate = counting_aggregate

    tracer = tracing.Tracer() if args.trace else None
    run_round = trainer.run_round
    if tracer is not None:
        tracing.instrument(tracer, trainer)
        run_round = tracer.traced(tracing.ROUND, run_round)

    records = []
    round_ends = []
    failed_rounds = 0
    clock = Calibration()
    try:
        records.append(run_round())  # warm-up: caches, lazy pools, first ledger lines
        setup_raw_s = time.monotonic() - args.spawned_at
        warm = time.perf_counter()
        setup_clock.sample()
        # Imports run before the first sample can: they take its speed.
        setup_s = (
            imports_s * setup_clock.speed_after(0) + setup_clock.elapsed([warm])[0]
        )

        delivered[0] = 0
        before = _counters(trainer)
        # The timed region starts at the end of this sample; the first round
        # is followed by one too, so a short time-to-target has a speed.
        next_sample = clock.sample()
        for index in range(rounds):
            if tracer is not None:
                tracer.round_id = index + 1
            try:
                records.append(run_round())
            except Exception as exc:  # a raising round is a failed operation
                print(f"round {index + 1} raised: {exc!r}", file=sys.stderr)
                failed_rounds = rounds - index
                break
            now = time.perf_counter()
            round_ends.append(now)
            if now >= next_sample and index + 1 < rounds:
                next_sample = clock.sample() + PERIOD_S
        clock.sample()
        if tracer is not None:
            tracer.round_id = None

        after = _counters(trainer)
        counted = {key: after[key] - before[key] for key in after}
        if trainer.comms_config.enabled:
            uplink_bytes = counted["bytes_up"]
        else:
            uplink_bytes = delivered[0] * trainer.model.n_params * 8
        compression_ratio = trainer.comms_stats["compression_ratio"]
        finite = bool(np.all(np.isfinite(trainer.w)))
        multi_process = trainer.executor.n_workers > 1
    finally:
        trainer.close()
        if tracer is not None:
            tracer.unwrap()

    # Round ends on the calibrated clock, and the same stretch on the wall
    # clock with the kernel samples cut out.
    ends = clock.elapsed(round_ends)
    wall_s = ends[-1] if ends else 0.0
    wall_raw_s = (round_ends[-1] - clock.marks[0][1] - sum(
        ended - began for began, ended, _ in clock.marks[1:-1]
    )) if ends else 0.0
    timed = records[1:]
    trajectory = [
        (r.round_idx, r.train_loss) for r in timed if r.train_loss is not None
    ]
    evaluated_ends = [
        end for r, end in zip(timed, ends) if r.train_loss is not None
    ]
    hit = _first_at_or_below(trajectory, target)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if multi_process:  # workers are reaped by close(): add the largest one
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": rounds,
        "rounds_completed": len(timed),
        "failed_rounds": failed_rounds,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "machine_speed": clock.speed,
        "updates_delivered": delivered[0],
        "uplink_bytes": uplink_bytes,
        "peak_rss_mb": peak_kb / 1024.0,
        "final_train_loss": trajectory[-1][1] if trajectory else None,
        "trajectory": trajectory,
        "target": None if math.isinf(target) else target,
        "rounds_to_target": None if hit is None else trajectory[hit][0],
        "time_to_target_s": None if hit is None else evaluated_ends[hit],
        "finite": finite,
        "digest": history_digest(records),
        "warmup_digest": history_digest(records[:1]),
        "ledger_issues": None,
        "ledger_bytes": 0,
    }
    if os.path.exists(ledger_path):
        result["ledger_issues"] = verify_artifact(load_run(ledger_path))
        result["ledger_bytes"] = os.path.getsize(ledger_path)
    scratch.cleanup()

    if tracer is not None and timed:
        layers = tracing.layer_metrics(tracer, len(timed), wall_s / wall_raw_s)
        counts = tracer.counts
        dispatched = counts["tasks_dispatched"]
        n = len(timed)
        layers.update({
            "core.rounds_to_target": result["rounds_to_target"] or 0,
            "runtime.solve_tasks": dispatched / n,
            "runtime.updates_delivered": delivered[0],
            # The async engine can deliver, in the first timed rounds, work
            # dispatched during the warm-up: never report a negative waste.
            "runtime.updates_discarded": max(0, dispatched - delivered[0]),
            "runtime.useful_update_ratio": (
                min(1.0, delivered[0] / dispatched) if dispatched else 0.0
            ),
            "runtime.eval_calls": sum(
                1 for s in tracer.spans if s[0] == "runtime.eval" and s[4] is not None
            ) / n,
            "datasets.store_get_calls": counts["store_get_calls"] / n,
            # An eager store has no cache to miss: every get is a list index.
            "datasets.store_hit_ratio": (
                counted["hits"] / counted["lookups"] if counted["lookups"] else 1.0
            ),
            "comms.compression_ratio": compression_ratio,
            "faults.injected": counted["injected"],
            "faults.retries": counted["retries"],
            "faults.dropped": sum(len(r.dropped) for r in timed),
            "telemetry.events_per_round": counts["telemetry_events"] / n,
            "telemetry.ledger_bytes_per_round": result["ledger_bytes"] / (n + 1),
        })
        result["layers"] = layers
        result["tiling"] = tracing.tiling_report(tracer)
    return result


def machine() -> dict:
    """The software this process runs, for the results' fingerprint."""
    import numpy

    from repro.telemetry import environment_info

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(environment_info(), blas=f"{blas.get('name')} {blas.get('version')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--tmp", required=True, help="directory for scratch files")
    parser.add_argument("--probes", type=int, default=0,
                        help="run the layer probes with this many calls each instead")
    parser.add_argument("--machine", action="store_true",
                        help="report the numpy/BLAS versions instead")
    args = parser.parse_args(argv)
    if args.machine:
        result = machine()
    elif args.probes:
        import probes

        result = probes.run_all(args.probes, args.tmp)
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
