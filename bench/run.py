#!/usr/bin/env python3
"""The FedProx round benchmark: one harness for every performance claim.

Three ways in::

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One measurement (the BENCHMARK.json contract): the last line of
        standard output is one JSON object with ``correct``, ``attempted``,
        ``failed`` and ``metrics`` — the end-to-end metrics with
        ``--trace 0``, the per-layer metrics with ``--trace 1``.

    python bench/run.py [--seed N] [--repeats R] [--workload NAME] [--smoke]
                        [--out FILE] [--update-golden]
        The whole suite: R untraced repeats run round-robin across the
        workloads, one traced pass per workload, the layer probes once;
        prints every metric by name with its unit and writes FILE.

    python bench/run.py compare A.json B.json
        Applies the bounds of BENCHMARK.json to two suite result files.

Every run happens in a fresh child process (``child.py``) with BLAS pinned
to one thread; this file never imports numpy or the code under test.  All
durations are on the calibrated clock of ``clock.py``; the results file
keeps each run's raw wall time and machine speed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import BASE_SECONDS, WORKLOADS  # noqa: E402  (no heavy imports)

#: BLAS/OpenMP pools are pinned to one thread: unpinned, the d=610 logistic
#: workload burns 2.0x its wall time in CPU and repeats only within ±17 %.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups measured per single measurement (their median is ``setup_s``).
SETUPS = 3
PROBE_CALLS = 30
SMOKE_PROBE_CALLS = 3
CHILD_TIMEOUT_S = 170
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_REL_TOL = 1e-6


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------- #
def spawn(tmp: str, **options) -> dict:
    """Run ``child.py`` once and return the JSON object on its last line."""
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, os.path.join(HERE, "child.py"), "--tmp", tmp,
               "--spawned-at", repr(time.monotonic())]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            command.append(flag)
        elif value is not False:
            command += [flag, str(value)]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b))


def golden_issues(run: dict, golden: dict) -> list:
    """Differences between a seed-0, full-size run and its golden values."""
    issues = []
    if not _close(run["final_train_loss"], golden["final_train_loss"]):
        issues.append(
            f"final_train_loss {run['final_train_loss']!r} != golden "
            f"{golden['final_train_loss']!r}"
        )
    if run["rounds_to_target"] != golden["rounds_to_target"]:
        issues.append(
            f"rounds_to_target {run['rounds_to_target']} != golden "
            f"{golden['rounds_to_target']}"
        )
    if run["uplink_bytes"] != golden["uplink_bytes"]:
        issues.append(
            f"uplink_bytes {run['uplink_bytes']} != golden {golden['uplink_bytes']}"
        )
    ours, theirs = run["trajectory"], golden["trajectory"]
    if [r for r, _ in ours] != [r for r, _ in theirs]:
        issues.append("evaluated rounds differ from golden")
    elif not all(_close(a, b) for (_, a), (_, b) in zip(ours, theirs)):
        issues.append("loss trajectory differs from golden beyond 1e-6 relative")
    return issues


def check_run(run: dict, smoke: bool) -> tuple:
    """``(attempted, failed, messages)``: a run's rounds plus its output checks."""
    checks = {
        "finite": [] if run["finite"] else ["global model is not finite"],
        "target": [] if run["rounds_to_target"] is not None else [
            f"train loss never reached the target {run['target']}"
        ],
    }
    if run["ledger_issues"] is not None:
        checks["ledger"] = run["ledger_issues"]
    golden = None if smoke else load_golden().get(run["workload"])
    if golden and run["seed"] == 0 and run["rounds"] == golden["rounds"]:
        checks["golden"] = golden_issues(run, golden)
    messages = [f"{name}: {issue}" for name, issues in checks.items() for issue in issues]
    if run["failed_rounds"]:
        messages.insert(0, f"{run['failed_rounds']} round(s) did not complete")
    failed = run["failed_rounds"] + sum(1 for issues in checks.values() if issues)
    return run["rounds"] + len(checks), failed, messages


def end_to_end(run: dict, setups: list) -> dict:
    wall = run["wall_s"]
    reached = run["time_to_target_s"]
    return {
        "setup_s": statistics.median(setups),
        "rounds_per_s": run["rounds_completed"] / wall,
        "updates_per_s": run["updates_delivered"] / wall,
        # A missed target is a failed operation; the time reported is the
        # whole timed region, the least it could have taken.
        "time_to_target_s": wall if reached is None else reached,
        "peak_rss_mb": run["peak_rss_mb"],
        "uplink_bytes_per_round": run["uplink_bytes"] / run["rounds"],
        "final_train_loss": run["final_train_loss"],
    }


def probe_calls(smoke: bool) -> int:
    return SMOKE_PROBE_CALLS if smoke else PROBE_CALLS


def run_probes(tmp: str, smoke: bool) -> dict:
    """The layer probes (workload- and seed-independent), in their own process."""
    return spawn(tmp, probes=probe_calls(smoke))


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: str,
            smoke: bool = False, setups: int = SETUPS) -> dict:
    """One measurement of one workload; see the module docstring.

    Untraced: the end-to-end values, ``setups`` set-ups in all.  Traced: an
    untraced and a traced child of the same seed, for the per-layer values
    and the overhead between the two.
    """
    rounds = WORKLOADS[name].scaled_rounds(seconds, smoke)
    common = dict(workload=name, seed=seed, smoke=smoke)
    run = spawn(tmp, rounds=rounds, trace=0, **common)
    attempted, failed, failures = check_run(run, smoke)
    repeats = [run]
    if trace:
        traced = spawn(tmp, rounds=rounds, trace=1, **common)
        repeats.append(traced)
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / run["wall_s"]
        key = "digest"
    else:
        repeats += [spawn(tmp, rounds=0, trace=0, **common) for _ in range(setups - 1)]
        values = end_to_end(run, [r["setup_s"] for r in repeats])
        key = "warmup_digest"
    # Every child of one measurement ran the same seed: same history.
    attempted += 1
    if len({r[key] for r in repeats}) > 1:
        failed += 1
        failures.append(f"{key} differs between repeats of the same seed")
    return {
        "workload": name, "seed": seed, "rounds": rounds,
        "attempted": attempted, "failed": failed, "failures": failures,
        "values": values, "digest": run["digest"], "run": run,
        "tiling": traced["tiling"] if trace else None,
    }


# --------------------------------------------------------------------- #
# Machine
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_warning() -> str:
    load, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if load > nproc:
        return (f"WARNING: load average {load:.2f} exceeds the {nproc} cores "
                "of this machine; timings below are contended")
    return ""


def fingerprint(tmp: str) -> dict:
    """The machine and software the numbers were taken on.

    Package, git SHA, Python, numpy, BLAS and platform come from a child
    (``repro.telemetry.environment_info`` plus ``numpy.show_config``).
    """
    return dict(
        spawn(tmp, machine=True),
        nproc=os.cpu_count(),
        cpu_model=_cpu_model(),
        thread_pins={name: "1" for name in THREAD_PINS},
        loadavg_start=os.getloadavg(),
    )


# --------------------------------------------------------------------- #
# Suite
# --------------------------------------------------------------------- #
def summarize(values: list) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_suite(args) -> int:
    contract = load_contract()
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    repeats = 1 if args.smoke else args.repeats
    seconds = contract["run_seconds"]
    warning = load_warning()
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        machine = fingerprint(tmp)
        runs = {name: [] for name in names}
        for repeat in range(repeats):  # round-robin: drift hits every workload alike
            for name in names:
                print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr)
                runs[name].append(
                    measure(name, args.seed, seconds, False, tmp, args.smoke, setups=1)
                )
        traced = {}
        for name in names:
            print(f"[traced] {name}", file=sys.stderr)
            traced[name] = measure(name, args.seed, seconds, True, tmp, args.smoke)
        print("[probes]", file=sys.stderr)
        probes = run_probes(tmp, args.smoke)
    machine["loadavg_end"] = os.getloadavg()

    results = {"machine": machine, "seed": args.seed, "repeats": repeats,
               "smoke": args.smoke, "run_seconds": seconds, "probes": probes,
               "workloads": {}}
    for name in names:
        first = runs[name][0]
        attempted = sum(m["attempted"] for m in runs[name]) + traced[name]["attempted"]
        failed = sum(m["failed"] for m in runs[name]) + traced[name]["failed"]
        failures = [f for m in runs[name] + [traced[name]] for f in m["failures"]]
        for index, m in enumerate(runs[name][1:], start=2):
            attempted += 1
            if m["digest"] != first["digest"]:
                failed += 1
                failures.append(f"history_digest of repeat {index} differs from repeat 1")
        results["workloads"][name] = {
            "rounds": first["rounds"],
            "attempted_ops": attempted,
            "failed_ops": failed,
            "failures": failures,
            "history_digest": first["digest"],
            "end_to_end": {
                metric["name"]: summarize([m["values"][metric["name"]] for m in runs[name]])
                for metric in contract["end_to_end"]
            },
            "per_layer": traced[name]["values"],
            "tiling": traced[name]["tiling"],
            # The wall clock behind the calibrated numbers, run by run.
            "raw": {
                key: [m["run"][key] for m in runs[name]]
                for key in ("wall_raw_s", "setup_raw_s", "machine_speed")
            },
        }

    print_suite(results, contract, warning or load_warning())
    if args.update_golden:
        write_golden(runs, args.seed)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if any(w["failed_ops"] for w in results["workloads"].values()) else 0


def print_suite(results: dict, contract: dict, warning: str) -> None:
    machine = results["machine"]
    print(f"machine: {machine['cpu_model']} x{machine['nproc']}, python "
          f"{machine['python']}, numpy {machine['numpy']} ({machine['blas']}), "
          f"git {machine['git_sha']}, load {machine['loadavg_start'][0]:.2f} -> "
          f"{machine['loadavg_end'][0]:.2f}")
    if warning:
        print(warning)
    for name, w in results["workloads"].items():
        speeds = w["raw"]["machine_speed"]
        print(f"\n== {name}: {w['rounds']} rounds, seed {results['seed']}, "
              f"failed {w['failed_ops']}/{w['attempted_ops']}, machine speed "
              f"{min(speeds):.2f}-{max(speeds):.2f} ==")
        for failure in w["failures"]:
            print(f"  FAILED: {failure}")
        for metric in contract["end_to_end"]:
            s = w["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<28} {s['median']:>14.6g} {metric['unit']:<6}"
                  f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]"
                  f" {metric['better']} is better, bound {metric['bound']}")
        print_layers(w["per_layer"], contract)
    print(f"\n== probes (fixed inputs, median of {probe_calls(results['smoke'])} "
          "calls) ==")
    print_layers(results["probes"], contract)


def print_layers(values: dict, contract: dict) -> None:
    for metric in contract["per_layer"]:
        if metric["name"] in values:
            print(f"  {metric['name']:<36} {values[metric['name']]:>14.6g}"
                  f" {metric['unit']:<6} {metric['better']} is better")


def write_golden(runs: dict, seed: int) -> None:
    if seed != 0:
        raise SystemExit("golden values are the seed-0 values: rerun with --seed 0")
    golden = load_golden() if os.path.exists(GOLDEN_PATH) else {}
    for name, measurements in runs.items():
        run = measurements[0]["run"]
        golden[name] = {key: run[key] for key in (
            "rounds", "final_train_loss", "rounds_to_target", "uplink_bytes",
            "trajectory",
        )}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


# --------------------------------------------------------------------- #
# Compare
# --------------------------------------------------------------------- #
def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``same`` / ``unresolved`` for B against A."""
    sign = 1.0 if better == "lower" else -1.0  # badness = sign * value
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        # Too noisy for the medians to decide: only disjoint runs resolve it.
        bad_a = [sign * v for v in a["values"]]
        bad_b = [sign * v for v in b["values"]]
        if min(bad_b) > max(bad_a):
            return "worse"
        if max(bad_b) < min(bad_a):
            return "better"
        return "unresolved"
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def run_compare(args) -> int:
    contract = load_contract()
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    bad = 0
    print(f"{'metric':<24} {'workload':<20} {'A median':>13} {'B median':>13} "
          f"{'change':>8} {'bound':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            sa, sb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            result = verdict(sa, sb, metric["better"], metric["bound"])
            bad += result == "worse"
            change = (sb["median"] - sa["median"]) / abs(sa["median"])
            print(f"{metric['name']:<24} {name:<20} {sa['median']:>13.6g} "
                  f"{sb['median']:>13.6g} {change:>+8.2%} {metric['bound']:>6}  {result}")
        rate_a = wa["failed_ops"] / wa["attempted_ops"]
        rate_b = wb["failed_ops"] / wb["attempted_ops"]
        rose = rate_b > rate_a
        bad += rose
        print(f"{'failed_ops/attempted_ops':<24} {name:<20} {rate_a:>13.6g} "
              f"{rate_b:>13.6g} {'':>8} {'':>6}  {'worse' if rose else 'same'}")
    return 1 if bad else 0


# --------------------------------------------------------------------- #
def run_single(args) -> int:
    contract = load_contract()
    kind = "per_layer" if args.trace else "end_to_end"
    warning = load_warning()
    if warning:
        print(warning, file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp,
                    args.smoke)
        if args.trace:
            m["values"].update(run_probes(tmp, args.smoke))
    for failure in m["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    metrics = {
        metric["name"]: {"value": m["values"][metric["name"]], "unit": metric["unit"]}
        for metric in contract[kind]
    }
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: src/repro not found next to bench/ — run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return run_compare(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="given: one measurement, JSON on the last line")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="4 rounds per workload, 1 repeat, probes at 3 calls")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "latest.json"))
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this seed-0 suite run")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
