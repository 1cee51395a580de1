"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload wisc-mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, with times scaled to a
nominal host speed (see ``perfbench/measure.py``); ``--trace 1`` alternates
one-second slices without and with the layer wrappers installed, prints
every per-layer metric and writes the spans to ``.perfbench/``.  The last line
of standard output is one JSON object; the exit code is 1 when any
result was wrong, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run before and after the measured phase;
#: ``setup_s`` is the median of all of them.  Host speed drifts in phases
#: of seconds to minutes, so the set-ups are taken half a run apart.
SETUP_BEFORE = 1
SETUP_AFTER = 2
SPAN_DIR = ".perfbench"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(workload, inputs, repeats: int):
    """Set the workload up ``repeats`` times; keeps the last engine.

    Each set-up time is scaled to the nominal host speed by calibrations
    made just before and just after it."""
    from perfbench.measure import REF_NOMINAL_S, HostSpeed

    env, times = None, []
    for _ in range(repeats):
        if env is not None:
            workload.teardown(env)
            env = None
        gc.collect()
        speed = HostSpeed()
        before = speed.reference()
        started = time.perf_counter()
        env = workload.setup(inputs)
        elapsed = time.perf_counter() - started
        after = speed.reference()
        times.append(elapsed * 2.0 * REF_NOMINAL_S / (before + after))
    return env, times


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.measure import (
        END_TO_END_UNITS,
        HostSpeed,
        Recorder,
        end_to_end,
        host_speed,
        rss_peak_mb,
        sample_counts,
    )
    from perfbench.tracing import (
        PER_LAYER_UNITS,
        layer_points,
        per_layer,
        self_checks,
        traced_measure,
    )
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.generate(seed, seconds)
    print(f"workload {name} seed {seed}: inputs digest {inputs.digest()}")
    env, setups = _setup(workload, inputs, 1 if trace else SETUP_BEFORE)
    try:
        workload.warm(env, inputs)
        gc.collect()
        if not trace:
            rec = Recorder(speed=HostSpeed())
            if not workload.measure(env, inputs, rec, seconds):
                print("note: the schedule ran out before the time did")
            rss_mb = rss_peak_mb()
            units, recorders = END_TO_END_UNITS, [rec]
            wrong = rec.wrong + workload.verify(env, inputs)
        else:
            originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in layer_points()]
            tracer, rec, untraced, delta = traced_measure(workload, env, inputs, seconds)
            metrics = per_layer(tracer, rec, untraced, delta)
            units, recorders = PER_LAYER_UNITS, [untraced, rec]
            wrong = untraced.wrong + rec.wrong + self_checks(tracer, delta)
            wrong += [
                f"{attr} of {owner} not restored"
                for owner, attr, original in originals
                if owner.__dict__[attr] is not original
            ]
            wrong += workload.verify(env, inputs)
            os.makedirs(SPAN_DIR, exist_ok=True)
            path = os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.tsv")
            written, dropped = tracer.write_spans(path)
            print(f"spans: {written} written to {path}, {dropped} over the cap")
    finally:
        workload.teardown(env)
    if not trace:
        extra, more = _setup(workload, inputs, SETUP_AFTER)
        workload.teardown(extra)
        setups += more
        metrics = end_to_end(rec, statistics.median(setups), rss_mb)
    print("setup_s runs: " + ", ".join(f"{value:.3f}" for value in setups))
    for label, rec in zip(("untraced", "traced") if trace else ("measured",), recorders):
        print(f"{label} {sample_counts(rec)}")
    print(f"host speed: {host_speed(recorders[0].speed)}")
    for metric, value in metrics.items():
        print(f"{metric:28s} {value:14.4f} {units[metric]}")
    for message in wrong[:20]:
        print(f"WRONG: {message}")
    for rec in recorders:
        for failure, count in sorted(rec.failures.items()):
            print(f"FAILED: {failure} x{count}")
    return {
        "correct": not wrong,
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": sum(rec.failed for rec in recorders),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        missing = ROOT / "src" / "repro"
        print(f"perfbench: no program to measure ({missing} is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if hasattr(os, "sched_setaffinity"):
        # One CPU for every thread: the client threads and the daemon's
        # loop take turns on the interpreter lock anyway, and a hand-off
        # within one CPU does not wait for the other CPU to wake up.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in WORKLOADS:
        known = sorted(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
