"""Latency samples, outcome counts and the end-to-end metrics built from them.

Times are reported at a fixed nominal host speed.  On a shared host the
speed of plain Python code swings by up to 2x in phases lasting seconds
to minutes, in CPU time as much as in wall time, so raw run medians move
with each run's share of slow phases.  :class:`HostSpeed` runs a fixed
reference kernel between operations (every :data:`CALIBRATE_EVERY`
seconds) and scales each latency by how long the kernel took around it.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from repro import PrimaError

#: Latency limit of ``point_slo_ratio`` (ROADMAP item 4's 20 ms).
SLO_SECONDS = 0.020
#: Operation kinds whose atoms and time make up ``atoms_per_s``: set
#: queries and recursive (``piece_list``) lookups.
CONSTRUCTION_KINDS = ("set", "recursive")
#: CPU seconds of one :func:`reference_kernel` call at the nominal host
#: speed all times are reported at (about the median on a shared 2-vCPU
#: Intel Xeon VM at 2.1 GHz).
REF_NOMINAL_S = 0.00025
#: Seconds between two calibrations during a measured phase.
CALIBRATE_EVERY = 0.01
#: Calibrations on each side of a sample that set its speed factor.
CALIBRATION_WINDOW = 2


class WrongResult(Exception):
    """An operation returned something other than its known answer."""


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def rss_peak_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def reference_kernel() -> int:
    """Fixed interpreter work that the host-speed factor is measured on.

    It allocates small dicts, tuples, lists and strings, as the program's
    record decoding and molecule construction do.  On a shared 2-vCPU
    Xeon VM, a slow phase slowed it 1.72-1.75x and a prepared lookup
    1.76x, where a pure loop of calls and dict updates slowed 1.95-2.0x."""
    kept = []
    for i in range(600):
        record = {"k": i, "v": (i, i + 1)}
        kept.append([record, str(i)])
    return len(kept)


class HostSpeed:
    """How fast the host runs Python code, sampled through a measured phase.

    A calibration runs :func:`reference_kernel` once with the garbage
    collector paused and records the CPU time of this thread
    (``thread_time``, so waiting for the interpreter lock or the
    scheduler does not count).  A latency is scaled by ``REF_NOMINAL_S``
    over the median of the calibrations made while it ran and the
    :data:`CALIBRATION_WINDOW` on each side of it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time()
            reference_kernel()
            took = time.thread_time() - started
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.refs.append(took)
        return took

    def maybe_sample(self) -> None:
        """Calibrate when the last calibration is older than
        :data:`CALIBRATE_EVERY`; called between operations."""
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY:
            self.sample()

    def reference(self) -> float:
        """Median kernel time over nine calibrations made now."""
        return statistics.median(self.sample() for _ in range(9))

    def factor(self, start: float, end: float) -> float:
        """Nominal over the kernel time from just before ``start`` to just
        after ``end``."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        window = self.refs[max(low - CALIBRATION_WINDOW, 0) : high + CALIBRATION_WINDOW]
        return REF_NOMINAL_S / statistics.median(window)

    def run_factor(self) -> float:
        """Nominal over the median kernel time of the whole phase."""
        return REF_NOMINAL_S / statistics.median(self.refs) if self.refs else 1.0


class Recorder:
    """Times operations, checks their results and counts their outcomes.

    An operation is a callable returning ``(result, first_at)``:
    ``first_at`` is the ``perf_counter`` instant the first molecule of a
    set query was in hand (None for other kinds).  Every workload is a
    closed loop with one client thread, so latency runs from the
    operation's start.  The result check runs after the clock stops.
    With a ``speed``, the workload calibrates it between operations and
    :meth:`scaled` reports latencies at the nominal host speed; without
    one, raw.
    """

    def __init__(self, tracer: Any = None, speed: HostSpeed | None = None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: ``perf_counter`` origin of every sample, parallel to ``samples``.
        self.origins: dict[str, list[float]] = defaultdict(list)
        #: Time to the first molecule, parallel to ``samples["set"]``.
        self.first: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.construct_atoms = 0
        self.molecules = 0
        self.atoms = 0
        self.point_attempts = 0

    def run(
        self,
        kind: str,
        op: Callable[[], tuple[Any, float | None]],
        check: Callable[[Any], None],
        session: str | None = None,
    ) -> Any:
        """Run one operation of ``kind``; ``session`` names the daemon
        session serving it, so the traced pass bills server spans to it."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind, session)
        origin = time.perf_counter()
        try:
            result, first_at = op()
        except PrimaError as exc:
            self.attempted += 1
            self.failed += 1
            self.failures[f"{kind}: {type(exc).__name__}"] += 1
            if kind == "point":
                self.point_attempts += 1
            return None
        finally:
            if tracer is not None:
                tracer.end_op()
        latency = time.perf_counter() - origin
        molecules = result if isinstance(result, list) else []
        atoms = sum(molecule.atom_count() for molecule in molecules)
        self.attempted += 1
        self.samples[kind].append(latency)
        self.origins[kind].append(origin)
        self.molecules += len(molecules)
        self.atoms += atoms
        if kind == "point":
            self.point_attempts += 1
        if kind == "set":
            self.first.append(first_at - origin)
        if kind in CONSTRUCTION_KINDS:
            self.construct_atoms += atoms
        try:
            check(result)
        except WrongResult as exc:
            self.wrong.append(f"{kind}: {exc}")
        return result

    def scaled(self, kind: str, values: list[float] | None = None) -> list[float]:
        """Latencies of ``kind`` (or ``values`` parallel to them) at the
        nominal host speed."""
        latencies = self.samples.get(kind, [])
        values = latencies if values is None else values
        if self.speed is None:
            return list(values)
        factor = self.speed.factor
        return [
            value * factor(origin, origin + latency)
            for value, origin, latency in zip(values, self.origins[kind], latencies)
        ]

    def ms(self, kind: str, q: float) -> float:
        return percentile(self.scaled(kind), q) * 1000.0

    def slo_ratio(self) -> float:
        """Share of point lookups answered within :data:`SLO_SECONDS`;
        a failed lookup counts as a miss."""
        met = sum(latency <= SLO_SECONDS for latency in self.scaled("point"))
        return met / self.point_attempts

    def construct_seconds(self) -> float:
        return sum(sum(self.scaled(kind)) for kind in CONSTRUCTION_KINDS)


#: The end-to-end metrics and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "point_slo_ratio": "ratio",
    "set_first_p50_ms": "ms",
    "set_p50_ms": "ms",
    "set_p90_ms": "ms",
    "topk_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "atoms_per_s": "atoms/s",
    "rss_peak_mb": "MB",
}


def end_to_end(rec: Recorder, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    return {
        "setup_s": setup_s,
        "point_p50_ms": rec.ms("point", 50),
        "point_p95_ms": rec.ms("point", 95),
        "point_slo_ratio": rec.slo_ratio(),
        "set_first_p50_ms": percentile(rec.scaled("set", rec.first), 50) * 1000.0,
        "set_p50_ms": rec.ms("set", 50),
        "set_p90_ms": rec.ms("set", 90),
        "topk_p50_ms": rec.ms("topk", 50),
        "write_p50_ms": rec.ms("write", 50),
        "write_p90_ms": rec.ms("write", 90),
        "atoms_per_s": rec.construct_atoms / rec.construct_seconds(),
        "rss_peak_mb": rss_mb,
    }


def sample_counts(rec: Recorder) -> str:
    counts = ", ".join(f"{kind}={len(values)}" for kind, values in sorted(rec.samples.items()))
    return f"samples: {counts}"


def host_speed(speed: HostSpeed | None) -> str:
    """The calibrations of a phase: count, kernel time quartiles and the
    run's factor, so a run on a slow stretch of the host can be seen."""
    if speed is None or len(speed.refs) < 2:
        return "not calibrated"
    low, mid, high = (1000.0 * q for q in statistics.quantiles(speed.refs, n=4))
    return (
        f"{len(speed.refs)} calibrations, kernel {mid:.3f} ms (quartiles {low:.3f}-{high:.3f}),"
        f" nominal {1000.0 * REF_NOMINAL_S:.3f} ms"
    )
