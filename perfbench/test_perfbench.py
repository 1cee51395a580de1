"""Self-checks of the benchmark itself, on small instances of its workloads.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.measure import END_TO_END_UNITS, REF_NOMINAL_S, HostSpeed, Recorder
from perfbench.tracing import (
    PER_LAYER_UNITS,
    Tracer,
    layer_points,
    per_layer,
    self_checks,
    traced_measure,
)
from perfbench.workloads import (
    WORKLOADS,
    BrepCheckout,
    DaemonServe,
    ShardScatter,
    WiscMixed,
    drain,
)

SMALL = {
    "wisc-mixed": lambda: WiscMixed(items=1_000, buffer_pages=4),
    "brep-checkout": lambda: BrepCheckout(solids=16),
    "shard-scatter": lambda: ShardScatter(items=400),
    "daemon-serve": lambda: DaemonServe(items=400),
}


def _originals() -> list[tuple]:
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in layer_points()]


def _unchanged(originals: list[tuple]) -> bool:
    return all(owner.__dict__[attr] is original for owner, attr, original in originals)


def _started(name: str, seconds: float = 0.5):
    workload = SMALL[name]()
    inputs = workload.generate(7, seconds)
    env = workload.setup(inputs)
    workload.warm(env, inputs)
    return workload, inputs, env


def _traced_phase(workload, inputs, env, seconds: float = 0.3):
    """One untraced and one traced slice of ``seconds`` each."""
    return traced_measure(workload, env, inputs, 2 * seconds, slice_s=seconds)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_inputs(name):
    workload = SMALL[name]()
    assert workload.generate(3, 1.0).digest() == workload.generate(3, 1.0).digest()
    assert workload.generate(3, 1.0).digest() != workload.generate(4, 1.0).digest()


class _GuardedRecorder(Recorder):
    """Asserts before every operation that no layer function is wrapped."""

    def __init__(self, originals):
        super().__init__()
        self.originals = originals
        self.checked = 0

    def run(self, *args, **kwargs):
        assert _unchanged(self.originals)
        self.checked += 1
        return super().run(*args, **kwargs)


def test_untraced_run_installs_no_wrapper():
    originals = _originals()
    workload, inputs, env = _started("wisc-mixed")
    try:
        rec = _GuardedRecorder(originals)
        workload.measure(env, inputs, rec, 0.2)
        assert rec.checked > 0 and not rec.wrong
    finally:
        workload.teardown(env)
    assert _unchanged(originals)


def test_uninstall_restores_every_wrapped_function():
    originals = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert not any(owner.__dict__[attr] is orig for owner, attr, orig in originals)
    finally:
        tracer.uninstall()
    assert _unchanged(originals)


@pytest.mark.parametrize("name", ["wisc-mixed", "brep-checkout"])
def test_traced_counts_equal_program_counters(name):
    workload, inputs, env = _started(name)
    try:
        tracer, rec, untraced, delta = _traced_phase(workload, inputs, env)
    finally:
        workload.teardown(env)
    assert not rec.wrong and not untraced.wrong
    assert delta["fixes"] > 0
    assert self_checks(tracer, delta) == []
    metrics = per_layer(tracer, rec, untraced, delta)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["storage.fix.calls"] * rec.attempted == pytest.approx(delta["fixes"])
    assert metrics["access.decode.calls"] > 0 and metrics["data.construct.calls"] > 0


def test_daemon_spans_join_by_correlation_id():
    workload, inputs, env = _started("daemon-serve", seconds=1.0)
    try:
        tracer, rec, untraced, delta = _traced_phase(workload, inputs, env, seconds=0.5)
    finally:
        workload.teardown(env)
    assert not rec.wrong and self_checks(tracer, delta) == []
    waits = tracer.waits()
    assert waits and min(waits) >= 0.0
    metrics = per_layer(tracer, rec, untraced, delta)
    assert metrics["serve.encode.calls"] > 0 and metrics["serve.decode.calls"] > 0


@pytest.mark.parametrize("name", ["shard-scatter", "daemon-serve"])
def test_results_match_a_single_in_process_engine(name):
    workload, inputs, env = _started(name, seconds=1.0)
    try:
        rec = Recorder()
        workload.measure(env, inputs, rec, 0.3)
        assert rec.attempted > 0 and not rec.wrong and rec.failed == 0
        assert workload.verify(env, inputs) == []
    finally:
        workload.teardown(env)


def test_wisc_relation_size_is_the_same_at_every_block_boundary():
    workload, inputs, env = _started("wisc-mixed")
    try:
        rec = Recorder()
        workload.measure(env, inputs, rec, 0.3)
        assert env.position >= 2 and not rec.wrong and rec.failed == 0
        rows, _ = drain(env.conn.query("SELECT ALL FROM item", None))
        assert len(rows) == len(env.model.rows) == workload.items
    finally:
        workload.teardown(env)


def test_a_wrong_answer_is_reported():
    workload, inputs, env = _started("wisc-mixed")
    try:
        k = inputs.rows[0][0]
        grp, n, pad = env.model.rows[k]
        env.model.rows[k] = (grp, n + 1, pad)
        rec = Recorder()
        workload.run_op(env, ("point", k), rec)
        assert rec.attempted == 1 and rec.wrong
    finally:
        workload.teardown(env)


def test_latencies_are_scaled_by_the_calibrations_around_them():
    speed = HostSpeed()
    speed.times = [float(t) for t in range(10)]
    speed.refs = [REF_NOMINAL_S] * 5 + [2 * REF_NOMINAL_S] * 5
    rec = Recorder(speed=speed)
    for origin, latency in ((0.5, 0.010), (8.5, 0.010)):
        rec.samples["point"].append(latency)
        rec.origins["point"].append(origin)
    fast, slow = rec.scaled("point")
    assert fast == pytest.approx(0.010) and slow == pytest.approx(0.005)
    assert Recorder().scaled("point") == []


def test_measured_phase_calibrates_between_operations():
    workload, inputs, env = _started("wisc-mixed")
    try:
        rec = Recorder(speed=HostSpeed())
        workload.measure(env, inputs, rec, 0.3)
    finally:
        workload.teardown(env)
    assert len(rec.speed.refs) >= 5 and min(rec.speed.refs) > 0.0
    assert len(rec.scaled("point")) == len(rec.samples["point"]) > 0
