"""Tests of the benchmark itself: shims, span accounting, gates, schedule.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import gate
import hostref
import service_load
import spans
from spans import SpanRecorder, install, layer_metrics
from workloads import canonical

ROOT = Path(__file__).resolve().parents[2]


def _current(entry_points):
    """Every object an install would replace, keyed by where it lives."""
    import importlib

    found = {}
    for _, module_name, attr in entry_points:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found[attr] = vars(getattr(module, cls_name))[meth]
        else:
            for mod in spans._repro_modules():
                for name, value in vars(mod).items():
                    if value is getattr(module, attr):
                        found[f"{mod.__name__}.{name}"] = value
    from repro.core.suite import SUITE

    found.update({f"SUITE.{k}": v for k, v in SUITE.items()})
    return found


def test_install_and_uninstall_restore_the_originals():
    import repro.service.server  # noqa: F401 - holds a run_suite alias

    before = _current(spans.ENTRY_POINTS)
    wraps = install(SpanRecorder())
    assert not wraps.missing
    during = _current(spans.ENTRY_POINTS)
    assert all(during[key] is not before[key] for key in before)
    assert repro.service.server.run_suite is not before["repro.core.suite.run_suite"]
    wraps.uninstall()
    after = _current(spans.ENTRY_POINTS)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_vanished_entry_point_is_a_missing_metric_not_a_crash():
    entry_points = (
        ("sim", "repro.sim.engine", "Simulator.no_such_method"),
        ("power", "repro.no_such_module", "PowerModel.breakdown"),
        ("cache", "repro.cache.store", "ResultCache.get"),
    )
    with install(SpanRecorder(), entry_points, suite_module=None) as wraps:
        assert sorted(wraps.missing) == [
            "repro.no_such_module:PowerModel.breakdown",
            "repro.sim.engine:Simulator.no_such_method",
        ]
        metrics = layer_metrics(wraps.recorder.totals(), wraps.installed)
    assert "cache.gets" in metrics
    assert not [name for name in metrics if name.startswith(("sim.", "power."))]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_and_unattributed_on_synthetic_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def advance(seconds):
        clock.now += seconds

    breakdown = rec.wrap("power", "PowerModel.breakdown", lambda: advance(1.0))

    def run_until_body():
        advance(2.0)
        breakdown()
        advance(0.5)

    run_until = rec.wrap("sim", "Simulator.run_until", run_until_body)
    run_for = rec.wrap("sim", "Simulator.run_for", run_until)  # nested, same layer

    def experiment_body():
        advance(3.0)
        run_for()
        run_until()
        advance(0.25)

    experiment = rec.wrap("core", "exp.fig3_transition_delay", experiment_body)
    experiment()

    totals = rec.totals()
    stats = totals["stats"]
    # 3 + (2 + 1 + 0.5) * 2 + 0.25 seconds in all.
    assert totals["root_s"] == pytest.approx(10.25)
    assert stats["PowerModel.breakdown"][:3] == [2, pytest.approx(2.0), pytest.approx(2.0)]
    assert stats["Simulator.run_until"][1] == pytest.approx(5.0)
    assert stats["Simulator.run_for"][1] == pytest.approx(0.0)
    assert stats["Simulator.run_until"][3] == 1  # once outermost in sim
    assert stats["Simulator.run_for"][3] == 1
    assert stats["exp.fig3_transition_delay"][1] == pytest.approx(3.25)

    metrics = layer_metrics(totals, dict(rec.layers))
    assert metrics["sim.s"] == pytest.approx(5.0)
    assert metrics["sim.calls"] == 3
    assert metrics["power.s"] == pytest.approx(2.0)
    assert metrics["exp.fig3_transition_delay.s"] == pytest.approx(10.25)
    assert metrics["core.unattributed_s"] == pytest.approx(3.25)
    assert metrics["sim.share"] == pytest.approx(5.0 / 10.25)
    layer_self = metrics["sim.s"] + metrics["power.s"] + metrics["core.unattributed_s"]
    assert layer_self == pytest.approx(totals["root_s"])


def test_a_forked_child_reports_only_its_own_spans(tmp_path):
    rec = SpanRecorder(dump_dir=str(tmp_path))
    work = rec.wrap("core", "exp.x", lambda: None)
    work()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        rec.after_fork_in_child()
        work()
        work()
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    child = json.loads((tmp_path / f"{pid}.json").read_text())
    assert child["stats"]["exp.x"][0] == 2
    assert rec.totals()["stats"]["exp.x"][0] == 1


def test_traced_suite_document_is_byte_identical_to_untraced():
    from repro.core import suite
    from repro.core.experiment import ExperimentConfig

    # Every entry but the two ~11 s ones, on the golden's configuration.
    only = [n for n in suite.SUITE if n not in (
        "fig5_memory_performance", "fig9_rapl_quality")]
    config = ExperimentConfig(seed=gate.GOLDEN_SEED, scale=0.02)
    plain = suite.suite_to_dict(suite.run_suite(config, only=only))
    rec = SpanRecorder()
    with install(rec) as wraps:
        traced = suite.suite_to_dict(suite.run_suite(config, only=only))
        metrics = layer_metrics(rec.totals(), wraps.installed)
    assert canonical(traced) == canonical(plain)
    golden = json.loads((ROOT / gate.GOLDEN_PATH).read_text())
    assert plain["experiments"] == {n: golden["experiments"][n] for n in only}
    assert metrics["machine.settles"] > 0 and metrics["sim.calls"] > 0
    assert metrics["core.unattributed_s"] > 0


def test_gate_rejects_a_mutated_suite_document():
    golden = json.loads((ROOT / gate.GOLDEN_PATH).read_text())
    assert gate.suite_problems(golden, ROOT) == []
    mutated = json.loads(json.dumps(golden))
    mutated["experiments"]["fig7_idle_power"]["comparisons"][0]["measured_value"] += 1e-9
    assert gate.suite_problems(mutated, ROOT)
    assert gate.tables_ok(golden) == []
    mutated["experiments"]["fig7_idle_power"]["all_ok"] = False
    assert gate.tables_ok(mutated) == ["fig7_idle_power: table all_ok is not true"]


def test_gate_rejects_mismatched_and_refused_service_responses():
    a, b = (("fig7_idle_power",), 1), (("fig8_cstate_latency",), 2)
    body_a = gate.render({"experiments": {"fig7_idle_power": {}}})
    body_b = gate.render({"experiments": {"fig8_cstate_latency": {}}})
    responses = [
        {"spec": a, "status": 200, "body": body_a},
        {"spec": a, "status": 200, "body": body_a},
        {"spec": b, "status": 200, "body": body_b},
        {"spec": b, "status": 200, "body": body_b.replace(b"\n", b"\n ", 1)},
        {"spec": a, "status": 429, "body": None},
        {"spec": b, "status": 200, "body": body_a},  # wrong experiments
    ]
    problems = gate.service_problems(responses, {})
    assert sorted(problems) == [2, 3, 4, 5]
    assert "not byte-identical" in problems[2][0]
    assert problems[4] == ["status 429"]
    # Responses that agree with each other but not with a direct run.
    direct = {a: body_a.replace(b"{}", b"{\"x\": 1}")}
    assert sorted(gate.service_problems(responses[:2], direct)) == [0, 1]
    assert gate.service_problems(responses[:2], {a: body_a}) == {}


def test_host_reference_is_the_harmonic_mean_and_the_sampler_restores_sigalrm():
    import signal
    import time

    # A stalled unit barely moves the harmonic mean; a mean would double.
    assert hostref.unit_s([0.004, 0.004, 0.004, 0.016]) == pytest.approx(0.016 / 3.25)
    assert hostref.unit_s([]) > 0
    assert hostref.reference_unit() == hostref.reference_unit()

    def previous(signum, frame):  # pragma: no cover - never called
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with hostref.Sampler(period_s=0.02) as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
        assert len(sampler.samples) >= 3
        assert sampler.spent_s == pytest.approx(sum(sampler.samples))
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_percentile_needs_ten_samples_beyond_it():
    assert gate.percentile(range(20), 0.5) == 9.5
    with pytest.raises(ValueError):
        gate.percentile(range(19), 0.5)
    with pytest.raises(ValueError):
        gate.percentile(range(99), 0.9)
    assert gate.percentile(range(100), 0.9) == pytest.approx(89.1)


def test_service_schedule_is_seeded_and_mixes_hits_misses_joins_traces():
    first = service_load.schedule(11, 30)
    assert first == service_load.schedule(11, 30)
    assert first != service_load.schedule(12, 30)
    kinds = [r.kind for r in first]
    assert kinds.count("new") == kinds.count("repeat") == 36
    assert kinds.count("duplicate") == 6
    new_specs = [r.spec for r in first if r.kind == "new"]
    assert len(set(new_specs)) == len(new_specs)
    assert [s[0] for s in new_specs] == list(service_load.COMBOS * 6)
    traced = [r for r in first if r.trace]
    assert [r.kind for r in traced].count("new") == 3
    assert [r.kind for r in traced].count("repeat") == 6
    sent = set()
    for r in first:
        if r.kind == "repeat":
            assert r.spec in sent
        sent.add(r.spec)
