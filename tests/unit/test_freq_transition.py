"""Fig 3's polling loop: event-bounded strides against the per-quantum probe.

``FrequencyTransitionExperiment._one_switch`` skips the empty quanta
between queued events in one ``run_until``.  ``PerQuantumExperiment``
keeps the probe-by-probe loop as an oracle: both must measure the same
latencies, flag the same samples invalid and leave the clock at the
same instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.analysis.stats import within_interval
from repro.core.experiment import ExperimentConfig
from repro.core.freq_transition import (
    SAMPLE_TIMEOUT_NS,
    FrequencyTransitionExperiment,
)
from repro.sim.backends import resolve_backend
from repro.sim.engine import Simulator
from repro.units import ghz, ms, us


class PerQuantumExperiment(FrequencyTransitionExperiment):
    """The polling loop as the real benchmark runs it: one call per quantum."""

    def _one_switch(self, machine, cpu, core, target_hz, rng):
        sim = machine.sim
        t0 = sim.now_ns
        machine.os.set_frequency(cpu, target_hz)
        quantum = self._poll_quantum_ns(core)
        while abs(core.applied_freq_hz - target_hz) > 1e3:
            sim.run_for(quantum)
            if sim.now_ns - t0 > SAMPLE_TIMEOUT_NS:
                return sim.now_ns - t0, False
            quantum = self._poll_quantum_ns(core)
        latency_ns = sim.now_ns - t0
        probes = target_hz * (1.0 + rng.normal(0.0, 1e-4, size=100))
        valid = within_interval(target_hz, probes)
        sim.run_for(100 * self._poll_quantum_ns(core))
        return latency_ns, valid


@dataclass(frozen=True)
class ShuffledConfig(ExperimentConfig):
    """Builds machines in event-order shuffle mode."""

    shuffle_seed: int = 0

    def build_machine(self, **kwargs):
        kwargs.setdefault("event_order_shuffle", self.shuffle_seed)
        return super().build_machine(**kwargs)


def both_loops(config, from_hz, to_hz, n, **kwargs):
    stride = FrequencyTransitionExperiment(config).measure_pair(from_hz, to_hz, n, **kwargs)
    oracle = PerQuantumExperiment(config).measure_pair(from_hz, to_hz, n, **kwargs)
    return stride, oracle


def assert_same(stride, oracle):
    assert np.array_equal(stride.latencies_us, oracle.latencies_us)
    assert stride.n_invalid == oracle.n_invalid


class TestStrideMatchesPerQuantumLoop:
    def test_normal_down_switch(self, backend):
        stride, oracle = both_loops(
            ExperimentConfig(seed=3, backend=backend), ghz(2.2), ghz(1.5), 120
        )
        assert_same(stride, oracle)
        assert stride.n_invalid > 0  # the discard path ran too
        assert stride.min_us > 385.0

    def test_fast_return_up_switch(self, backend):
        stride, oracle = both_loops(
            ExperimentConfig(seed=3, backend=backend), ghz(2.2), ghz(2.5), 150
        )
        assert_same(stride, oracle)
        assert stride.min_us < 10.0  # the instant path ran

    def test_partial_down_switch(self, backend):
        stride, oracle = both_loops(
            ExperimentConfig(seed=3, backend=backend), ghz(2.5), ghz(2.2), 150
        )
        assert_same(stride, oracle)
        assert 100.0 < stride.min_us < 385.0  # the partial path ran

    def test_long_waits(self, backend):
        stride, oracle = both_loops(
            ExperimentConfig(seed=3, backend=backend), ghz(2.2), ghz(2.5), 60,
            min_wait_ms=5.0,
        )
        assert_same(stride, oracle)
        assert stride.min_us > 300.0

    def test_event_order_shuffle(self, backend):
        stride, oracle = both_loops(
            ShuffledConfig(seed=3, backend=backend, shuffle_seed=11),
            ghz(2.2), ghz(1.5), 60,
        )
        assert_same(stride, oracle)


def test_few_simulator_calls_per_switch(backend, monkeypatch):
    """The stride loop calls the simulator per event, not per quantum
    (the per-quantum loop needs ~400 calls for a ~900 us switch)."""
    cls = resolve_backend(backend).simulator_cls
    run_until = cls.run_until
    calls = []

    def counting(self, time_ns):
        calls.append(time_ns)
        return run_until(self, time_ns)

    monkeypatch.setattr(cls, "run_until", counting)
    n = 50
    FrequencyTransitionExperiment(ExperimentConfig(seed=1, backend=backend)).measure_pair(
        ghz(2.2), ghz(1.5), n
    )
    switches = 2 * n  # each sample switches there and back
    assert len(calls) / switches < 20


# --- boundaries, on a bare simulator ------------------------------------------

START_HZ = ghz(2.5)
QUANTUM_NS = 2_000  # the minimal workload's runtime at START_HZ
T0_NS = us(7) + 123


def bare_switch(backend, experiment_cls, plan, noise_period_ns=None):
    """Run one ``_one_switch`` on a bare simulator.

    ``plan`` is ``[(delay_ns, hz), ...]``: the clock changes the
    frequency request sets in motion.  Returns what the switch returned,
    where the clock ended and when each event fired.
    """
    sim = Simulator(backend=backend)
    core = SimpleNamespace(applied_freq_hz=START_HZ)
    fired = []

    def set_frequency(cpu, hz):
        for delay_ns, step_hz in plan:
            sim.schedule_after(delay_ns, lambda h=step_hz: apply(h))

    def apply(hz):
        fired.append(sim.now_ns)
        core.applied_freq_hz = hz

    if noise_period_ns is not None:
        sim.periodic(noise_period_ns, lambda: fired.append(sim.now_ns), phase_ns=17)
    sim.run_until(T0_NS)
    machine = SimpleNamespace(sim=sim, os=SimpleNamespace(set_frequency=set_frequency))
    rng = np.random.default_rng(5)
    result = experiment_cls()._one_switch(machine, 0, core, ghz(1.5), rng)
    return result, sim.now_ns, fired


class TestNextEventNs:
    def test_none_on_empty_queue(self, sim):
        assert sim.next_event_ns is None
        sim.run_until(us(3))
        assert sim.next_event_ns is None

    def test_skips_cancelled_head(self, sim):
        head = sim.schedule_at(us(2), lambda: None)
        sim.schedule_at(us(5), lambda: None)
        head.cancel()
        assert sim.next_event_ns == us(5)

    def test_earliest_live_event(self, sim):
        sim.schedule_at(us(9), lambda: None)
        sim.schedule_at(us(4), lambda: None)
        sim.schedule_after(us(6), lambda: None)
        assert sim.next_event_ns == us(4)
        sim.run_until(us(4))
        assert sim.next_event_ns == us(6)


class TestStrideBoundaries:
    @pytest.mark.parametrize(
        "plan, latency_ns",
        [
            ([(3 * QUANTUM_NS, ghz(1.5))], 3 * QUANTUM_NS),  # exactly on a boundary
            ([(3 * QUANTUM_NS + 1, ghz(1.5))], 4 * QUANTUM_NS),  # just past one
            ([(0, ghz(1.5))], QUANTUM_NS),  # due at the request itself
            # The quantum stretches from 2.0 us to 2.5 us mid-switch.
            ([(us(5), ghz(2.0)), (us(400), ghz(1.5))], None),
        ],
        ids=["on-boundary", "past-boundary", "at-now", "quantum-changes"],
    )
    def test_same_end_as_per_quantum_loop(self, backend, plan, latency_ns):
        stride = bare_switch(backend, FrequencyTransitionExperiment, plan, us(333) + 7)
        oracle = bare_switch(backend, PerQuantumExperiment, plan, us(333) + 7)
        assert stride == oracle
        (got_ns, _), _, _ = stride
        if latency_ns is not None:
            assert got_ns == latency_ns

    def test_empty_queue_times_out_on_the_same_boundary(self, backend):
        stride = bare_switch(backend, FrequencyTransitionExperiment, [])
        oracle = bare_switch(backend, PerQuantumExperiment, [])
        assert stride == oracle
        (latency_ns, valid), now_ns, _ = stride
        assert not valid
        assert latency_ns == (SAMPLE_TIMEOUT_NS // QUANTUM_NS + 1) * QUANTUM_NS
        assert now_ns == T0_NS + latency_ns
        assert latency_ns > ms(20)
