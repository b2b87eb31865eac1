"""Properties of steady-state settling: idempotent and path-independent.

The steady-state machine is a pure function of its configuration, not of
the order of writes that led there.  Each property drives two settle
paths from one generated configuration and compares the full settled
state (``tests.settle_state``): per-core clocks, EDC/PPT caps, die
currents, L3 clocks, observable means, C-states and the power breakdown.
"""

from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.iodie.fclk import FclkMode
from repro.machine import Machine
from repro.topology.skus import sku_by_name
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD
from tests.settle_state import settled_state

SKU = "EPYC 7502"
FREQS = sku_by_name(SKU).available_freqs_hz


@dataclass(frozen=True)
class Config:
    workload: object
    n_active: int
    f0: float
    f1: float
    boost: bool
    offline: tuple[int, ...]
    fclk: FclkMode
    ppt_w: float | None


configs = st.builds(
    Config,
    workload=st.sampled_from([None, SPIN, FIRESTARTER, STREAM_TRIAD]),
    n_active=st.integers(min_value=1, max_value=128),
    f0=st.sampled_from(FREQS),
    f1=st.sampled_from(FREQS),
    boost=st.booleans(),
    offline=st.lists(
        st.integers(min_value=1, max_value=127), max_size=4, unique=True
    ).map(tuple),
    fclk=st.sampled_from(list(FclkMode)),
    ppt_w=st.none() | st.floats(min_value=60.0, max_value=200.0),
)


def build(cfg: Config) -> Machine:
    """A machine settled at ``f0`` with the workload placed, before ``f1``."""
    m = Machine(SKU, seed=0, boost_enabled=cfg.boost, fclk_mode=cfg.fclk)
    if cfg.ppt_w is not None:
        m.set_power_limit_w(cfg.ppt_w)
    m.os.set_all_frequencies(cfg.f0)
    for cpu in cfg.offline:
        m.os.hotplug.set_offline(cpu)
    if cfg.workload is not None:
        online = [c for c in m.os.all_cpus() if m.topology.thread(c).online]
        m.os.run(cfg.workload, online[: cfg.n_active])
    return m


def per_write(m: Machine, freq_hz: float, *, descending: bool = False) -> None:
    """The unbatched bulk write: one settle per CPU, in the given order."""
    for cpu in sorted(m.topology.cpus, reverse=descending):
        m.os.set_frequency(cpu, freq_hz)


@given(cfg=configs)
@settings(max_examples=20, deadline=None)
def test_second_settle_changes_nothing(cfg):
    m = build(cfg)
    m.os.set_all_frequencies(cfg.f1)
    first = settled_state(m)
    m.reconfigured()
    second = settled_state(m)
    m.shutdown()
    assert second == first


@given(cfg=configs)
@settings(max_examples=10, deadline=None)
def test_bulk_write_equals_per_write_settles(cfg):
    batched, unbatched = build(cfg), build(cfg)
    batched.os.set_all_frequencies(cfg.f1)
    per_write(unbatched, cfg.f1)
    a, b = settled_state(batched), settled_state(unbatched)
    batched.shutdown()
    unbatched.shutdown()
    assert a == b


@given(cfg=configs)
@settings(max_examples=10, deadline=None)
def test_write_order_does_not_matter(cfg):
    ascending, descending = build(cfg), build(cfg)
    per_write(ascending, cfg.f1)
    per_write(descending, cfg.f1, descending=True)
    a, b = settled_state(ascending), settled_state(descending)
    ascending.shutdown()
    descending.shutdown()
    assert a == b
