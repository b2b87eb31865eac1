"""Snapshot of everything a steady-state settle decides.

Shared by the settle-path properties and the batch-semantics unit tests:
two machines are settled the same way exactly when their snapshots are
equal (compared exactly, not approximately — a settle is a pure function
of the configuration, so equal inputs must give bit-equal outputs).
"""

from __future__ import annotations


def settled_state(machine) -> dict:
    """Every settled field, keyed by what it describes."""
    topo = machine.topology
    cores = list(topo.cores())
    return {
        "applied_hz": [c.applied_freq_hz for c in cores],
        "edc_caps": list(machine._edc_caps),
        "smu_caps": [(smu.edc_cap_hz, smu.ppt_cap_hz) for smu in machine.smus],
        "l3_hz": [ccx.l3_freq_hz for ccx in topo.ccxs()],
        "observable_mean_hz": [machine.observable_mean_hz(c) for c in cores],
        "cstates": [t.effective_cstate for t in topo.threads()],
        "breakdown": machine.power_model.breakdown(machine, None),
    }
