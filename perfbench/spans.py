"""Per-layer spans recorded from outside the program under test.

The traced run wraps each layer's public entry points (``ENTRY_POINTS``)
with a timing shim that keeps, per entry point, the call count, the
inclusive time and the *self* time: the span's duration minus the part
its direct child spans cover.  Spans are aggregated in memory as they
close, so a run with millions of simulator calls costs constant memory.

Every second of a root span is charged to exactly one layer's self
time, so the layer self times of one process add up to its root busy
time.  ``core.unattributed_s`` is the self time of the ``core`` layer
(``run_suite`` and the ``SUITE`` entries): time inside the program that
no finer layer span covers.

``install`` never raises for an entry point that no longer exists: it
is recorded in ``WrapSet.missing`` and every metric of a layer with no
installed entry point is left out of the result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: (layer, module, attribute) — ``Class.method`` or a module function.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("oslayer", "repro.oslayer.kernel", "Kernel.set_frequency"),
    ("oslayer", "repro.oslayer.kernel", "Kernel.set_all_frequencies"),
    ("oslayer", "repro.oslayer.kernel", "Kernel.run"),
    ("oslayer", "repro.oslayer.kernel", "Kernel.stop"),
    ("oslayer", "repro.oslayer.hotplug", "Hotplug.set_offline"),
    ("oslayer", "repro.oslayer.hotplug", "Hotplug.set_online"),
    ("oslayer", "repro.oslayer.sysfs", "SysfsTree.write"),
    ("settle", "repro.machine", "Machine.reconfigured"),
    ("smu", "repro.smu.smu", "MasterSmu.run_edc_loop"),
    ("smu", "repro.smu.smu", "MasterSmu.run_ppt_loop"),
    ("pstate", "repro.pstate.resolver", "FrequencyResolver.resolve_ccx"),
    ("cstate", "repro.cstate.controller", "CStateController.refresh"),
    ("cstate", "repro.cstate.package", "PackageSleepResolver.report"),
    ("cstate", "repro.cstate.package", "PackageSleepResolver.apply_to_io_dies"),
    ("measure", "repro.machine", "Machine.measure"),
    ("measure", "repro.machine", "Machine.preheat"),
    ("power", "repro.power.model", "PowerModel.breakdown"),
    ("rapl", "repro.rapl.estimator", "RaplEstimator.package_power_w"),
    ("rapl", "repro.rapl.estimator", "RaplEstimator.core_power_w"),
    ("sim", "repro.sim.engine", "Simulator.run_until"),
    ("sim", "repro.sim.engine", "Simulator.run_for"),
    ("sim", "repro.sim.engine", "Simulator.step"),
    ("sim", "repro.sim.engine", "Simulator.schedule_at"),
    ("sim", "repro.sim.engine", "Simulator.schedule_after"),
    ("cache", "repro.cache.store", "ResultCache.get"),
    ("cache", "repro.cache.store", "ResultCache.put"),
    ("parallel", "repro.parallel.pool", "run_tasks"),
    ("core", "repro.core.suite", "run_suite"),
)

#: The registry whose values become ``exp.<entry>`` spans (layer ``core``).
SUITE_MODULE = "repro.core.suite"


def _count_hit(stat: list, result: Any) -> None:
    stat[4] += result is not None


def _count_tasks(stat: list, result: Any) -> None:
    stat[4] += len(result)
    stat[5] += sum(1 for outcome in result if not getattr(outcome, "ok", True))


#: Result inspectors: extra counters read from an entry point's return
#: value (slot 4 and 5 of its stat row).
RESULT_COUNTERS: dict[str, Callable[[list, Any], None]] = {
    "ResultCache.get": _count_hit,
    "run_tasks": _count_tasks,
}


class _ThreadTable:
    """One thread's open-span stack and closed-span aggregates."""

    __slots__ = ("stack", "depth", "stats", "root_s")

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time covered, per open span
        self.depth: dict[str, int] = {}  # open spans per layer
        # name -> [calls, self_s, incl_s, outer_calls, extra_a, extra_b]
        self.stats: dict[str, list] = {}
        self.root_s = 0.0


class SpanRecorder:
    """Aggregates nested spans per entry point, per thread.

    ``clock`` is injectable so tests can drive exact durations.  With
    ``dump_dir`` set, a process forked from the owner writes its own
    aggregates to ``<dump_dir>/<pid>.json`` whenever a root span closes,
    so pool workers' spans reach the parent after the workers exit.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        dump_dir: str | None = None,
    ) -> None:
        self.clock = clock
        self.dump_dir = dump_dir
        self.layers: dict[str, str] = {}  # entry name -> layer
        self._reset()

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTable] = []
        self.owner_pid = os.getpid()

    def after_fork_in_child(self) -> None:
        """Forget the parent's spans: a forked worker reports its own."""
        self._reset()
        self.owner_pid = -1

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A shim timing every call of ``fn`` as span ``name`` of ``layer``."""
        self.layers[name] = layer
        clock = self.clock
        table_of = self._table
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            table = table_of()
            stack = table.stack
            depth = table.depth
            nested = depth.get(layer, 0)
            depth[layer] = nested + 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                depth[layer] = nested
                stat = table.stats.get(name)
                if stat is None:
                    stat = table.stats[name] = [0, 0.0, 0.0, 0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed - child
                stat[2] += elapsed
                if not nested:
                    stat[3] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    table.root_s += elapsed
                    if self.dump_dir is not None and self.owner_pid != os.getpid():
                        self.dump(os.path.join(self.dump_dir, f"{os.getpid()}.json"))
            if on_result is not None:
                on_result(stat, result)
            return result

        return span

    def totals(self) -> dict[str, Any]:
        """Aggregates over every thread, in the form ``merge_totals`` sums."""
        with self._lock:
            tables = list(self._tables)
        return merge_totals([
            {"stats": t.stats, "root_s": t.root_s, "layers": self.layers}
            for t in tables
        ] or [{"stats": {}, "root_s": 0.0, "layers": self.layers}])

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.totals(), fh)
        os.replace(tmp, path)


def merge_totals(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum ``SpanRecorder.totals`` documents from several processes."""
    stats: dict[str, list] = {}
    layers: dict[str, str] = {}
    root_s = 0.0
    for part in parts:
        root_s += part["root_s"]
        layers.update(part["layers"])
        for name, row in part["stats"].items():
            into = stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
            for i, value in enumerate(row):
                into[i] += value
    return {"stats": stats, "root_s": root_s, "layers": layers}


@dataclass
class WrapSet:
    """The shims one ``install`` put in place, and what it could not find."""

    recorder: SpanRecorder
    restore: list[Callable[[], None]] = field(default_factory=list)
    installed: dict[str, str] = field(default_factory=dict)  # name -> layer
    missing: list[str] = field(default_factory=list)
    originals: dict[int, Callable] = field(default_factory=dict)

    def uninstall(self) -> None:
        """Put every original back, aliases imported after install too."""
        for undo in reversed(self.restore):
            undo()
        self.restore.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                orig = self.originals.get(id(value))
                if orig is not None:
                    setattr(module, attr, orig)

    def __enter__(self) -> "WrapSet":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _repro_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _wrap_method(wraps: WrapSet, layer: str, module, qualname: str) -> None:
    cls_name, meth = qualname.split(".")
    cls = getattr(module, cls_name)
    own = cls.__dict__.get(meth)
    if own is None or not callable(own):
        raise AttributeError(f"{qualname} is not defined on {cls_name}")
    shim = wraps.recorder.wrap(layer, qualname, own)
    setattr(cls, meth, shim)
    wraps.originals[id(shim)] = own
    wraps.restore.append(lambda: setattr(cls, meth, own))


def _wrap_function(wraps: WrapSet, layer: str, module, name: str) -> None:
    orig = getattr(module, name)
    shim = wraps.recorder.wrap(layer, name, orig)
    wraps.originals[id(shim)] = orig
    # Rebind every alias (``from x import fn``) already imported.
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, shim)
                wraps.restore.append(
                    lambda mod=mod, attr=attr: setattr(mod, attr, orig)
                )


def install(
    recorder: SpanRecorder,
    entry_points: tuple[tuple[str, str, str], ...] = ENTRY_POINTS,
    suite_module: str | None = SUITE_MODULE,
) -> WrapSet:
    """Wrap every entry point that exists; report the ones that do not."""
    wraps = WrapSet(recorder)
    for layer, module_name, attr in entry_points:
        try:
            module = importlib.import_module(module_name)
            if "." in attr:
                _wrap_method(wraps, layer, module, attr)
            else:
                _wrap_function(wraps, layer, module, attr)
        except (ImportError, AttributeError):
            wraps.missing.append(f"{module_name}:{attr}")
            continue
        wraps.installed[attr] = layer
    if suite_module is not None:
        try:
            registry = importlib.import_module(suite_module).SUITE
        except (ImportError, AttributeError):
            wraps.missing.append(f"{suite_module}:SUITE")
            return wraps
        for entry, fn in list(registry.items()):
            name = f"exp.{entry}"
            registry[entry] = recorder.wrap("core", name, fn)
            wraps.installed[name] = "core"
            wraps.restore.append(
                lambda entry=entry, fn=fn: registry.__setitem__(entry, fn)
            )
    return wraps


def layer_metrics(
    totals: dict[str, Any], installed: dict[str, str]
) -> dict[str, float]:
    """Per-layer metrics from span aggregates (see README.md).

    ``installed`` maps entry name -> layer for the shims that were in
    place; a layer without any yields no metrics at all.
    """
    stats = totals["stats"]
    present = set(installed.values())

    def entries(layer: str) -> list[str]:
        return [n for n, lay in installed.items() if lay == layer]

    def total(layer: str, slot: int) -> float:
        return sum(stats[n][slot] for n in entries(layer) if n in stats)

    def one(name: str, slot: int) -> float:
        row = stats.get(name)
        return row[slot] if row is not None else 0

    busy = totals["root_s"]
    out: dict[str, float] = {}
    if "oslayer" in present:
        out["oslayer.writes"] = total("oslayer", 3)
        out["oslayer.self_s"] = total("oslayer", 1)
    if "settle" in present:
        settles = one("Machine.reconfigured", 0)
        out["machine.settles"] = settles
        out["machine.settle_s"] = total("settle", 1)
        writes = out.get("oslayer.writes", 0)
        out["machine.settles_per_write"] = settles / writes if writes else 0.0
        settle_incl = one("Machine.reconfigured", 2)
        out["machine.settle_share"] = settle_incl / busy if busy else 0.0
    for layer in ("smu", "pstate", "cstate"):
        if layer in present:
            out[f"{layer}.s"] = total(layer, 1)
    if "pstate" in present:
        out["pstate.ccx_resolves"] = one("FrequencyResolver.resolve_ccx", 0)
    if "measure" in present:
        out["machine.measure_s"] = total("measure", 1)
    if "power" in present:
        out["power.s"] = total("power", 1)
        out["power.calls"] = total("power", 0)
    if "rapl" in present:
        out["rapl.s"] = total("rapl", 1)
    if "sim" in present:
        sim_s = total("sim", 1)
        events = one("Simulator.schedule_at", 0) + one("Simulator.schedule_after", 0)
        out["sim.s"] = sim_s
        out["sim.calls"] = total("sim", 0)
        out["sim.events"] = events
        out["sim.events_per_s"] = events / sim_s if sim_s else 0.0
        out["sim.share"] = sim_s / busy if busy else 0.0
    if "core" in present:
        for name in entries("core"):
            if name.startswith("exp."):
                out[f"{name}.s"] = one(name, 2)
        out["core.unattributed_s"] = total("core", 1)
    if "cache" in present:
        gets = one("ResultCache.get", 0)
        out["cache.gets"] = gets
        out["cache.hit_ratio"] = one("ResultCache.get", 4) / gets if gets else 0.0
        out["cache.get_s"] = one("ResultCache.get", 1)
        out["cache.put_s"] = one("ResultCache.put", 1)
    if "parallel" in present:
        out["parallel.tasks"] = one("run_tasks", 4)
        out["parallel.s"] = total("parallel", 1)
        out["parallel.failures"] = one("run_tasks", 5)
    return out
