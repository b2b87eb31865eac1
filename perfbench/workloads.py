"""The in-process workloads (``suite``, ``transitions``) and shared plumbing.

Both drive the program only through ``run_suite`` and ``suite_to_dict``.
End-to-end timings are taken with no shims installed, while
``hostref.Sampler`` times a reference unit alongside, so each job's
cost is given relative to the host's speed at the time.  ``--trace 1``
repeats the same work under the span shims of ``spans.py`` and reports
per-layer metrics plus the shims' own cost.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import gate
import hostref
from spans import SpanRecorder, install, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Variables that would change what the program under test does.
PROGRAM_ENV = (
    "REPRO_SIM_BACKEND", "REPRO_CACHE_DIR", "REPRO_FLIGHTREC_DIR",
    "REPRO_BENCH_JOBS",
)

#: fig3's flat-histogram check is a sampling statistic: at scale 0.01
#: it fails one seed in 40 (5 of 200); at 0.015 and 0.02, none of 200
#: and 100.
TRANSITIONS_SCALE = 0.015
TRANSITIONS_ENTRY = "fig3_transition_delay"
#: Fewest samples a median may rest on (ten beyond it).
MIN_SAMPLES = 2 * gate.MIN_BEYOND
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_RUNS = 7

#: Per-layer metrics measured only by the service's HTTP client.
CLIENT_ONLY_METRICS = (
    "service.hit_p50_s", "service.goodput_per_s",
    "service.submit_p50_s", "service.wait_p50_s", "service.fetch_p50_s",
    "service.joins", "service.rejected", "service.late_p75_s",
    "obs.trace_extra_s", "obs.trace_fetch_mean_s",
)


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


@dataclass
class Outcome:
    """What one workload run did and measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def op(self, problems: list[str], label: str) -> None:
        """Count one op; any problem makes it a failed op."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def program_env() -> dict[str, str]:
    """The environment for a process of the program under test."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """The next stdout line of ``proc`` (binary pipe), or BenchError."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    if not ready:
        raise BenchError(f"no output from {proc.args[1:3]} in {timeout_s} s")
    return proc.stdout.readline().decode(errors="replace").strip()


def stop(proc: subprocess.Popen, timeout_s: float = 60.0) -> None:
    """Ask ``proc`` to end, kill it if it will not, and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def probe_setup_s() -> float:
    """Median time from process start to ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
        )
        try:
            line = read_line(proc, 120.0)
            samples.append(time.perf_counter() - t0)
            if line != "ready" or proc.wait(60) != 0:
                raise BenchError(f"set-up probe failed (said {line!r})")
        finally:
            stop(proc)
    return statistics.median(samples)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up() -> None:
    """Imports plus one machine build, as the probes do."""
    from repro.core.experiment import ExperimentConfig

    ExperimentConfig(scale=gate.GOLDEN_SCALE).build_machine()


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class Timed:
    """One job's wall time, without the reference samples taken during
    it, and its cost: that wall time over the samples' harmonic mean."""

    wall_s: float
    cost: float = 0.0


def _suite_job(config, only=None, sampler=None) -> tuple[dict, Timed]:
    """One ``run_suite`` call: its document and its timing.

    ``run_suite`` is looked up on the module at call time, so the shims
    see it.  With a ``sampler`` running, the job's cost is its wall time
    in units of the reference samples taken while it ran."""
    from repro.core import suite

    n0, spent0 = (len(sampler.samples), sampler.spent_s) if sampler else (0, 0.0)
    t0 = time.perf_counter()
    result = suite.run_suite(config, only=only)
    wall = time.perf_counter() - t0
    timed = Timed(wall)
    if sampler is not None:
        timed.wall_s -= sampler.spent_s - spent0
        timed.cost = timed.wall_s / hostref.unit_s(sampler.samples[n0:])
    return suite.suite_to_dict(result), timed


def _traced(work):
    """Run ``work()`` under the span shims; (value, per-layer metrics)."""
    recorder = SpanRecorder()
    with install(recorder) as wraps:
        value = work()
    for name in wraps.missing:
        print(f"perfbench: entry point gone, not traced: {name}", file=sys.stderr)
    return value, layer_metrics(recorder.totals(), wraps.installed)


def run_suite_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop, one client, one serial cache-off ``run_suite`` per run.

    The input is always the golden's configuration (seed 2021, scale
    0.02), so every run is checked byte for byte against the committed
    document and times the same work; ``seed`` and ``seconds`` do not
    change it.  Other seeds have no golden, and at this scale their
    suites are not reliably ``all_ok`` either: fig10's "shr RAPL core
    spread" band fails for 12 of seeds 0-39."""
    from repro.core.experiment import ExperimentConfig

    out = Outcome()
    if not trace:
        out.metrics["setup_s"] = probe_setup_s()
    warm_up()
    config = ExperimentConfig(seed=gate.GOLDEN_SEED, scale=gate.GOLDEN_SCALE)
    with hostref.Sampler() as sampler:
        doc, timed = _suite_job(config, sampler=sampler)
    out.op(gate.suite_problems(doc, ROOT), "suite")
    if not trace:
        out.metrics["job_cost"] = timed.cost
        out.metrics["peak_rss_mb"] = self_rss_mb()
        return out
    (traced_doc, traced), layers = _traced(lambda: _suite_job(config))
    problems = gate.suite_problems(traced_doc, ROOT)
    if canonical(traced_doc) != canonical(doc):
        problems.append("traced document differs from the untraced one")
    out.op(problems, "suite traced")
    out.metrics.update(layers)
    out.metrics.update(dict.fromkeys(CLIENT_ONLY_METRICS, 0.0))
    out.metrics["job_wall_s"] = timed.wall_s
    out.metrics["host.ref_ms"] = 1000.0 * hostref.unit_s(sampler.samples)
    out.metrics["trace.overhead_ratio"] = traced.wall_s / timed.wall_s
    return out


def job_seeds(seed: int) -> Iterator[int]:
    """Distinct experiment seeds derived from the workload seed."""
    rng = random.Random(seed)
    seen: set[int] = set()
    while True:
        value = rng.getrandbits(31)
        if value not in seen:
            seen.add(value)
            yield value


def _job_list(
    seed: int, seconds: float, out: Outcome, label: str,
    expected: list[str] | None = None, min_jobs: int = MIN_SAMPLES,
    sampler: hostref.Sampler | None = None,
):
    """fig3 jobs back to back for ``seconds`` (and at least ``min_jobs``).

    Returns per-job timings and canonical documents, in seed order.
    With ``expected`` (an untraced run's documents), each job must also
    reproduce the document of the same position byte for byte."""
    from repro.core.experiment import ExperimentConfig

    times: list[Timed] = []
    docs: list[str] = []
    t0 = time.perf_counter()
    for job_seed in job_seeds(seed):
        if time.perf_counter() - t0 >= seconds and len(times) >= min_jobs:
            break
        config = ExperimentConfig(seed=job_seed, scale=TRANSITIONS_SCALE)
        doc, timed = _suite_job(config, [TRANSITIONS_ENTRY], sampler)
        problems = gate.tables_ok(doc)
        text = canonical(doc)
        if expected is not None and len(docs) < len(expected):
            if text != expected[len(docs)]:
                problems.append("document differs from the untraced run")
        out.op(problems, f"{label} seed {job_seed}")
        times.append(timed)
        docs.append(text)
    return times, docs


def run_transitions_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop, one client: distinct-seed fig3 jobs back to back.

    A traced run needs no percentile, so its untraced and traced halves
    take ``seconds / 2`` each and stop on time alone."""
    out = Outcome()
    if not trace:
        out.metrics["setup_s"] = probe_setup_s()
    warm_up()
    if not trace:
        with hostref.Sampler() as sampler:
            times, _ = _job_list(seed, seconds, out, "transitions", sampler=sampler)
        out.metrics["job_cost"] = gate.percentile([t.cost for t in times], 0.5)
        out.metrics["peak_rss_mb"] = self_rss_mb()
        return out
    with hostref.Sampler() as sampler:
        times, docs = _job_list(
            seed, seconds / 2, out, "transitions", min_jobs=1, sampler=sampler
        )
    (t_times, _), layers = _traced(
        lambda: _job_list(seed, seconds / 2, out, "transitions traced", docs, 1)
    )
    k = min(len(times), len(t_times))
    out.metrics.update(layers)
    out.metrics.update(dict.fromkeys(CLIENT_ONLY_METRICS, 0.0))
    out.metrics["job_wall_s"] = statistics.median(t.wall_s for t in times)
    out.metrics["host.ref_ms"] = 1000.0 * hostref.unit_s(sampler.samples)
    out.metrics["trace.overhead_ratio"] = (
        sum(t.wall_s for t in t_times[:k]) / sum(t.wall_s for t in times[:k])
    )
    return out
