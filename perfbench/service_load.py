"""The ``service`` workload: an open loop against a ``repro.service`` daemon.

The daemon runs on loopback with one queue worker, a two-process pool
and a fresh empty cache directory, so it keeps at most two processes
busy.  One client process sends requests on a fixed schedule at
``RATE_PER_S`` over at most ``CONNECTIONS`` connections at a time:

* new specs and repeats alternate.  A new spec is one of the ``COMBOS``
  of light entries with a fresh config seed, so the daemon executes it
  and writes the cache; a repeat names a spec sent (after the first two
  repeats) at least five slots earlier, so the daemon answers from the
  cache;
* every new spec of ``JOINED_COMBO`` is sent again 50 ms later, while
  the first is still running, and joins it (single-flight);
* about one request in nine (see ``TRACED_COMBO``) sets
  ``"trace": true`` and also fetches ``/trace``.

Each request is timed from its scheduled send time to the last byte of
its result.  It is a hit when the daemon's final job document says
``dedup == "cache"`` and a miss otherwise (executed or joined).

While no request is in flight and none is due within ``IDLE_MARGIN_S``,
the client times the reference unit of ``hostref`` every
``hostref.PERIOD_S``, so the daemon's host speed is sampled over the
same window without competing with its work.  The host's cores slow
down independently of each other and the pool's workers run on all of
them, so the samples take the cores in turn.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import hostref
from spans import layer_metrics, merge_totals
from workloads import (
    HERE, ROOT, SETUP_RUNS, BenchError, Outcome, program_env, read_line, stop,
)

HOST = "127.0.0.1"
SCALE = 0.02
#: Offered requests per second: a new spec every 0.83 s, a bit under
#: half of capacity.  On a 2-vCPU VM a miss of this mix takes 0.34 s
#: and a hit 22 ms on average when nothing queues, so the daemon serves
#: about 5.5 requests/s back to back; the slowest of 252 misses took
#: 0.71 s, less than the gap to the next new spec.
RATE_PER_S = 2.4
#: Requests answered correctly within this limit count as goodput.
LATENCY_LIMIT_S = 5.0
REQUEST_TIMEOUT_S = 60.0
#: Open connections at once; no more than the host's two cores.
CONNECTIONS = 2
DUPLICATE_DELAY_S = 0.05
#: A reference sample is taken only this long before the next send.
IDLE_MARGIN_S = 0.03
#: Fewest combo cycles per run, so hits and misses each reach 20.
MIN_CYCLES = 4
DAEMON_ARGS = ("serve", "--host", HOST, "--port", "0", "--workers", "1",
               "--pool-jobs", "2")

SEC5A, TAB1, FIG6, FIG7, FIG8, SEC7 = (
    "sec5a_idle_sibling", "tab1_mixed_frequencies", "fig6_firestarter",
    "fig7_idle_power", "fig8_cstate_latency", "sec7_rapl_update_rate",
)
#: New specs cycle through these, each light entry appearing twice per
#: cycle, so every run executes the same mix of work.  ``fig10_data_power``
#: is left out: at 0.7-1.5 s a miss it made the latencies bimodal, the
#: median fell in the gap between the modes and spread 17% over ten
#: seeds, and it kept new specs too far apart for 40 misses a run
#: without queueing.
COMBOS: tuple[tuple[str, ...], ...] = (
    (FIG6,), (SEC5A, FIG6), (TAB1, FIG7, FIG8), (SEC7,),
    (SEC5A, FIG8, SEC7), (TAB1, FIG7),
)
#: Each new spec of this combo (about 0.4 s of work) is sent twice.
JOINED_COMBO = (TAB1, FIG7, FIG8)
#: Every second new spec of this combo is traced, and every sixth repeat.
#: A traced miss keeps its whole timeline in the daemon, so tracing a
#: fixed combo keeps the daemon's memory the same from run to run.
TRACED_COMBO = (TAB1, FIG7)


@dataclass(frozen=True)
class Request:
    at_s: float  # scheduled send time, from the start of the schedule
    entries: tuple[str, ...]
    seed: int
    trace: bool
    kind: str  # "new" | "repeat" | "duplicate"

    @property
    def spec(self) -> tuple[tuple[str, ...], int]:
        return self.entries, self.seed

    def body(self) -> bytes:
        return json.dumps({
            "tenant": "perfbench",
            "entries": list(self.entries),
            "config": {"seed": self.seed, "scale": SCALE},
            "trace": self.trace,
        }).encode()


def schedule(seed: int, seconds: float) -> list[Request]:
    """The request schedule for one run; the same seed gives the same one.

    Whole cycles only: every run executes each combo equally often and
    sends the same number of hits, misses and joins; the seed picks the
    config seeds and which earlier spec each repeat repeats.  The combos
    come in the same order in every run: with a seeded order the miss
    median spread 16% over eight seeds, against 10% over six with it
    fixed.
    """
    rng = random.Random(seed)
    cycles = max(MIN_CYCLES, round(seconds * RATE_PER_S / (2 * len(COMBOS))))
    used: set[int] = set()
    new: list[tuple[tuple[str, ...], int]] = []
    kinds: list[str] = []
    for _ in range(cycles):
        for entries in COMBOS:
            config_seed = rng.getrandbits(31)
            while config_seed in used:
                config_seed = rng.getrandbits(31)
            used.add(config_seed)
            new.append((entries, config_seed))
            kinds += ["new", "repeat"] if len(new) > 1 else ["new"]
    kinds.append("repeat")
    requests = []
    sent = repeats = traced_new = 0
    for slot, kind in enumerate(kinds):
        at = slot / RATE_PER_S
        if kind == "new":
            entries, config_seed = new[sent]
            sent += 1
            trace = False
            if entries == TRACED_COMBO:
                trace = traced_new % 2 == 1
                traced_new += 1
            requests.append(Request(at, entries, config_seed, trace, "new"))
            if entries == JOINED_COMBO:
                requests.append(Request(
                    at + DUPLICATE_DELAY_S, entries, config_seed, False,
                    "duplicate",
                ))
        else:
            # Sent at least five slots (2 s) earlier, so done by now and a
            # cache hit; the first two repeats can only take the first spec.
            entries, config_seed = rng.choice(new[: max(1, sent - 2)])
            trace = repeats % 6 == 3
            repeats += 1
            requests.append(Request(at, entries, config_seed, trace, "repeat"))
    return requests


@dataclass
class Served:
    """What the client saw for one request."""

    req: Request
    status: int | None = None  # of the last exchange made
    body: bytes | None = None  # the result document
    dedup: str | None = None
    error: str | None = None
    late_s: float = 0.0
    submit_s: float = 0.0
    wait_s: float = 0.0
    fetch_s: float = 0.0
    latency_s: float = 0.0
    trace_fetch_s: float | None = None

    @property
    def hit(self) -> bool:
        return self.dedup == "cache"


async def _exchange(
    port: int, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    """One HTTP/1.1 request on its own connection (the daemon closes it).

    Callers hold the client's connection semaphore around it."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode() + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


async def _flow(
    port: int, conn: asyncio.Semaphore, req: Request, due: float,
    in_flight: list[int],
) -> Served:
    """Submit, wait for, and fetch one request's result."""
    loop = asyncio.get_running_loop()
    out = Served(req)
    await asyncio.sleep(max(0.0, due - loop.time()))
    in_flight[0] += 1
    try:
        await asyncio.wait_for(
            _flow_steps(port, conn, req, due, out), REQUEST_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        out.status, out.error = None, "timed out"
    except (OSError, ValueError, IndexError, KeyError) as err:
        out.status, out.error = None, f"{type(err).__name__}: {err}"
    finally:
        in_flight[0] -= 1
    if out.error is not None:
        out.latency_s = loop.time() - due
    return out


async def _flow_steps(
    port: int, conn: asyncio.Semaphore, req: Request, due: float, out: Served
) -> None:
    loop = asyncio.get_running_loop()
    async with conn:
        # Late by however long it took a connection to free up.
        t_send = loop.time()
        out.late_s = t_send - due
        out.status, payload = await _exchange(port, "POST", "/v1/jobs", req.body())
    out.submit_s = loop.time() - t_send
    if out.status not in (200, 202):
        out.error = f"submit answered {out.status}"
        return
    job = json.loads(payload)
    t_wait = loop.time()
    while job["state"] not in ("done", "failed"):
        async with conn:
            out.status, payload = await _exchange(
                port, "GET", f"/v1/jobs/{job['id']}?wait_s=30"
            )
        if out.status != 200:
            out.error = f"poll answered {out.status}"
            return
        job = json.loads(payload)
    out.wait_s = loop.time() - t_wait
    out.dedup = job["dedup"]
    t_fetch = loop.time()
    async with conn:
        out.status, out.body = await _exchange(
            port, "GET", f"/v1/jobs/{job['id']}/result"
        )
    out.fetch_s = loop.time() - t_fetch
    out.latency_s = loop.time() - due
    if job.get("trace_id"):
        # A join of an untraced leader carries no trace; only a traced
        # job's trace is fetched.
        t_trace = loop.time()
        async with conn:
            status, _ = await _exchange(
                port, "GET", f"/v1/jobs/{job['id']}/trace"
            )
        out.trace_fetch_s = loop.time() - t_trace
        if status != 200:
            out.error = f"trace answered {status}"


def _counters(snapshot: bytes) -> dict[tuple[str, str], float]:
    """``(name, sorted labels)`` -> value for the counters of /metrics.json."""
    out = {}
    for family in json.loads(snapshot)["metrics"]:
        for series in family.get("series", []):
            if "value" in series:
                labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
                out[(family["name"], labels)] = series["value"]
    return out


async def _sample_idle(
    in_flight: list[int], dues: list[float], samples: list[float]
) -> None:
    """Time the reference unit whenever the daemon has nothing to do,
    on each of this process's cores in turn."""
    loop = asyncio.get_running_loop()
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while True:
        await asyncio.sleep(hostref.PERIOD_S)
        now = loop.time()
        nxt = bisect.bisect_left(dues, now)
        if in_flight[0] == 0 and (
            nxt == len(dues) or dues[nxt] - now > IDLE_MARGIN_S
        ):
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            try:
                samples.append(hostref.time_unit())
            finally:
                os.sched_setaffinity(0, cpus)
            turn += 1


async def _drive(port: int, requests: list[Request], sample: bool):
    loop = asyncio.get_running_loop()
    conn = asyncio.Semaphore(CONNECTIONS)
    _, before = await _exchange(port, "GET", "/metrics.json")
    start = loop.time() + 0.1
    in_flight = [0]
    samples: list[float] = []
    sampler = None
    if sample:
        dues = sorted(start + req.at_s for req in requests)
        sampler = asyncio.create_task(_sample_idle(in_flight, dues, samples))
    served = await asyncio.gather(
        *(_flow(port, conn, req, start + req.at_s, in_flight) for req in requests)
    )
    window = loop.time() - start
    if sampler is not None:
        sampler.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await sampler
    _, after = await _exchange(port, "GET", "/metrics.json")
    return served, window, _counters(before), _counters(after), samples


class Daemon:
    """One ``repro.service`` daemon process with its own empty cache."""

    def __init__(self, workdir: Path, index: int, stats_dir: Path | None = None):
        cache = workdir / f"cache-{index}"
        cache.mkdir()
        args = [*DAEMON_ARGS, "--cache-dir", str(cache)]
        if stats_dir is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            cmd = [sys.executable, str(HERE / "daemon_hook.py"),
                   "--stats-dir", str(stats_dir), "--", *args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE
        )
        try:
            line = read_line(self.proc, 120.0)
            if "listening on" not in line:
                raise BenchError(f"daemon did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            asyncio.run(self._healthy(t0 + 120.0))
        except BaseException:
            stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - t0

    async def _healthy(self, deadline: float) -> None:
        while True:
            with contextlib.suppress(OSError):
                if (await _exchange(self.port, "GET", "/healthz"))[0] == 200:
                    return
            if time.perf_counter() > deadline:
                raise BenchError("daemon never answered /healthz")
            await asyncio.sleep(0.005)

    def run(self, requests: list[Request], sample: bool):
        return asyncio.run(_drive(self.port, requests, sample))

    def stop(self) -> None:
        """SIGTERM drains the daemon; it exits 0 once the queue is empty."""
        stop(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited {self.proc.returncode}")


def _delta(before: dict, after: dict, name: str, prefix: str = "") -> float:
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[0] == name and key[1].startswith(prefix)
    )


def references(requests: list[Request]) -> dict[tuple, bytes]:
    """Direct ``run_suite`` results for the first new spec of each combo,
    rendered as the service renders them.  Computed in this process after
    the daemons have stopped, so they never compete with a timed pass."""
    from repro.core.experiment import ExperimentConfig
    from repro.core.suite import run_suite, suite_to_dict

    firsts: dict[tuple[str, ...], tuple] = {}
    for req in requests:
        if req.kind == "new":
            firsts.setdefault(req.entries, req.spec)
    return {
        spec: gate.render(suite_to_dict(run_suite(
            ExperimentConfig(seed=spec[1], scale=SCALE), only=list(spec[0])
        )))
        for spec in firsts.values()
    }


def _check(
    out: Outcome, served: list[Served], refs: dict[tuple, bytes], label: str
) -> list[Served]:
    """Count every request as an op; return the correct ones."""
    problems = gate.service_problems(
        [{"spec": s.req.spec, "status": s.status, "body": s.body} for s in served],
        refs,
    )
    good = []
    for i, s in enumerate(served):
        found = problems.get(i, []) + ([s.error] if s.error else [])
        out.op(found, f"{label} {s.req.kind} {s.req.spec}")
        if not found:
            good.append(s)
    return good


def _pass(workdir: Path, index: int, requests: list[Request],
          stats_dir: Path | None = None):
    """One daemon serving the schedule; the untraced pass (no
    ``stats_dir``) also samples the host's speed."""
    daemon = Daemon(workdir, index, stats_dir)
    try:
        result = daemon.run(requests, sample=stats_dir is None)
    finally:
        daemon.stop()
    return daemon, result


def _p50(values: list[float]) -> float:
    return gate.percentile(values, 0.5)


def _trace_extra_s(good: list[Served]) -> float:
    """Mean extra latency of a traced miss over untraced misses of the
    same entries (traced requests are too few for a median)."""
    untraced: dict[tuple, list[float]] = {}
    for s in good:
        if not s.hit and not s.req.trace:
            untraced.setdefault(s.req.entries, []).append(s.latency_s)
    extra = [
        s.latency_s - statistics.fmean(untraced[s.req.entries])
        for s in good
        if not s.hit and s.req.trace and s.req.entries in untraced
    ]
    return statistics.fmean(extra) if extra else 0.0


def run_service_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    requests = schedule(seed, seconds)
    workdir = ROOT / ".perfbench" / f"service-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            _traced_run(out, workdir, requests)
            return out
        setups = []
        for i in range(SETUP_RUNS - 1):
            probe = Daemon(workdir, i)
            probe.stop()
            setups.append(probe.setup_s)
        daemon, (served, _, _, _, samples) = _pass(workdir, SETUP_RUNS, requests)
        setups.append(daemon.setup_s)
        good = _check(out, served, references(requests), "service")
        out.metrics["setup_s"] = statistics.median(setups)
        out.metrics["job_cost"] = (
            _p50([s.latency_s for s in good if not s.hit])
            / hostref.unit_s(samples)
        )
        # Every daemon and pool worker has been waited for by now.
        out.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _traced_run(out: Outcome, workdir: Path, requests: list[Request]) -> None:
    """An untraced pass for the client-side numbers, then the same
    schedule against a daemon running under the span shims."""
    _, (served, window, before, after, samples) = _pass(workdir, 0, requests)
    stats_dir = workdir / "stats"
    stats_dir.mkdir()
    _, (t_served, _, _, _, _) = _pass(workdir, 1, requests, stats_dir)
    refs = references(requests)
    good = _check(out, served, refs, "service")
    t_good = _check(out, t_served, refs, "service traced")

    parts = [json.loads(p.read_text()) for p in sorted(stats_dir.glob("*.json"))]
    daemon = json.loads((stats_dir / "daemon.json").read_text())
    for name in daemon["missing"]:
        print(f"perfbench: entry point gone, not traced: {name}", file=sys.stderr)
    out.metrics.update(layer_metrics(merge_totals(parts), daemon["installed"]))

    hits = [s.latency_s for s in good if s.hit]
    misses = [s.latency_s for s in good if not s.hit]
    within = sum(1 for s in good if s.latency_s <= LATENCY_LIMIT_S)
    fetches = [s.trace_fetch_s for s in good if s.trace_fetch_s is not None]
    out.metrics.update({
        "service.goodput_per_s": within / window,
        "service.joins": _delta(before, after, "service.dedup", "source=inflight"),
        "service.rejected": _delta(before, after, "service.submissions", "result=rejected"),
        "obs.trace_extra_s": _trace_extra_s(good),
        "obs.trace_fetch_mean_s": statistics.fmean(fetches) if fetches else 0.0,
        "host.ref_ms": 1000.0 * hostref.unit_s(samples),
    })
    percentiles = {
        "job_wall_s": (misses, 0.5),
        "service.hit_p50_s": (hits, 0.5),
        "service.submit_p50_s": ([s.submit_s for s in good], 0.5),
        "service.wait_p50_s": ([s.wait_s for s in good], 0.5),
        "service.fetch_p50_s": ([s.fetch_s for s in good], 0.5),
        "service.late_p75_s": ([s.late_s for s in served], 0.75),
    }
    for name, (values, q) in percentiles.items():
        try:
            out.metrics[name] = gate.percentile(values, q)
        except ValueError as err:
            print(f"perfbench: {name} not reported: {err}", file=sys.stderr)
    t_misses = [s.latency_s for s in t_good if not s.hit]
    out.metrics["trace.overhead_ratio"] = _p50(t_misses) / _p50(misses)
