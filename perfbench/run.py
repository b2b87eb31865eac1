"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload suite|transitions|service \\
        [--seed 2021] [--seconds 30] [--trace 0|1]

Run it from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it repeats
the work under per-layer span shims and prints the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"job_cost": {"value": 6846.2, "unit": "ref"}, ...}}

It exits 2 without a result when the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["suite", "transitions", "service"]
    )
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from service_load import run_service_workload

    for var in workloads.PROGRAM_ENV:
        os.environ.pop(var, None)
    run = {
        "suite": workloads.run_suite_workload,
        "transitions": workloads.run_transitions_workload,
        "service": run_service_workload,
    }[args.workload]
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    except (workloads.BenchError, ImportError, OSError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        return 2

    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 3
    absent = [name for name in units if name not in outcome.metrics]
    if absent and not args.trace:
        print(f"perfbench: end-to-end metrics not measured: {absent}", file=sys.stderr)
        return 3
    for name in absent:
        print(f"perfbench: not measured: {name}", file=sys.stderr)
    for problem in outcome.problems[:50]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items()
        if name in outcome.metrics
    }
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
