"""Correctness gates and sample statistics shared by the workloads.

Every gate returns a list of problems (empty = correct) so a workload
can count a failed check as a failed op and keep going.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Iterable

#: The committed suite document for seed 2021 at scale 0.02.
GOLDEN_SEED = 2021
GOLDEN_SCALE = 0.02
GOLDEN_PATH = Path("tests") / "golden" / "suite_seed2021_scale0.02.json"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it, so no metric rests on a handful of tail samples.
    """
    data = sorted(values)
    if round(len(data) * (1.0 - q), 9) < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(data)} samples"
        )
    if q == 0.5:
        return statistics.median(data)
    return statistics.quantiles(data, n=100, method="inclusive")[round(q * 100) - 1]


def tables_ok(doc: Any) -> list[str]:
    """A suite document whose every table passed."""
    if not isinstance(doc, dict):
        return ["result is not a JSON object"]
    problems = []
    if doc.get("all_ok") is not True:
        problems.append("suite all_ok is not true")
    experiments = doc.get("experiments")
    if not isinstance(experiments, dict) or not experiments:
        return problems + ["result has no experiment tables"]
    for name, table in sorted(experiments.items()):
        if not isinstance(table, dict) or table.get("all_ok") is not True:
            problems.append(f"{name}: table all_ok is not true")
    if "failures" in doc:
        problems.append(f"pool failures: {sorted(doc['failures'])}")
    return problems


def suite_problems(doc: dict[str, Any], root: Path) -> list[str]:
    """The suite document must reproduce the committed golden exactly."""
    golden = json.loads((root / GOLDEN_PATH).read_text())
    if doc != golden:
        return [f"suite document differs from {GOLDEN_PATH}"]
    return []


def render(doc: dict[str, Any]) -> bytes:
    """A suite document as the service renders a result (``dump_json``)."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def service_problems(
    responses: list[dict[str, Any]], references: dict[Any, bytes]
) -> dict[int, list[str]]:
    """Problems per request index for a set of service responses.

    Each response is ``{"spec": (entries, seed), "status": int | None,
    "body": bytes | None}``.  A response must be 2xx and hold a suite
    document with exactly the requested experiments and no pool
    failures.  Every response to one spec must carry the same bytes,
    whichever way (leader, joiner, cache hit, traced or not) it was
    served, and where ``references`` holds a direct ``run_suite`` of the
    spec, those bytes too.  When the bytes for one spec disagree, every
    response to that spec is charged.
    """
    problems: dict[int, list[str]] = {}
    by_spec: dict[Any, list[int]] = {}
    for i, resp in enumerate(responses):
        found = []
        status = resp.get("status")
        if status is None or not 200 <= status < 300:
            found.append(f"status {status}")
        else:
            found += _document_problems(resp["body"], resp["spec"][0])
            by_spec.setdefault(resp["spec"], []).append(i)
        if found:
            problems[i] = found
    for spec, indices in by_spec.items():
        bodies = {responses[i]["body"] for i in indices}
        if spec in references:
            bodies.add(references[spec])
        if len(bodies) > 1:
            for i in indices:
                problems.setdefault(i, []).append(
                    f"responses to spec {spec!r} are not byte-identical"
                    + (" to a direct run" if spec in references else "")
                )
    return problems


def _document_problems(body: Any, entries: tuple[str, ...]) -> list[str]:
    try:
        doc = json.loads(body)
    except (TypeError, ValueError):
        return ["result is not JSON"]
    if not isinstance(doc, dict) or not isinstance(doc.get("experiments"), dict):
        return ["result is not a suite document"]
    problems = []
    if sorted(doc["experiments"]) != sorted(entries):
        problems.append(f"result holds {sorted(doc['experiments'])}")
    if "failures" in doc:
        problems.append(f"pool failures: {sorted(doc['failures'])}")
    return problems
