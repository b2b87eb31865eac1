"""Run ``python -m repro.service`` with the per-layer span shims installed.

    python3 perfbench/daemon_hook.py --stats-dir DIR -- serve --port 0 ...

The shims go in before the daemon starts.  Pool workers are forked from
the daemon, so they inherit the shims; each forked worker drops the
parent's spans and writes its own to ``DIR/<pid>.json`` whenever an
experiment finishes.  When the daemon exits (SIGTERM drains it), its
own spans and the install report go to ``DIR/daemon.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats-dir", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = [a for a in args.service_args if a != "--"]

    import repro.service.server  # noqa: F401 - bind its run_suite alias first

    recorder = SpanRecorder(dump_dir=args.stats_dir)
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    wraps = install(recorder)
    sys.argv = ["repro.service", *service_args]
    code = 0
    try:
        runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        doc = recorder.totals()
        doc.update(installed=wraps.installed, missing=wraps.missing)
        path = os.path.join(args.stats_dir, "daemon.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
