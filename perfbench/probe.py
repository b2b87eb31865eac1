"""Set-up probe: one fresh process doing a workload's set-up, then exiting.

Imports what the in-process workloads import, builds one warm-up
machine, prints ``ready`` and exits.  ``run.py`` times several of these
from ``Popen`` to the ``ready`` line and reports the median as
``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.experiment import ExperimentConfig  # noqa: E402
from repro.core.suite import SUITE, run_suite, suite_to_dict  # noqa: E402,F401

if __name__ == "__main__":
    ExperimentConfig(scale=0.02).build_machine()
    print("ready", flush=True)
