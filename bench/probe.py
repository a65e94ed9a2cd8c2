"""Set-up probe: import nilg2 and finish a workload's warm-up, then exit.

``run.py`` times this script in fresh interpreters for ``setup_s``.
Usage: python3 bench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    with workloads.workdir(name, seed) as path:
        workloads.warm_up(workloads.WORKLOADS[name](seed, path))
