"""Set up one workload in a fresh interpreter, then print ``ready``.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` times several of these from spawn to the ``ready`` line to get
``setup_s``: the cost of ``import extsq``, building the inputs, and the
first quadrature call for workloads that make one.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


if __name__ == "__main__":
    workloads.prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
