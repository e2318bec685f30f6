"""The machine's speed during a run, read from fixed work that touches no
reuselab code: a compute kernel for the in-process parts and a start-up
kernel for the parts that start processes.

The machine this benchmark was built on drifts between speed states about
1.6x apart, each lasting from seconds to minutes, with no steal time
reported. Over ten runs in which the machine changed state, a CLI time
divided by the run's full-mode decode time spread 2-5x less than the CLI
time alone. So after each unit of work the run times one kernel, the
compute kernel after a decode or verify round and the start-up kernel
after a CLI subcommand or set-up probe, and reports each timing scaled to
the speed at which its kernel takes its reference time: a time is divided
by the part's slowdown (mean kernel time / reference time) and a
throughput multiplied by it.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# About the mean kernel time during a run on the machine the README
# figures come from (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.009
_X = np.linspace(-1.0, 1.0, 64)


def kernel_seconds() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python loops."""
    start = perf_counter()
    total = 0.0
    for i in range(2000):
        y = np.tanh(_X * (i % 7 + 1))
        total += float(y @ _X) + sum(range(i % 50))
    return perf_counter() - start


# About the mean start-up kernel time on the same machine.
SPAWN_REFERENCE_S = 0.05


def spawn_seconds() -> float:
    """Seconds taken to start an isolated interpreter (``-I``: no
    PYTHONPATH, so no reuselab code) that imports a few standard modules.

    CLI subcommands and set-up probes spend most of their time starting
    an interpreter and importing modules, and on this machine that speed
    drifts apart from the compute kernel's: over 47 rounds of the six
    tiny-model subcommands cut into 5-round windows, CLI times divided by
    this kernel spread 0.03-0.07 across windows, divided by the compute
    kernel 0.05-0.13, and unscaled 0.07-0.24 (quartile spread over the
    median)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c",
                    "import argparse, csv, decimal, json"], check=True)
    return perf_counter() - start
