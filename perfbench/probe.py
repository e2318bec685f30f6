"""One set-up of a workload in a fresh interpreter; prints ``ready`` and
the process's peak RSS (VmHWM, kB).

``run.py`` times this process from its start to the ``ready`` line: the
import of ``reuselab.cli`` (scipy included), the decode and verify models'
weights, and one warm-up per mode of the decode and verify parts. The peak
RSS is the program's own for that work, without the benchmark's checks.

    python3 perfbench/probe.py mid-model
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reuselab.cli  # noqa: E402,F401
import decode_part  # noqa: E402
import verify_part  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

decode_part.DecodePart(None, WORKLOADS[sys.argv[1]]).warm_up()
verify_part.VerifyPart(None).warm_up()
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print("ready", hwm, flush=True)
