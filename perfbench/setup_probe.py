"""Time one workload's set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a user pays before the first call: importing refugebif (and
with it numpy and scipy), building the grid or loading the config, and the
first, cold Laplacian assembly.  run.py calls this several times per run and
reports the median as setup_s.
"""

import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

start = perf_counter()
import refugebif  # noqa: E402,F401
import workloads  # noqa: E402

(HERE / "out").mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
    workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(workdir))
    elapsed = perf_counter() - start
print(elapsed)
