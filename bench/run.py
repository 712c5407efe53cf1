"""Benchmark of semo's user-facing operations on simulated device logs.

Run from the root of a checkout:

    python3 bench/run.py --workload phone-100k --seed 1 --seconds 45 --trace 0

`--trace 0` times analyze, curve, resume and recorder ticks end to end;
`--trace 1` times each layer's public functions from outside and writes
the spans to bench/out/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

import os
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: on two CPUs the default
    # threads burn CPU without speeding up these small solves.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC_DIR / "semo" / "__init__.py").is_file():
        sys.exit(f"error: no semo sources under {SRC_DIR}; run from the root of a checkout")
    sys.path.insert(0, str(SRC_DIR))
    from harness import main

    sys.exit(main())
