"""Time the program's set-up in a fresh interpreter and print seconds.

    python lubtbench/setup_probe.py JOBS

Set-up is importing ``repro`` and, for ``JOBS`` > 0, starting a
``WorkerPool`` of that many workers until it has answered one trivial
task.  ``repro`` must be importable (``PYTHONPATH=src``).
"""

import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    jobs = int(sys.argv[1])
    if jobs:
        from repro.perf import WorkerPool

        with WorkerPool(jobs) as pool:
            if not pool.submit(os.getpid).ok:
                return 1
            elapsed = time.perf_counter() - t0
    else:
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
