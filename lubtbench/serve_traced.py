"""Run ``lubt serve`` with the benchmark's tracer installed.

    python lubtbench/serve_traced.py SPAN_DIR [serve options...]

The server and the pool workers it forks write their spans to
``SPAN_DIR`` when they exit.  ``repro`` must be importable
(``PYTHONPATH=src``).
"""

import sys

from layers import TARGETS
from tracer import Tracer


def main() -> int:
    from repro.cli import main as lubt

    tracer = Tracer(sys.argv[1])
    tracer.install(TARGETS)
    tracer.enable_children()
    try:
        return lubt(["serve", *sys.argv[2:]])
    finally:
        tracer.restore()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
