"""Test set-up for the benchmark's own tests: import peridyn from this
checkout's sources and the benchmark modules from this directory.

    python -m pytest bench
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
