"""Benchmark-suite configuration.

Prints are the product here: each bench emits the rows/series of the paper
artifact it regenerates.  Nothing here turns output capture off, and the
repo's ``addopts`` apply, so run benches the way CI does to see the rows::

    PYTHONPATH=src python -m pytest -o addopts= -q -s benchmarks/test_bench_league.py

This file only puts ``common`` on ``sys.path``.
"""

import sys
from pathlib import Path

# Make `common` importable when pytest is invoked from the repo root.
sys.path.insert(0, str(Path(__file__).parent))
