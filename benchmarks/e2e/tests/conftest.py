"""Make the benchmark's modules importable as the scripts import them."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(E2E))
