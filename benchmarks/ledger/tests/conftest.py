"""Harness self-tests: ``python -m pytest benchmarks/ledger/tests``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
for path in (LEDGER.parents[1] / "src", LEDGER):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
