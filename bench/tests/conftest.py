"""The benchmark's own tests: ``python -m pytest bench/tests -q``.

Not part of the repo's tier-1 suite (``pyproject.toml`` points pytest at
``tests/``); these check the measuring instrument, not the program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
