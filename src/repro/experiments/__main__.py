"""``python -m repro.experiments``: run the experiment table and write
EXPERIMENTS.md (see :mod:`repro.experiments.experiments`)."""

import sys

from repro.experiments.experiments import main

if __name__ == "__main__":
    sys.exit(main())
