"""A violation silenced by an inline allow comment."""

import time

stamp = time.time()  # repro: allow[RD004]
