"""Print how long this fresh interpreter takes to import ``fockspace.cli``.

Prints two numbers: the import's seconds and the calibration slice's
seconds around it (see ``calibration.py``).  Nothing the program imports is
imported before the timed import.
"""

import time

from calibration import calibrate

before = calibrate()
start = time.perf_counter()
import fockspace.cli  # noqa: E402,F401

elapsed = time.perf_counter() - start
print(elapsed, (before + calibrate()) / 2)
