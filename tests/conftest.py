"""Make ``src`` importable by subprocesses the tests start, and fix the
examples hypothesis draws.

Tier-1 runs with ``PYTHONPATH=src``, a path relative to the repository
root; a ``python -m binaryrisk`` child started with another working
directory would not find the package. Prepending the absolute path lets
every child inherit it.

Every ``@given`` test runs derandomized: its examples come from a hash of
the test, so each run of the suite checks the same cases and a pass or a
failure repeats. ``derandomize=True`` also turns off the example database.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
