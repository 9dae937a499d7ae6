"""Make ``src`` importable by subprocesses the tests start.

Tier-1 runs with ``PYTHONPATH=src``, a path relative to the repository
root; a ``python -m binaryrisk`` child started with another working
directory would not find the package. Prepending the absolute path lets
every child inherit it.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
