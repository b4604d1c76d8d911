"""The repository's benchmark: live loopback discovery, churn and the simulator."""

import sys
from pathlib import Path

# The program under test is the checkout's src/, whatever the working directory.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
