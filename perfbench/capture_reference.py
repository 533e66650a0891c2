"""Rewrite the reference outputs of the canned `focus` commands.

    python3 perfbench/capture_reference.py

Run it only at a commit whose output is known to be right: every
benchmark run compares each canned command's report with these files
byte for byte.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cycleforge import cli  # noqa: E402
from workloads import FOCUS_REFERENCE, focus_canned  # noqa: E402


def main() -> int:
    os.makedirs(FOCUS_REFERENCE, exist_ok=True)
    for label, argv in focus_canned():
        rc = cli.main(argv + ["--out", os.path.join(FOCUS_REFERENCE, label + ".json")])
        if rc != 0:
            sys.stderr.write(f"{label}: exit status {rc}\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
