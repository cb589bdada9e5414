"""Run one graphld CLI command under cProfile and keep its per-module profile.

Usage: python3 cli_child.py PROFILE_JSON <graphld command arguments...>

The command's exit status is passed through; the profile summary (see
``recorder.profile_summary``) is written to PROFILE_JSON even when it fails.
"""

import cProfile
import json
import pstats
import sys

from recorder import profile_summary


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from graphld.cli import main as cli_main

    prof = cProfile.Profile()
    try:
        return prof.runcall(cli_main, argv)
    finally:
        with open(out, "w") as f:
            json.dump(profile_summary(pstats.Stats(prof)), f)


if __name__ == "__main__":
    sys.exit(main())
