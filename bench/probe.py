"""Set-up probe: a fresh interpreter runs a CLI command up to its first simulator call.

Usage: ``python3 -m bench.probe <cli arguments...>``. The probe imports
``stopgo.cli``, replaces the simulator entry points that ``cli`` calls with
a stop that prints ``time.perf_counter()`` and exits at once, and calls
``cli.main``. The parent subtracts its own clock reading taken before it
started the interpreter; both read the same system-wide monotonic clock.
"""
import os
import sys
import time
from pathlib import Path

STOPS = ("place_intelligent", "run_with_rng", "run_ensemble", "compare_kinds")


def _stop(*args, **kwargs):
    sys.stdout.write(f"{time.perf_counter()!r}\n")
    sys.stdout.flush()
    os._exit(0)


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import stopgo.cli as cli

    for name in STOPS:
        setattr(cli, name, _stop)
    cli.main(sys.argv[1:])
    sys.exit("probe: the command finished without calling the simulator")


if __name__ == "__main__":
    main()
