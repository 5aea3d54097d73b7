"""Run one factorchain CLI command with the benchmark's tracer installed.

Usage: python3 bench/cli_shim.py SPANS_JSON PHASE ROUND -- CLI_ARGS...

The spans of the command are written to SPANS_JSON together with the
wall-clock time at which ``factorchain.cli.main`` was entered, so the
parent can tell interpreter start-up and imports apart from the command.
The exit code is the CLI's own.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    out_path, phase, round_arg, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_JSON PHASE ROUND -- CLI_ARGS...")
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import factorchain.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.set_phase(phase, None if round_arg == "-" else int(round_arg))
    main_entry = time.time()
    code = None
    try:
        code = factorchain.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, {"main_entry_epoch": main_entry, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
