"""Run one ``erdosmoser`` CLI invocation and report the process's own peak memory.

Usage: python3 perfbench/launch.py REPORT_FD ARG...

Calls ``erdosmoser.cli.main(ARG...)`` as the console script does, with the
package imported from the checkout's ``src/``, so every invocation starts
with the interpreter, the import and all package caches cold.  After stdout
is flushed it writes one JSON object ``{"exit": code, "vmhwm_kb": n}`` to the
inherited file descriptor REPORT_FD.

VmHWM is read from ``/proc/self/status`` instead of taken from the parent's
``wait4()``: Linux carries ``ru_maxrss`` across ``exec`` from the forking
parent, so ``wait4`` reports the benchmark driver's memory for a small child.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def vmhwm_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _exit_code(code) -> int:
    # SystemExit carries None, an int or a message; mirror the interpreter.
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def main() -> int:
    report_fd = int(sys.argv[1])
    from erdosmoser.cli import main as cli_main

    try:
        code = _exit_code(cli_main(sys.argv[2:]))
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = _exit_code(exc.code)
    sys.stdout.flush()
    report = json.dumps({"exit": code, "vmhwm_kb": vmhwm_kb()}).encode()
    os.write(report_fd, report)
    os.close(report_fd)
    return code


if __name__ == "__main__":
    sys.exit(main())
