"""One fresh set-up of the program, after a host-speed probe in the same process.

    python benchmarks/e2e/setup_probe.py workloads
    python benchmarks/e2e/setup_probe.py serve PROBE_FILE ARG...

Both first time the ``common.HostSpeed`` loop.  ``workloads`` then imports
what a workload process imports, loads the kernel registry and prints the
loop time: ``run.py`` times it from spawn to that line.  ``serve`` writes
the loop time to PROBE_FILE and runs ``python -m repro ARG...`` in this
process: ``server.serve_setup_seconds`` times it from spawn to the first
ping reply.  The probe runs in the process that sets up, because a probe
in another process tracks its speed poorly.
"""

from __future__ import annotations

import runpy
import sys

from common import time_speed_loop


def main() -> None:
    probe = time_speed_loop()
    if sys.argv[1] == "serve":
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            handle.write(repr(probe))
        sys.argv = ["repro", *sys.argv[3:]]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        import workloads

        workloads.all_kernels()
        print(repr(probe), flush=True)


if __name__ == "__main__":
    main()
