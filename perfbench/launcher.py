"""Starts the CLI op processes from a process that stays small.

A child's ru_maxrss counts from the resident size of the process that forked
it, and the benchmark process grows while it parses outputs and builds oracle
arrays.  Op processes are therefore started here, so their peak RSS is their
own plus this launcher's few MiB, the same on every commit.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stderr": path or null, "timeout_s": s}
answered by one line {"wall_s": s, "code": exit code, "maxrss_kib": k}.
The op runs with stdout discarded; it is killed after timeout_s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"] or os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(req["timeout_s"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
