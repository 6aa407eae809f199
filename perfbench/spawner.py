"""Start the benchmark's measured commands from a small process.

A child's ru_maxrss includes the memory of the process it was forked from,
so run.py, which holds inputs and check results, cannot start the commands
itself without inflating peak_rss_mb. This helper stays small. It reads one
JSON request per line on stdin: {"argv": [...], "cwd": ..., "log": ...,
"timeout": seconds}. For each it runs the command to completion and writes
one JSON line: {"rc": ..., "wall_s": ..., "rss_mb": ...}. On SIGTERM it kills
and reaps the running command before it exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, cwd, log, timeout):
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["cwd"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
