"""Run one command; write its exit code, wall time and peak RSS as JSON.

Usage: python3 measure.py RESULT.json STDOUT STDERR PROGRAM [ARG...]

Linux charges a spawned child with the peak RSS of the process it was
spawned from, so the benchmark spawns each command from this small process
rather than from itself; the reported peak then belongs to the command.
"""

import json
import os
import sys
import time


def main() -> int:
    result, out, err, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "returncode": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "maxrss_kb": usage.ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
