"""Starts benchmark children and reports each child's own rusage.

A child's peak RSS (ru_maxrss from wait4) includes the resident memory of
the process it was forked from, so children are not started by the
benchmark process, which holds numpy and scipy, but by this small server.
It imports only the standard library and must stay that way.

Protocol: one JSON request per line on stdin, {"cmd", "cwd", "env",
"stderr", "timeout"}; one JSON reply per line on stdout, {"rc", "wall",
"cpu", "rss_mb"}.  The server exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def run_child(cmd, cwd, env, stderr, timeout) -> dict:
    with open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
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
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


class Launcher:
    """Client side: owns the server process; start it before heavy imports."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, cwd, env, stderr, timeout) -> dict:
        self._proc.stdin.write(json.dumps(
            {"cmd": [str(c) for c in cmd], "cwd": str(cwd), "env": env,
             "stderr": str(stderr), "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run_child(**req)), flush=True)


if __name__ == "__main__":
    serve()
