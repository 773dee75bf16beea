"""A small helper process that runs CLI jobs for a worker, one at a time.

Linux hands a spawned child its parent's peak RSS, so a CLI job started
straight from a worker that has numpy and the package loaded could report
no less than the worker's own footprint.  Started before the worker imports
anything large, this process stays small, and the peak RSS of its children
(``getrusage(RUSAGE_CHILDREN)``) is that of the CLI jobs themselves.

Protocol: one JSON array (the command) per line on standard input; one JSON
object per line on standard output with ``returncode``, ``stdout``,
``stderr`` and ``children_peak_rss_kb``.  Standard library only.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

JOB_TIMEOUT_S = 60


class Launcher:
    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.children_peak_rss_kb = 0

    def run(self, command: list[str]) -> tuple[int, str, str]:
        """(returncode, stdout, stderr) of one command; -1 if it timed out."""
        self._proc.stdin.write(json.dumps(command) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process has exited")
        reply = json.loads(line)
        self.children_peak_rss_kb = reply["children_peak_rss_kb"]
        return reply["returncode"], reply["stdout"], reply["stderr"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        try:
            proc = subprocess.run(json.loads(line), capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
            reply = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            reply = {"returncode": -1, "stdout": "", "stderr": "timed out\n"}
        reply["children_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
