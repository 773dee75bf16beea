"""Entry point of a worker process; run.py starts it.  See measure.py."""

import sys

from launcher import Launcher

if __name__ == "__main__":
    # The launcher starts before numpy and the package are imported, so the
    # CLI jobs it spawns do not inherit this process's peak RSS.
    with Launcher() as launcher:
        import measure
        sys.exit(measure.main(sys.argv[1:], launcher))
