"""Set-up of one benchmark workload, also runnable as a timing probe.

``python3 perfbench/setup_probe.py <workload>`` does what a fresh process
must do before the workload's first operation: import tempint from the
checkout's ``src/`` and, for ``segments``, load the bundled g4
coefficient file.  It then prints ``ready``; the benchmark times each
probe from process start to that line.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
G4_COEFF = os.path.join(SRC, "tempint", "data", "g4.coeff")


def prepare(workload):
    """Import the program and build what the first operation needs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if workload == "segments":
        from tempint import harness, rational
        return {"harness": harness,
                "approximant": rational.load_coeffs(G4_COEFF)}
    from tempint import cli
    return {"cli": cli}


if __name__ == "__main__":
    prepare(sys.argv[1])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
