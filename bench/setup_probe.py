"""One benchmark set-up, timed inside a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports the holesandwich package and generates the first round of the
workload's seeded inputs, then prints the seconds this took, counted from
the first statement of this file.  run.py starts it several times and
reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports holesandwich)

workloads.WORKLOADS[sys.argv[1]].make_round(int(sys.argv[2]), 0)
print(time.perf_counter() - T0)
