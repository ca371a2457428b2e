"""Machine noise reference: a fixed single-threaded GEMM loop in consecutive processes.

    python3 perfbench/calibrate.py

Each process multiplies two fixed 512x512 float64 matrices 400 times on one
BLAS thread and reports its time.  The summary gives the median and the
spread between the first and third quartile as a share of the median: a
benchmark metric whose spread is near this one is measuring the machine.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics
import subprocess
import sys
import time

PROCESSES = 6
SIZE = 512
REPEATS = 400


def _loop() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((SIZE, SIZE))
    b = rng.standard_normal((SIZE, SIZE))
    start = time.perf_counter()
    for _ in range(REPEATS):
        a = a @ b
        a /= np.abs(a).max()
    return time.perf_counter() - start


def main() -> None:
    if sys.argv[1:] == ["--once"]:
        print(_loop())
        return
    times = []
    for _ in range(PROCESSES):
        out = subprocess.run([sys.executable, __file__, "--once"], capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
        print(f"{times[-1]:.3f} s", flush=True)
    q1, _, q3 = statistics.quantiles(times, n=4)
    median = statistics.median(times)
    print(f"median {median:.3f} s, min {min(times):.3f} s, max {max(times):.3f} s, quartile spread {(q3 - q1) / median:.1%}")


if __name__ == "__main__":
    main()
