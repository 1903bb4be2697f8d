"""A fixed reference computation that reads the machine's current speed.

The shared host the benchmark runs on changes speed by itself: in slow
phases, which last from seconds to minutes, every operation takes up to
twice as long, with process CPU time rising alongside wall time. A run's
raw seconds therefore say as much about the neighbours as about the
program. :class:`Reference` times the same fixed work, which never calls
the package, right before and right after each timed operation; an
operation's time divided by the mean of those two readings is its time in
*reference units*, which the machine's phases move far less than seconds.

The work mixes the kinds the workloads do: an interpreted Python loop, many
small dense factorisations (the fits' Cholesky calls), sorting an array
larger than the L2 cache (CRPS and ensemble passes), and writing and parsing
CSV rows in memory (the data layer and every output file). It runs for about
0.2 s on the 2-core machine the benchmark was defined on.
"""

import csv
import io
import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.random((30, 30))
        self.spd = a @ a.T + 30.0 * np.eye(30)
        self.values = rng.random(200_000)
        self.amounts = rng.gamma(0.5, 30.0, 6000).tolist()
        self.text = "\n".join(f"{i},{i % 200},2001-01-01,{v!r}"
                              for i, v in enumerate(self.amounts))
        self.seconds()  # warm-up: first-call costs are not the machine's speed

    def seconds(self):
        """Wall seconds one pass of the reference work takes now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(1000):
            np.linalg.cholesky(self.spd)
        for _ in range(40):
            np.sort(self.values)
        for _ in range(3):
            writer = csv.writer(io.StringIO())
            for i, v in enumerate(self.amounts):
                writer.writerow((i, i % 200, "2001-01-01", repr(v)))
        for _ in range(3):
            total += len([(int(r[0]), r[2], float(r[3]))
                          for r in csv.reader(io.StringIO(self.text))])
        return time.perf_counter() - t0
