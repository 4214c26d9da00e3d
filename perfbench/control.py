"""Fixed reference work that uses no repository code.

``python perfbench/control.py`` runs a fixed mix of small-array NumPy
steps and dictionary updates (the interpreter-bound kind of work the
simulator does) and prints the seconds that work took.  The runner
times it around every workload repetition to measure how fast the
machine is at that moment; no change to the repository changes it.
"""

import time

import numpy as np

started = time.perf_counter()
x = np.linspace(0.1, 1.0, 32)
total = 0.0
for i in range(60000):
    y = x * 0.97 + 0.01
    x = np.where(y > 0.9, y - 0.5, y)
    total += float(x[i & 31])
counts = {}
for i in range(600000):
    key = i % 1009
    counts[key] = counts.get(key, 0.0) + i * 0.5
print(time.perf_counter() - started)
