"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed changes by up to a
factor of two, for fractions of a second to minutes at a time, while
neighbours load the same cores.  ``probe()`` does a small fixed amount
of the kind of work the program does (exact rational arithmetic, dicts
keyed by tuples, row reduction) and returns how long it took; it
imports nothing of the program, so a change to the program does not
change it.

A request process runs EDGE_PROBES probes just before and just after
the timed work, and one more every TICK_S seconds during it, from a
timer signal (their time is taken out of the timed work).
``scale(mean_probe_s)`` turns the mean probe time into the factor that
converts the measured time into a time at the reference speed, the
speed at which the probe takes PROBE_REF_S.  The factor cancels the
host's slow spells and leaves the program's own cost.
"""

import time
from fractions import Fraction

# Probe time on an unloaded core of a 2-CPU x86-64 host with Python 3.11.
PROBE_REF_S = 0.001
EDGE_PROBES = 4
TICK_S = 0.1


def _work():
    acc = {}
    for i in range(1, 20):
        for j in range(1, 12):
            key = (i % 13, j % 7, (i * j) % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i * j, i + j)
    # forward elimination of the 5 x 5 Hilbert matrix
    size = 5
    m = [[Fraction(1, i + j + 1) for j in range(size)] for i in range(size)]
    for c in range(size):
        pivot = m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / pivot
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return len(acc), m[-1][-1]


def probe():
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(mean_probe_s):
    return PROBE_REF_S / mean_probe_s
