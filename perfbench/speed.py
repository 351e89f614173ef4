"""The machine-speed probe that benchmark timings are scaled by.

This machine's speed drifts by up to a fifth over seconds to minutes (host
contention; process CPU time drifts alike), so raw wall times of identical
work differ between runs by more than the bounds a benchmark can use.  A
fixed pure-Python loop that uses no tmodext code is timed next to the
measured work, and each timing is scaled to the speed at which that loop
takes REFERENCE_S.
"""

import time

REFERENCE_S = 0.020
_FULL = 12000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work(n):
    """Tuples, dicts, small objects, integer arithmetic and a generator."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i % 7, i * 3 % 11, i * 5 % 13)
        pair = _Pair(key[0], key[2])
        table[key] = table.get(key, 0) + pair.a * pair.b
        acc = (acc + sum(x * y for x, y in zip(key, key[1:]))) % 1000003
    return acc + len(table)


def probe(share=1.0):
    """Seconds the full reference loop takes now, timed on `share` of it."""
    start = time.perf_counter()
    reference_work(int(_FULL * share))
    return (time.perf_counter() - start) / share


def speed_factor(before, after):
    """Scale from the speed between two probes to the nominal speed."""
    return 2 * REFERENCE_S / (before + after)
