"""The speed of the host, measured with a fixed calibration loop.

Other tenants of a shared host slow this process down by up to 2x, for
anything from a fraction of a second to a minute or more, and they slow
every Python loop about alike: a run that falls in a slow minute is slow
even at its fastest.  run.py times this loop between operations, takes
its median time over each pass, and reports every time measured in that
pass at the speed of the reference host, where the loop takes
REFERENCE_S:

    time at reference speed = time measured * REFERENCE_S / loop time

The loop does the kind of work mayext does (small integer tuples as dict
keys, products reduced mod p, dense rows of small integers) but calls no
mayext code, so a change to mayext does not move it.
"""

from __future__ import annotations

import random
from time import perf_counter

# time of loop() on the reference host (a 2-vCPU Firecracker VM, Intel
# Xeon at 2.1 GHz, Python 3.11.7) while nothing else slowed it
REFERENCE_S = 0.0041


def loop() -> int:
    rng = random.Random(7)
    a = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, 3) for _ in range(60)}
    b = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, 3) for _ in range(60)}
    product: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            product[k] = (product.get(k, 0) + va * vb) % 3
    rows = [[(i * j + c) % 3 for j in range(40)] for i, c in enumerate(product.values()) if i < 40]
    return len(product) + sum(map(sum, rows))


def time_loop() -> float:
    """Seconds one run of loop() takes now."""
    started = perf_counter()
    loop()
    return perf_counter() - started
