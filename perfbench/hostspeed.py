"""A fixed kernel that measures how fast the host runs at this moment.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10-30 % over seconds to minutes as other tenants load it; CPU time drifts as
much as wall time.  `probe()` times a fixed piece of work that uses no code of
bittide_sim but the kinds of work it does: interpreted loops over a dict,
float formatting as a CSV writer does it, many small numpy calls, lists of
floats turned into arrays, a few dense BLAS/LAPACK calls and a pass over
arrays larger than a core's own caches.  worker.py times it just before and
just after every measured pass; a pass's wall time over the mean of the two
is the pass's time in units of this kernel, which keeps the program's cost
and drops most of the host's drift.

Nothing here may change between the commits that a benchmark compares.
"""

import gc
import time

import numpy as np

_rng = np.random.default_rng(20230320)
_SMALL = _rng.random((8, 8))
_LARGE = _rng.random((256, 256))
_VALUES = _rng.random(20000).tolist()
_HISTORY = _VALUES[:2000]
_STREAM = _rng.random(2_000_000)
_STREAM_OUT = np.empty_like(_STREAM)


def _work() -> float:
    table = {}
    for i in range(75000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i
    text = ",".join(f"{v:.17g}" for v in _VALUES)
    small = _SMALL
    for _ in range(7500):
        small = _SMALL @ _SMALL + _SMALL.T
    large = _LARGE
    for _ in range(12):
        large = _LARGE @ _LARGE
    solved = np.linalg.solve(_LARGE, large[0])
    for _ in range(200):
        history = np.array(_HISTORY)
    for _ in range(8):
        np.multiply(_STREAM, 1.0000001, out=_STREAM_OUT)
    return (len(table) + len(text) + float(small[0, 0] + solved[0])
            + float(history[-1] + _STREAM_OUT[-1]))


def probe() -> float:
    """Wall seconds of one run of the fixed kernel (about 100 ms).

    The collector is off while it runs, so that the kernel never pays for
    the garbage that the pass before it left."""
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()
